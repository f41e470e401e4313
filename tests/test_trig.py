"""Pole-guarded trig helpers, pinned bit for bit to their two-reduction definitions."""

import math
import random

import pytest

from trigsum.errors import NumericError
from trigsum.trig import (POLE_TOL, cos_pi, cot_pi, csc_pi, phase, quarter_turns, sec_pi, sin_pi,
                          tan_pi)


# --- the reference: each helper written out with its own reductions ----------

def ref_sin(x):
    r = math.remainder(x, 2.0)
    s = 1.0
    if r < 0.0:
        r = -r
        s = -1.0
    if r > 0.5:
        r = 1.0 - r
    return s * math.sin(math.pi * r)


def ref_cos(x):
    return ref_sin(0.5 - abs(math.remainder(x, 2.0)))


def ref_guard(dist, name, x):
    if math.pi * dist <= POLE_TOL:
        raise NumericError(
            f"singular term: {name} argument {x!r} (half turns) is within "
            f"{POLE_TOL:g} radians of a pole"
        )


def ref_cot(x):
    ref_guard(abs(math.remainder(x, 1.0)), "cot", x)
    return ref_cos(x) / ref_sin(x)


def ref_csc(x):
    ref_guard(abs(math.remainder(x, 1.0)), "cosec", x)
    return 1.0 / ref_sin(x)


def ref_tan(x):
    ref_guard(abs(math.remainder(x - 0.5, 1.0)), "tan", x)
    return ref_sin(x) / ref_cos(x)


def ref_sec(x):
    ref_guard(abs(math.remainder(x - 0.5, 1.0)), "sec", x)
    return 1.0 / ref_cos(x)


def ref_phase(x):
    return complex(ref_cos(x), ref_sin(x))


PAIRS = [(cot_pi, ref_cot), (csc_pi, ref_csc), (tan_pi, ref_tan), (sec_pi, ref_sec),
         (cos_pi, ref_cos), (phase, ref_phase), (sin_pi, ref_sin)]


def arguments():
    """Seeded uniform |x| <= 8, and the quarter turns k/4, |k| <= 32, offset near the lattice.

    Only |x| < 2**52: above it the reference's x - 0.5 rounds, while
    the helpers subtract 0.5 from the reduced argument exactly.
    """
    rng = random.Random(20161)
    xs = [rng.uniform(-8.0, 8.0) for _ in range(2000)]
    for k in range(-32, 33):
        for offset in (0.0, 1e-16, -1e-16, 1e-13, -1e-13, 3e-13, -3e-13, 1e-9, -1e-9):
            xs.append(k / 4 + offset)
    return xs + [0.0, -0.0]


def outcome(fn, x):
    try:
        return repr(fn(x))
    except NumericError as exc:
        return f"NumericError: {exc}"


@pytest.mark.parametrize("fn, ref", PAIRS, ids=[fn.__name__ for fn, _ in PAIRS])
def test_helpers_match_their_two_reduction_definitions(fn, ref):
    refused = 0
    for x in arguments():
        want = outcome(ref, x)
        assert outcome(fn, x) == want, x
        refused += want.startswith("NumericError")
    # the lattice offsets reach inside each reciprocal helper's guard
    assert refused > 0 or fn in (cos_pi, phase, sin_pi)


def test_quarter_turns_match_the_helpers_they_name():
    sin_cos = (ref_sin, ref_cos)
    csc_sec = (ref_csc, ref_sec)
    for x in arguments():
        for q in range(-4, 8):
            for reciprocal in (False, True):
                want = outcome((csc_sec if reciprocal else sin_cos)[q % 2], x)
                if q % 4 >= 2 and not want.startswith("NumericError"):
                    want = repr(-float(want))
                assert outcome(lambda v: quarter_turns(v, q, reciprocal), x) == want, (x, q)
