"""The defining sums at 40 digits, the reference the tests hold every path to.

Test modules import it by name: pytest puts this directory on the path.
scripts/accuracy_scan.py imports it too, so it needs only trigsum and
mpmath. Without mpmath, reference_sum skips the test that calls it.
"""

from trigsum import TRAITS
from trigsum.families import pole_order

try:
    import mpmath
except ImportError:
    mpmath = None


def prefix_vanishes(prefix, k, d):
    """cos or sin(pi k/d) is exactly 0, by integer test.

    At 40 digits such a prefix reads about 1e-41, and times a near-pole
    term that is far from negligible.
    """
    if prefix == "cos":
        return (2 * k - d) % (2 * d) == 0
    return k % d == 0


def reference_sum(spec):
    """The defining sum at 40 digits, from the exact float shifts."""
    if mpmath is None:
        import pytest
        pytest.skip("could not import 'mpmath'")
    traits = TRAITS[spec.family]
    fns = {"cot": mpmath.cot, "csc": mpmath.csc, "tan": mpmath.tan, "sec": mpmath.sec,
           "cos": mpmath.cos, "sin": mpmath.sin}
    power = pole_order(spec.family, spec.n) if traits.kind == "power" else 1
    span = 2 * spec.d if traits.kind == "double" else spec.d
    freq = spec.m if traits.odd_m else 2 * spec.m
    with mpmath.workdps(40):
        pi = mpmath.pi
        total = mpmath.mpf(0)
        for j in range(traits.oracle_start, span):
            if prefix_vanishes(traits.prefix, freq * j, spec.d):
                continue
            term = fns[traits.prefix](pi * freq * j / spec.d) \
                * fns[traits.shift_kind](pi * (mpmath.mpf(j) / span + mpmath.mpf(spec.b))) ** power
            if traits.second_kind is not None:
                term *= fns[traits.second_kind](pi * (mpmath.mpf(j) / spec.d + mpmath.mpf(spec.b2)))
            total += term
        return float(total)
