"""Floating-point oracles that the tests compare exact values against.

Both evaluate with mpmath at a stated precision and are never
authoritative: a disagreement with the exact value points at a bug, but
agreement only holds to the precision used.
"""

from __future__ import annotations

import mpmath

from thetacalc.exactnum import CycNum
from thetacalc.verlinde import _difference_multiset, necklace_orbits

DEFAULT_EMBED_PREC = 80  # bits of mantissa for both cross-checks


def embed(a: CycNum, prec_bits: int = DEFAULT_EMBED_PREC) -> mpmath.mpc:
    """Numeric value of a at zeta_n = e^{2 pi i / n}."""
    with mpmath.workprec(prec_bits):
        z = mpmath.exp(2j * mpmath.pi / a.conductor)
        return mpmath.polyval(a.nums[::-1], z) / a.den


def v_float(n: int, r: int, g: int, prec_bits: int = DEFAULT_EMBED_PREC) -> mpmath.mpf:
    """The orbit sum of v_g(r, n - r) in floating point."""
    with mpmath.workprec(prec_bits):
        sines = [mpmath.mpf(0)] + [
            (2 * mpmath.sin(mpmath.pi * d / n)) ** 2 for d in range(1, n // 2 + 1)
        ]
        total = mpmath.mpf(0)
        for members, weight in necklace_orbits(n, r):
            term = mpmath.mpf(weight)
            for d, mult in _difference_multiset(members, n).items():
                term *= sines[d] ** ((1 - g) * mult)
            total += term
        return mpmath.mpf(n) ** (r * (g - 1)) * total
