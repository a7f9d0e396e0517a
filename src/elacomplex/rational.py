"""Exact rational scalar type used throughout the exact stage.

`Q` is `fractions.Fraction`.  Little of the hot work is rational
arithmetic: Poly3 computes on integer numerators over one denominator, and
the exact assembly on int64 rows, so the scalar type serves the cold paths
(factor bases, potentials, rational reconstruction, coefficient views and
text).
"""

from fractions import Fraction as Q

QZERO = Q(0)


def as_q(x):
    """Coerce ints / Fractions / strings like '3/4' to a Fraction."""
    if isinstance(x, Q):
        return x
    return Q(x)


def qstr(x):
    """Canonical text for a rational: '7', '-3/2', '0'."""
    x = as_q(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)
