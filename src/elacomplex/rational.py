"""Exact rational scalar type used throughout the exact stage.

gmpy2.mpq is API-compatible with fractions.Fraction for everything we do
(arithmetic, comparison, numerator/denominator, str) and is several times
faster.  Little of the hot work is rational arithmetic any more: Poly3
computes on integer numerators over one denominator, and the exact
assembly on int64 rows, so the scalar type serves the cold paths (factor
bases, potentials, rational reconstruction, coefficient views and text).
gmpy2 is optional: without it the same code runs on fractions.Fraction,
with identical results.
"""

try:
    from gmpy2 import mpq as Q
except ImportError:  # gmpy2 is optional; Fraction gives the same results
    from fractions import Fraction as Q

QZERO = Q(0)
QONE = Q(1)


def as_q(x):
    """Coerce ints / Fractions / strings like '3/4' to the rational type."""
    if isinstance(x, type(QZERO)):
        return x
    return Q(x)


def qstr(x):
    """Canonical text for a rational: '7', '-3/2', '0'."""
    x = as_q(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)
