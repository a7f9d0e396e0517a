"""Exact polynomial tensor calculus on R^3.

Sparse trivariate polynomials with rational coefficients, vector and matrix
fields over them, the pointwise tensor algebra on those fields, and the
first/second order differential operators of the elasticity complex.  A
Poly3 holds integer numerators over one common denominator in lowest terms
(see the class), so each ring operation and derivative is integer
arithmetic plus one gcd per result, not a Fraction per term.

PolyVecField (3 components) and PolyMatField (9 entries, row-major) share
one entrywise algebra, `_Field`: sum, difference, negation, scaling by a
rational or a Poly3, equality, evaluation, degree and the mixed partial
`partial(alpha)` of every entry.  Each class adds only what depends on its
shape (indexing, rows, products, transpose, text form).

The pointwise algebra acts at every point of a field; this is the package's
only copy of it:

    sym / skw / dev / trace     on matrix fields (sym S + skw S == S),
    spn / spn_inv / cross       with spn(v) w == cross(v, w), and spn_inv
                                raising NotSkew unless sym(S) == 0 exactly.

The operators:

    grad / div / rot            on scalar resp. vector fields,
    Grad / Rot / Div            acting row-wise on matrix fields,
    sym_grad(v) = sym(Grad v),
    rotrot_t(S) = Rot((Rot S)^T).

Everything is exact: no floats, no tolerances.  The two complex properties

    rotrot_t(sym_grad(v)) == 0      and      Div(rotrot_t(S)) == 0

hold identically and are used as smoke oracles all over the test suite.
"""

import itertools
import math

from .rational import Q, QZERO, as_q, qstr

_AXES = "xyz"


def _poly(num, den):
    """The Poly3 num / den, reduced to lowest terms; num holds no zeros."""
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {e: n // g for e, n in num.items()}
    p = Poly3.__new__(Poly3)
    p.num = num
    p.den = den
    return p


class Poly3:
    """Sparse polynomial in x, y, z with rational coefficients.

    Held as integer numerators over one denominator: `num` maps exponents
    (a, b, c) to nonzero Python ints and `den` is a positive int with
    gcd(den, *num.values()) == 1.  That form is unique, so `==` and `hash`
    compare it directly, and the ring operations and derivatives run on
    ints with one gcd per result.  The zero polynomial is ({}, 1).  `terms`
    gives the {exponent: rational} view.
    """

    __slots__ = ("num", "den")

    def __init__(self, terms=None):
        qs = {e: as_q(c) for e, c in (terms or {}).items() if c != 0}
        den = math.lcm(*(int(q.denominator) for q in qs.values()))
        self.num = {
            e: int(q.numerator) * (den // int(q.denominator)) for e, q in qs.items()
        }
        self.den = den

    @property
    def terms(self):
        """The coefficients as {(a, b, c): rational}, no zero values."""
        den = self.den
        return {e: Q(n, den) for e, n in self.num.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_num(cls, num, den=1):
        """The polynomial num / den: {exponent: int} over a positive int."""
        return _poly({e: n for e, n in num.items() if n}, den)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, c):
        return cls({(0, 0, 0): c})

    @classmethod
    def monomial(cls, a, b, c, coeff=1):
        return cls({(a, b, c): coeff})

    @classmethod
    def variable(cls, axis):
        e = [0, 0, 0]
        e[axis] = 1
        return cls.from_num({tuple(e): 1})

    # -- ring operations ---------------------------------------------------

    def _combine(self, other, sign):
        """self + sign * other.  Poly3 values are never mutated, so a zero
        operand can hand back the other one."""
        if not other.num:
            return self
        if not self.num:
            return other if sign == 1 else -other
        d1, d2 = self.den, other.den
        den = d1 * d2 // math.gcd(d1, d2)
        m1, m2 = den // d1, sign * (den // d2)
        out = dict(self.num) if m1 == 1 else {e: n * m1 for e, n in self.num.items()}
        get = out.get
        for e, n in other.num.items():
            s = get(e, 0) + n * m2
            if s:
                out[e] = s
            else:
                del out[e]
        return _poly(out, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        if not self.num:
            return self
        return _poly({e: -n for e, n in self.num.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, Poly3):
            if not (self.num and other.num):
                return Poly3()
            out = {}
            get = out.get
            right = list(other.num.items())
            for (a1, b1, c1), u in self.num.items():
                for (a2, b2, c2), v in right:
                    e = (a1 + a2, b1 + b2, c1 + c2)
                    s = get(e, 0) + u * v
                    if s:
                        out[e] = s
                    else:
                        del out[e]
            return _poly(out, self.den * other.den)
        if isinstance(other, _Field):
            return NotImplemented
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = as_q(c)
        if c == 0:
            return Poly3()
        if not self.num:
            return self
        k = int(c.numerator)
        return _poly(
            {e: k * n for e, n in self.num.items()}, self.den * int(c.denominator)
        )

    def __eq__(self, other):
        return (
            isinstance(other, Poly3)
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((frozenset(self.num.items()), self.den))

    def is_zero(self):
        return not self.num

    # -- calculus ----------------------------------------------------------

    def diff(self, axis):
        if not self.num:
            return self
        out = {}
        for e, n in self.num.items():
            k = e[axis]
            if k:
                out[e[:axis] + (k - 1,) + e[axis + 1 :]] = n * k
        return _poly(out, self.den)

    def partial(self, alpha):
        """Apply the mixed partial d^alpha, alpha = (i, j, k) orders."""
        p = self
        for axis, n in enumerate(alpha):
            for _ in range(n):
                p = p.diff(axis)
        return p

    def eval(self, point):
        """Exact evaluation at a rational point (tuple of 3 rationals)."""
        x, y, z = (as_q(t) for t in point)
        total = QZERO
        for (a, b, c), n in self.num.items():
            total += n * x**a * y**b * z**c
        return total / self.den

    # -- bookkeeping -------------------------------------------------------

    def total_degree(self):
        """Max total degree of a term; -1 for the zero polynomial."""
        if not self.num:
            return -1
        return max(a + b + c for (a, b, c) in self.num)

    def canonical_text(self):
        """Deterministic text form: terms sorted by (total degree, exponents),
        highest first, each as 'coef * x^a y^b z^c'."""
        if not self.num:
            return "0"
        keys = sorted(self.num, key=lambda e: (e[0] + e[1] + e[2], e), reverse=True)
        parts = []
        for e in keys:
            c = qstr(Q(self.num[e], self.den))
            factors = [
                ("%s^%d" % (_AXES[i], e[i])) if e[i] > 1 else _AXES[i]
                for i in range(3)
                if e[i] > 0
            ]
            parts.append(c + " * " + " ".join(factors) if factors else c)
        return " + ".join(parts)

    def __repr__(self):
        return "Poly3<%s>" % self.canonical_text()


class _Field:
    """The entrywise algebra of a field of Poly3 values.

    `parts` is the tuple of `_size` entries; every operation here acts on
    each entry alone, so `PolyVecField` and `PolyMatField` share one
    definition of it and keep only what depends on their shape.
    """

    __slots__ = ("parts",)

    def __init__(self, parts):
        t = tuple(parts)
        if len(t) != self._size:
            raise ValueError(
                "%s needs %d %s" % (type(self).__name__, self._size, self._noun)
            )
        self.parts = t

    @classmethod
    def zero(cls):
        return cls(Poly3() for _ in range(cls._size))

    def __add__(self, other):
        return type(self)(a + b for a, b in zip(self.parts, other.parts))

    def __sub__(self, other):
        return type(self)(a - b for a, b in zip(self.parts, other.parts))

    def __neg__(self):
        return type(self)(-a for a in self.parts)

    def scale(self, c):
        return type(self)(a.scale(c) for a in self.parts)

    def __rmul__(self, c):
        if isinstance(c, Poly3):
            return type(self)(c * a for a in self.parts)
        return self.scale(c)

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.parts == other.parts

    def is_zero(self):
        return all(p.is_zero() for p in self.parts)

    def partial(self, alpha):
        """The mixed partial d^alpha of every entry."""
        return type(self)(p.partial(alpha) for p in self.parts)

    def eval(self, point):
        return tuple(p.eval(point) for p in self.parts)

    def total_degree(self):
        return max(p.total_degree() for p in self.parts)

    def __repr__(self):
        return "%s%s" % (type(self).__name__, self.canonical_text())


class PolyVecField(_Field):
    """Vector field with three Poly3 components."""

    __slots__ = ()
    _size, _noun = 3, "components"

    @property
    def comps(self):
        return self.parts

    def __getitem__(self, i):
        return self.parts[i]

    def __iter__(self):
        return iter(self.parts)

    def dot(self, other):
        return sum((a * b for a, b in zip(self.parts, other.parts)), Poly3())

    def canonical_text(self):
        return "(" + "; ".join(p.canonical_text() for p in self.parts) + ")"


class PolyMatField(_Field):
    """3x3 matrix field, row-major tuple of nine Poly3 entries."""

    __slots__ = ()
    _size, _noun = 9, "entries"

    @property
    def entries(self):
        return self.parts

    @classmethod
    def from_rows(cls, r0, r1, r2):
        return cls(r0.parts + r1.parts + r2.parts)

    def __getitem__(self, ij):
        i, j = ij
        return self.parts[3 * i + j]

    def row(self, i):
        return PolyVecField(self.parts[3 * i : 3 * i + 3])

    def col(self, j):
        e = self.parts
        return PolyVecField((e[j], e[3 + j], e[6 + j]))

    def __matmul__(self, other):
        if isinstance(other, PolyVecField):
            return PolyVecField(self.row(i).dot(other) for i in range(3))
        if isinstance(other, PolyMatField):
            return PolyMatField(
                self.row(i).dot(other.col(j))
                for i in range(3)
                for j in range(3)
            )
        return NotImplemented

    def transpose(self):
        e = self.parts
        return PolyMatField((e[0], e[3], e[6], e[1], e[4], e[7], e[2], e[5], e[8]))

    def is_symmetric(self):
        e = self.parts
        return e[1] == e[3] and e[2] == e[6] and e[5] == e[7]

    def canonical_text(self):
        rows = []
        for i in range(3):
            rows.append(
                "["
                + "; ".join(self.parts[3 * i + j].canonical_text() for j in range(3))
                + "]"
            )
        return "[" + " ".join(rows) + "]"


# ---------------------------------------------------------------------------
# first-order operators
# ---------------------------------------------------------------------------


def grad(f):
    return PolyVecField((f.diff(0), f.diff(1), f.diff(2)))


def div(v):
    return v[0].diff(0) + v[1].diff(1) + v[2].diff(2)


def rot(v):
    return PolyVecField(
        (
            v[2].diff(1) - v[1].diff(2),
            v[0].diff(2) - v[2].diff(0),
            v[1].diff(0) - v[0].diff(1),
        )
    )


def Grad(v):
    """Row-wise gradient: (Grad v)[i][j] = d_j v_i."""
    return PolyMatField.from_rows(grad(v[0]), grad(v[1]), grad(v[2]))


def Rot(S):
    """Row-wise rotation of a matrix field."""
    return PolyMatField.from_rows(rot(S.row(0)), rot(S.row(1)), rot(S.row(2)))


def Div(S):
    """Row-wise divergence of a matrix field."""
    return PolyVecField((div(S.row(0)), div(S.row(1)), div(S.row(2))))


# ---------------------------------------------------------------------------
# pointwise algebra lifted to fields
# ---------------------------------------------------------------------------


class NotSkew(ValueError):
    """Raised when spn_inv is applied to a matrix field with sym(S) != 0."""


def sym(S):
    e = S.parts
    h = Q(1, 2)
    s01 = (e[1] + e[3]).scale(h)
    s02 = (e[2] + e[6]).scale(h)
    s12 = (e[5] + e[7]).scale(h)
    return PolyMatField((e[0], s01, s02, s01, e[4], s12, s02, s12, e[8]))


def skw(S):
    e = S.parts
    h = Q(1, 2)
    a = (e[1] - e[3]).scale(h)
    b = (e[2] - e[6]).scale(h)
    c = (e[5] - e[7]).scale(h)
    z = Poly3()
    return PolyMatField((z, a, b, -a, z, c, -b, -c, z))


def trace(S):
    e = S.parts
    return e[0] + e[4] + e[8]


def dev(S):
    t = trace(S).scale(Q(1, 3))
    e = S.parts
    return PolyMatField(
        (e[0] - t, e[1], e[2], e[3], e[4] - t, e[5], e[6], e[7], e[8] - t)
    )


def spn(v):
    z = Poly3()
    a1, a2, a3 = v.parts
    return PolyMatField((z, -a3, a2, a3, z, -a1, -a2, a1, z))


def spn_inv(S):
    """Axial vector field of an exactly skew matrix field."""
    e = S.parts
    if not (
        e[0].is_zero()
        and e[4].is_zero()
        and e[8].is_zero()
        and (e[1] + e[3]).is_zero()
        and (e[2] + e[6]).is_zero()
        and (e[5] + e[7]).is_zero()
    ):
        raise NotSkew("spn_inv on a field needs sym(S) == 0 exactly")
    return PolyVecField((e[7], e[2], e[3]))


def cross(v, w):
    a1, a2, a3 = v.parts
    b1, b2, b3 = w.parts
    return PolyVecField(
        (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
    )


def scalar_id(u):
    """u * identity as a matrix field."""
    z = Poly3()
    return PolyMatField((u, z, z, z, u, z, z, z, u))


# ---------------------------------------------------------------------------
# the elasticity complex operators
# ---------------------------------------------------------------------------


def sym_grad(v):
    return sym(Grad(v))


def rotrot_t(S):
    """Second-order operator Rot((Rot S)^T); maps symmetric to symmetric."""
    return Rot(Rot(S).transpose())


# ---------------------------------------------------------------------------
# random sampling (seeded, exact coefficients)
# ---------------------------------------------------------------------------


def random_poly(rng, degree=3):
    """Random polynomial of total degree <= degree.

    Coefficients are uniform integers in [-9, 9] divided by d in {1, 2, 3};
    zero numerators drop out, keeping the representation sparse.
    """
    terms = {}
    for a, b, c in itertools.product(range(degree + 1), repeat=3):
        if a + b + c > degree:
            continue
        num = rng.randint(-9, 9)
        den = rng.choice((1, 2, 3))
        if num != 0:
            terms[(a, b, c)] = (num, den)
    den = math.lcm(*(d for _, d in terms.values()))
    return _poly({e: n * (den // d) for e, (n, d) in terms.items()}, den)


def random_vec_field(rng, degree=3):
    return PolyVecField(random_poly(rng, degree) for _ in range(3))


def random_mat_field(rng, degree=3):
    return PolyMatField(random_poly(rng, degree) for _ in range(9))
