import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elacomplex import poly_calculus as pc
from elacomplex.poly_calculus import (
    Div,
    Grad,
    Poly3,
    PolyMatField,
    PolyVecField,
    Rot,
    div,
    grad,
    random_mat_field,
    random_poly,
    random_vec_field,
    rot,
    rotrot_t,
    sym_grad,
)
from elacomplex.rational import Q

N_TRIALS = 25
DEGREE = 3


def test_no_stored_zeros_after_arithmetic():
    rng = random.Random(1)
    for _ in range(N_TRIALS):
        f = random_poly(rng, DEGREE)
        g = random_poly(rng, DEGREE)
        for h in (f + g, f - g, f * g, f - f, f * Poly3()):
            assert all(c != 0 for c in h.terms.values())
    assert (Poly3.monomial(1, 0, 0) - Poly3.variable(0)).is_zero()


def test_degree_bookkeeping():
    rng = random.Random(2)
    for _ in range(N_TRIALS):
        f = random_poly(rng, DEGREE)
        g = random_poly(rng, 2)
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).total_degree() <= f.total_degree() + g.total_degree()
        assert f.diff(0).total_degree() <= f.total_degree() - 1
    assert Poly3().total_degree() == -1
    p = Poly3.monomial(2, 1, 3, Q(1, 2))
    assert p.total_degree() == 6


def test_gradient_curl_divergence_composition():
    rng = random.Random(3)
    for _ in range(N_TRIALS):
        f = random_poly(rng, DEGREE)
        v = random_vec_field(rng, DEGREE)
        assert rot(grad(f)).is_zero()
        assert div(rot(v)).is_zero()


def test_row_wise_operator_definitions():
    rng = random.Random(4)
    S = random_mat_field(rng, DEGREE)
    v = random_vec_field(rng, DEGREE)
    for i in range(3):
        assert Rot(S).row(i) == rot(S.row(i))
        assert Div(S)[i] == div(S.row(i))
        assert Grad(v).row(i) == grad(v[i])


def test_sym_grad_is_symmetric_and_rotrot_preserves_symmetry():
    rng = random.Random(5)
    for _ in range(N_TRIALS):
        v = random_vec_field(rng, DEGREE)
        assert sym_grad(v).is_symmetric()
        S = pc.sym(random_mat_field(rng, DEGREE))
        assert S.is_symmetric()
        assert rotrot_t(S).is_symmetric()


def test_complex_properties_exact():
    rng = random.Random(6)
    for _ in range(N_TRIALS):
        v = random_vec_field(rng, DEGREE)
        S = pc.sym(random_mat_field(rng, DEGREE))
        assert rotrot_t(sym_grad(v)).is_zero()
        assert Div(rotrot_t(S)).is_zero()


def test_canonical_text_format():
    p = Poly3({(1, 0, 0): Q(1), (0, 0, 0): Q(-1, 2)})
    assert p.canonical_text() == "1 * x + -1/2"
    q = Poly3({(0, 2, 1): Q(3), (2, 0, 0): Q(-2, 3)})
    assert q.canonical_text() == "3 * y^2 z + -2/3 * x^2"
    assert Poly3().canonical_text() == "0"
    # ties in total degree break lexicographically on exponents, highest first
    r = Poly3({(1, 1, 0): Q(1), (0, 2, 0): Q(1)})
    assert r.canonical_text() == "1 * x y + 1 * y^2"


def test_exact_evaluation():
    p = Poly3({(2, 1, 0): Q(3, 2), (0, 0, 1): Q(-1)})
    val = p.eval((Q(1, 2), Q(2), Q(1, 3)))
    assert val == Q(3, 2) * Q(1, 4) * Q(2) - Q(1, 3)


def _at(field, pt):
    """A field's value at pt as a numpy object array of Fractions."""
    vals = np.array(field.eval(pt), dtype=object)
    return vals.reshape(3, 3) if vals.size == 9 else vals


def test_pointwise_field_algebra_matches_matrix_formulas():
    # evaluating sym/skw/dev/trace/spn of a field at a point agrees with the
    # matrix formulas applied, in numpy, to the evaluated matrix
    rng = random.Random(7)
    pt = (Q(1, 3), Q(-1, 2), Q(2))
    eye = np.identity(3, dtype=object)
    for _ in range(5):
        S = random_mat_field(rng, DEGREE)
        v, w = random_vec_field(rng, DEGREE), random_vec_field(rng, DEGREE)

        M = _at(S, pt)
        tr_m = M.diagonal().sum()
        assert _at(pc.sym(S), pt).tolist() == ((M + M.T) / 2).tolist()
        assert _at(pc.skw(S), pt).tolist() == ((M - M.T) / 2).tolist()
        assert pc.trace(S).eval(pt) == tr_m
        assert _at(pc.dev(S), pt).tolist() == (M - tr_m / 3 * eye).tolist()

        v_at, w_at = _at(v, pt), _at(w, pt)
        assert (_at(pc.spn(v), pt) @ w_at).tolist() == np.cross(v_at, w_at).tolist()

        assert pc.sym(S) + pc.skw(S) == S
        D = pc.dev(S)
        assert pc.trace(D).is_zero()
        assert pc.dev(D) == D


def test_spn_inv_field_requires_exact_skewness():
    rng = random.Random(8)
    S = pc.skw(random_mat_field(rng, DEGREE))
    assert pc.spn(pc.spn_inv(S)) == S
    v = random_vec_field(rng, DEGREE)
    assert pc.spn_inv(pc.spn(v)) == v
    with pytest.raises(pc.NotSkew):
        pc.spn_inv(pc.scalar_id(Poly3.constant(1)))
    # one symmetric off-diagonal pair is the only fault
    z, f = Poly3(), Poly3.variable(2)
    with pytest.raises(pc.NotSkew):
        pc.spn_inv(S + PolyMatField((z, f, z, f, z, z, z, z, z)))


def test_sampling_determinism_and_coefficient_range():
    a = random_poly(random.Random(42), 3)
    b = random_poly(random.Random(42), 3)
    assert a == b
    for c in a.terms.values():
        assert abs(c.numerator) <= 9 * 3  # numerator after den scaling
        assert c.denominator in (1, 2, 3)
    assert a.total_degree() <= 3


def test_hessian_is_symmetric():
    rng = random.Random(9)
    f = random_poly(rng, 4)
    H = Grad(grad(f))
    assert H.is_symmetric()


def test_mixed_partials_commute():
    rng = random.Random(10)
    S = random_mat_field(rng, 4)
    a = S.partial((1, 0, 0)).partial((0, 1, 1))
    b = S.partial((1, 1, 1))
    assert a == b


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.tuples(
            st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
        ),
        st.integers(-9, 9),
        max_size=8,
    ),
    st.dictionaries(
        st.tuples(
            st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
        ),
        st.integers(-9, 9),
        max_size=8,
    ),
)
def test_ring_laws(d1, d2):
    f = Poly3({e: Q(c) for e, c in d1.items()})
    g = Poly3({e: Q(c) for e, c in d2.items()})
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * f == f * f + g * f
    assert (f - f).is_zero()


# --- the integer-numerator representation, against a Fraction-dict oracle ---

_EXPONENTS = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
_RATIONALS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
_COEFFS = st.one_of(st.integers(-9, 9), _RATIONALS)
_TERMS = st.dictionaries(_EXPONENTS, _COEFFS, max_size=8)


def _oracle(terms):
    return {e: Fraction(c) for e, c in terms.items() if c != 0}


def _oracle_combine(f, g, sign):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + sign * c
    return _oracle(out)


def _oracle_mul(f, g):
    out = {}
    for (a1, b1, c1), u in f.items():
        for (a2, b2, c2), v in g.items():
            e = (a1 + a2, b1 + b2, c1 + c2)
            out[e] = out.get(e, 0) + u * v
    return _oracle(out)


def _oracle_diff(f, axis):
    out = {}
    for e, c in f.items():
        if e[axis]:
            e2 = list(e)
            e2[axis] -= 1
            out[tuple(e2)] = c * e[axis]
    return out


def _assert_canonical(p):
    assert type(p.den) is int and p.den > 0
    assert all(type(n) is int and n != 0 for n in p.num.values())
    assert math.gcd(p.den, *p.num.values()) == 1


@settings(max_examples=150, deadline=None)
@given(_TERMS, _TERMS, _COEFFS, st.tuples(*[st.integers(0, 2)] * 3))
def test_poly3_operations_match_fraction_oracle(d1, d2, c, alpha):
    f, g = Poly3(d1), Poly3(d2)
    o1, o2 = _oracle(d1), _oracle(d2)
    cases = [
        (f + g, _oracle_combine(o1, o2, 1)),
        (f - g, _oracle_combine(o1, o2, -1)),
        (-f, _oracle_combine({}, o1, -1)),
        (f * g, _oracle_mul(o1, o2)),
        (f.scale(c), _oracle({e: v * c for e, v in o1.items()})),
        (c * f, _oracle({e: v * c for e, v in o1.items()})),
        (f * c, _oracle({e: v * c for e, v in o1.items()})),
        (f.scale(0), {}),
    ]
    for axis in range(3):
        cases.append((f.diff(axis), _oracle_diff(o1, axis)))
    expected = o1
    for axis, order in enumerate(alpha):
        for _ in range(order):
            expected = _oracle_diff(expected, axis)
    cases.append((f.partial(alpha), expected))
    for p, terms in cases:
        _assert_canonical(p)
        assert p.terms == terms


@settings(max_examples=100, deadline=None)
@given(_TERMS, _TERMS)
def test_poly3_equal_polynomials_hash_equal(d1, d2):
    f, g = Poly3(d1), Poly3(d2)
    for h in ((f + g) - g, Poly3(f.terms), f.scale(3).scale(Fraction(1, 3)), -(-f)):
        assert h == f and hash(h) == hash(f)
    assert (f == g) == (_oracle(d1) == _oracle(d2))


@settings(max_examples=100, deadline=None)
@given(_TERMS)
def test_poly3_terms_round_trip(terms):
    p = Poly3(terms)
    _assert_canonical(p)
    assert p.terms == _oracle(terms)
    if all(c != 0 for c in terms.values()):
        assert p.terms == terms
    assert Poly3.from_num(
        {e: int(q * p.den) for e, q in p.terms.items()}, p.den
    ) == p


# --- the shared field algebra, against the same operation on each entry ------

_FIELD_TYPES = st.sampled_from(
    [(PolyVecField, 3, "components"), (PolyMatField, 9, "entries")]
)


@settings(max_examples=60, deadline=None)
@given(
    _FIELD_TYPES,
    st.data(),
    _TERMS,
    _COEFFS,
    st.tuples(*[st.integers(0, 2)] * 3),
    st.tuples(*[_RATIONALS] * 3),
)
def test_field_operations_act_entry_by_entry(kind, data, g_terms, c, alpha, point):
    cls, size, noun = kind
    entries = st.lists(_TERMS.map(Poly3), min_size=size, max_size=size)
    a, b = data.draw(entries), data.draw(entries)
    f, h, g = cls(a), cls(b), Poly3(g_terms)
    cases = [
        (cls.zero(), [Poly3()] * size),
        (f + h, [x + y for x, y in zip(a, b)]),
        (f - h, [x - y for x, y in zip(a, b)]),
        (-f, [-x for x in a]),
        (f.scale(c), [x.scale(c) for x in a]),
        (c * f, [x.scale(c) for x in a]),
        (g * f, [g * x for x in a]),
        (f.partial(alpha), [x.partial(alpha) for x in a]),
    ]
    for out, expected in cases:
        assert type(out) is cls and list(out.parts) == expected
    assert f.parts == (f.comps if cls is PolyVecField else f.entries) == tuple(a)
    assert (f == h) == (a == b) and f == cls(a) and f != Poly3()
    assert f.is_zero() == all(x.is_zero() for x in a)
    assert f.eval(point) == tuple(x.eval(point) for x in a)
    assert f.total_degree() == max(x.total_degree() for x in a)
    assert repr(f) == cls.__name__ + f.canonical_text()
    message = "%s needs %d %s" % (cls.__name__, size, noun)
    for wrong in (a[:-1], a + [g]):
        with pytest.raises(ValueError, match=message):
            cls(wrong)
