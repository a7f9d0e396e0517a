import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from elacomplex import elasticity_assembly as ea
from elacomplex import exactlin
from elacomplex import fa_toolbox as fa
from elacomplex import poly_calculus as pc
from elacomplex.poly_calculus import Poly3, PolyMatField, PolyVecField
from elacomplex.rational import Q

from conftest import BOUNDARY_CONFIGS


def _uni_inner(f, g):
    total = Q(0)
    for a, ca in enumerate(f):
        for b, cb in enumerate(g):
            if ca and cb:
                total += Q(ca) * Q(cb) * Q(1, a + b + 1)
    return total


def _exact_coords(field, kind, nvar):
    """Coefficients of a field on the monomial grid, {flat_index: rational}."""
    row, den = ea._coord_row(field, kind, nvar)
    return {j: Q(n, den) for j, n in row.items()}


def _integer_rows(coord_dicts, width):
    """Rows {flat_index: rational} with their denominators cleared: int64
    numerators over the least common denominator of each row."""
    rows = []
    for coords in coord_dicts:
        den = math.lcm(*(int(q.denominator) for q in coords.values()))
        rows.append(({j: int(q * den) for j, q in coords.items()}, den))
    return ea._coord_rows(rows, width)


# --- boundary selections ------------------------------------------------------


def test_boundary_selection_parsing():
    assert ea.BoundarySelection.parse(None).faces == frozenset()
    assert ea.BoundarySelection.parse("none").faces == frozenset()
    assert ea.BoundarySelection.parse("").faces == frozenset()
    assert ea.BoundarySelection.parse("all").faces == frozenset(ea.FACE_NAMES)
    assert ea.BoundarySelection.parse("X0,Y1").faces == frozenset({"X0", "Y1"})
    assert ea.BoundarySelection.parse("x0+y1").faces == frozenset({"X0", "Y1"})
    assert ea.BoundarySelection.parse(["Z0"]).faces == frozenset({"Z0"})
    sel = ea.BoundarySelection.parse("X0,X1")
    assert ea.BoundarySelection.parse(sel) is sel
    with pytest.raises(ValueError):
        ea.BoundarySelection.parse("X9")


def test_boundary_selection_orders():
    sel = ea.BoundarySelection.parse("X0,Y1")
    assert sel.orders(0, 2) == (2, 0)
    assert sel.orders(1, 2) == (0, 2)
    assert sel.orders(2, 2) == (0, 0)


# --- univariate factor bases ---------------------------------------------------


@pytest.mark.parametrize("degree,m0,m1", [(4, 0, 0), (4, 1, 0), (5, 2, 2), (3, 1, 1)])
def test_factor_basis_orthogonal_and_constrained(degree, m0, m1):
    coeffs, norms = ea.univariate_factor_basis(degree, m0, m1)
    assert len(coeffs) == degree + 1 - m0 - m1
    for k, f in enumerate(coeffs):
        # exact squared norm matches the reported one
        assert _uni_inner(f, f) == norms[k]
        # vanishing to order m0 at x=0 means the low coefficients are zero
        assert all(f[i] == 0 for i in range(m0))
        poly = [Q(c) for c in f]
        for _ in range(m1):
            assert sum(poly) == 0  # value at x=1
            poly = [Q(i) * poly[i] for i in range(len(poly))]  # derivative grid
        for l in range(k):
            assert _uni_inner(f, coeffs[l]) == 0


def test_factor_basis_degree_too_low():
    # degree 1 with orders (1, 1) is exactly x(1-x)-free: zero-dimensional
    coeffs, norms = ea.univariate_factor_basis(1, 1, 1)
    assert coeffs == () and norms == ()
    with pytest.raises(ea.DegreeTooLow):
        ea.univariate_factor_basis(0, 1, 1)


# --- field spaces ----------------------------------------------------------


def test_build_space_dimension_oracle():
    # (degree+1-m0-m1)^3 per component
    assert ea.build_space("scalar", 2, "none", 1).dim == 27
    assert ea.build_space("scalar", 2, "X0", 1).dim == 2 * 3 * 3
    assert ea.build_space("vector", 2, "none", 1).dim == 3 * 27
    assert ea.build_space("symmetric-tensor", 2, "none", 1).dim == 6 * 27
    # too low a degree on a constrained axis empties the space, not an error
    assert ea.build_space("vector", 1, "all", 1).dim == 0


def test_build_space_rejections():
    with pytest.raises(ValueError):
        ea.build_space("spinor", 2, "none", 1)
    with pytest.raises(ea.DegreeTooLow):
        ea.build_space("vector", -1, "none", 1)


def test_build_space_fields_vanish_on_faces():
    bc = ea.BoundarySelection.parse("X0,Z1")
    space = ea.build_space("vector", 3, bc, 1)
    assert space.dim == 3 * (3 * 4 * 3)
    for f in space.fields:
        assert ea.vanishes_on_faces(f, bc)
    const = PolyVecField([Poly3.constant(1), Poly3.zero(), Poly3.zero()])
    assert not ea.vanishes_on_faces(const, bc)


def test_build_space_gram_is_diagonal_exact():
    space = ea.build_space("scalar", 2, "X0", 1)
    fields = space.fields
    for i, f in enumerate(fields):
        for j, g in enumerate(fields):
            prod = ea._box_integral(f * g)
            if i == j:
                assert prod == space.gram_diag[i]
            else:
                assert prod == 0


def test_generator_space_degree_bump():
    # base degree 3, second-order vanishing on both X faces: the boundary
    # factor x^2(1-x)^2 alone has degree 4, so the x-axis bound is raised.
    bc = ea.BoundarySelection.parse("X0,X1")
    space = ea._generator_space("symmetric-tensor", 3, bc, 2)
    assert space.counts == (1, 4, 4)
    assert space.dim == 6 * 1 * 4 * 4
    for f in space.fields:
        assert ea.vanishes_on_faces(f, bc, kind="symmetric-tensor")
    # without the bump the same request is empty
    assert ea.build_space("symmetric-tensor", 3, bc, 2).dim == 0


# --- face restrictions -------------------------------------------------------


def test_face_restriction_values():
    x = Poly3.variable(0)
    y = Poly3.variable(1)
    p = x * x * y + y
    at0 = ea._face_restriction(p, 0, 0)
    at1 = ea._face_restriction(p, 0, 1)
    assert (at0 - y).is_zero()
    assert (at1 - y.scale(2)).is_zero()


# --- rigid motions -----------------------------------------------------------


def test_rigid_motion_basis_kernel_and_gram():
    rm = ea.rigid_motion_basis()
    assert len(rm.fields) == 6
    for f in rm.fields:
        assert pc.sym_grad(f).is_zero()
    G = rm.exact_gram()
    M = np.array([[float(q) for q in row] for row in G])
    assert np.allclose(M, M.T)
    assert np.linalg.matrix_rank(M) == 6
    assert np.all(np.linalg.eigvalsh(M) > 0)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_rigid_motion_coordinates_reconstruct_exactly(degree):
    space = ea.build_space("vector", degree, "none", 1)
    cols = ea.rigid_motion_coordinates(space)
    rm = ea.rigid_motion_basis()
    assert len(cols) == len(rm.fields)
    for col, target in zip(cols, rm.fields):
        assert all(q != 0 for q in col.values())
        acc = PolyVecField([Poly3.zero()] * 3)
        for i, q in col.items():
            acc = acc + space.fields[i].scale(q)
        assert (acc - target).is_zero()


@pytest.mark.parametrize(
    "kind, degree, gt",
    [
        ("vector", 0, "none"),
        ("vector", 2, "X0"),
        ("vector", 2, "X0,X1"),
        ("symmetric-tensor", 2, "none"),
    ],
)
def test_rigid_motion_coordinates_need_unconstrained_space(kind, degree, gt):
    space = ea.build_space(kind, degree, gt, 1)
    with pytest.raises(ValueError):
        ea.rigid_motion_coordinates(space)


def test_rm_projector_properties():
    # the L2-orthogonal projector onto the rigid motions inside the space
    space = ea.build_space("vector", 2, "none", 1)
    R = ea._rigid_motion_matrix(space)
    G = np.diag([float(q) for q in space.gram_diag])
    P = R @ np.linalg.solve(R.T @ G @ R, R.T @ G)
    assert np.linalg.matrix_rank(P) == 6
    assert np.max(np.abs(P @ P - P)) < 1e-10
    # G-self-adjoint: G P = P^T G
    assert np.max(np.abs(G @ P - P.T @ G)) < 1e-10
    # fixes the rigid motions
    for col in ea.rigid_motion_coordinates(space):
        v = np.zeros(space.dim)
        for i, q in col.items():
            v[i] = float(q)
        assert np.max(np.abs(P @ v - v)) < 1e-10


# --- exact potentials -------------------------------------------------------


def _random_vector_field(rng, degree):
    comps = []
    for _ in range(3):
        terms = {}
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                for c in range(degree + 1 - a - b):
                    terms[(a, b, c)] = Q(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
        comps.append(Poly3(terms))
    return PolyVecField(comps)


def test_potential_recovers_strain_exactly():
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = _random_vector_field(rng, 3)
        S = pc.sym_grad(u)
        v = ea.saint_venant_potential(S)
        assert (pc.sym_grad(v) - S).is_zero()
        # u and v differ by a rigid motion
        assert pc.sym_grad(u - v).is_zero()


def test_potential_known_example():
    # sym_grad of u = (x^2 y, 0, 0)
    x = Poly3.variable(0)
    y = Poly3.variable(1)
    u = PolyVecField([x * x * y, Poly3.zero(), Poly3.zero()])
    S = pc.sym_grad(u)
    v = ea.saint_venant_potential(S)
    assert (pc.sym_grad(v) - S).is_zero()


def test_potential_rejects_incompatible_field():
    # S = y^2 E11 violates the compatibility relation d^2 S11 / dy^2 = 0
    y = Poly3.variable(1)
    entries = [Poly3.zero() for _ in range(9)]
    entries[0] = y * y
    S = PolyMatField(entries)
    with pytest.raises(ea.NotCompatible):
        ea.saint_venant_potential(S)


def test_potential_rejects_nonsymmetric_field():
    entries = [Poly3.zero() for _ in range(9)]
    entries[1] = Poly3.constant(1)  # strictly upper entry only
    S = PolyMatField(entries)
    with pytest.raises(ea.NotCompatible):
        ea.saint_venant_potential(S)


# --- face-compatible combinations -------------------------------------------


def test_face_compatible_passthrough_without_faces():
    x = Poly3.variable(0)
    u = PolyVecField([x * x, Poly3.zero(), Poly3.zero()])
    out = ea._face_compatible_combinations([u], ea.BoundarySelection.parse("none"))
    assert out == [u]


def test_face_compatible_uses_rigid_motion_correction():
    # u = (1 + x, 0, 0) fails on the face x=0, but u - e0 vanishes there.
    x = Poly3.variable(0)
    one = Poly3.constant(1)
    u = PolyVecField([one + x, Poly3.zero(), Poly3.zero()])
    bc = ea.BoundarySelection.parse("X0")
    out = ea._face_compatible_combinations([u], bc)
    assert len(out) == 1
    combo = out[0]
    assert ea.vanishes_on_faces(combo, bc)
    # the combination still carries the strain of u (up to sign/scale)
    assert not pc.sym_grad(combo).is_zero()


def test_face_compatible_rejects_when_no_correction_exists():
    # u = (x^2, 0, 0) vanishes at x=0 but not x=1, and no rigid motion
    # vanishes on a whole face, so no combination works on {X0, X1}.
    x = Poly3.variable(0)
    u = PolyVecField([x * x, Poly3.zero(), Poly3.zero()])
    bc = ea.BoundarySelection.parse("X0,X1")
    out = ea._face_compatible_combinations([u], bc)
    assert out == []


@pytest.mark.parametrize("axis", range(3))
def test_face_compatible_combinations_on_every_face(axis):
    # u = (1 + t) e_axis, t the axis variable: u - e_axis vanishes on
    # {t = 0}, u - 2 e_axis on {t = 1}, and nothing on both
    comps = [Poly3.zero()] * 3
    comps[axis] = Poly3.constant(1) + Poly3.variable(axis)
    u = PolyVecField(comps)
    for face in ea.FACE_NAMES[2 * axis : 2 * axis + 2]:
        bc = ea.BoundarySelection.parse(face)
        (combo,) = ea._face_compatible_combinations([u], bc)
        assert ea.vanishes_on_faces(combo, bc)
        assert not pc.sym_grad(combo).is_zero()
    both = ea.BoundarySelection.parse(ea.FACE_NAMES[2 * axis : 2 * axis + 2])
    assert ea._face_compatible_combinations([u], both) == []


def test_face_trace_guard_is_an_assembly_error():
    # the trace on {x = 1} sums the powers of x: 2^61 (1 + x) sums to 2^62
    big = Poly3.constant(2**61)
    u = PolyVecField([big + big * Poly3.variable(0), Poly3.zero(), Poly3.zero()])
    with pytest.raises(ea.AssemblyError, match="exceed 62 bits"):
        ea._face_compatible_combinations([u], ea.BoundarySelection.parse("X1"))


def test_face_compatible_reconstruction_failure_is_assembly_error(monkeypatch):
    # u's trace on x=0 equals that of the translation e0, so the selection
    # must lift a dependency; with reconstruction disabled no prime succeeds.
    monkeypatch.setattr(exactlin, "rat_reconstruct", lambda a, m: None)
    x = Poly3.variable(0)
    u = PolyVecField([Poly3.constant(1) + x, Poly3.zero(), Poly3.zero()])
    with pytest.raises(ea.AssemblyError):
        ea._face_compatible_combinations([u], ea.BoundarySelection.parse("X0"))


def test_face_compatible_combination_without_a_potential_is_rejected(monkeypatch):
    # a fake solve whose only combination, of candidates 1 and 2, weighs
    # rigid motions alone (candidate 0 is the one potential)
    x = Poly3.variable(0)
    u = PolyVecField([x * x, Poly3.zero(), Poly3.zero()])
    bc = ea.BoundarySelection.parse("X0")
    monkeypatch.setattr(ea, "vanishes_on_faces", lambda field, bc: True)
    monkeypatch.setattr(
        ea, "_select_exact", lambda nums, dens, flags: ([0, 1], {2: {1: Q(1)}}, 1)
    )
    with pytest.raises(ea.AssemblyError, match="rigid motion"):
        ea._face_compatible_combinations([u], bc)
    # weight on the potential, as a key or as the expanded row, passes
    for exps in ({2: {0: Q(1), 1: Q(1)}}, {0: {}}):
        monkeypatch.setattr(
            ea, "_select_exact", lambda nums, dens, flags, e=exps: ([1], e, 1)
        )
        assert len(ea._face_compatible_combinations([u], bc)) == 1


# --- float frames -------------------------------------------------------------


def _longdouble_coords(coord_dicts, width):
    """Exact coordinate dictionaries as rows of a longdouble matrix, each
    entry the correctly rounded quotient of its numerator and denominator:
    the oracle for the integer-row conversion."""
    X = np.zeros((len(coord_dicts), width), dtype=np.longdouble)
    for i, coords in enumerate(coord_dicts):
        for j, q in coords.items():
            X[i, j] = np.longdouble(q.numerator) / np.longdouble(q.denominator)
    return X


def test_legendre_frame_is_orthonormal():
    nvar = 7
    W = ea._legendre_frame(nvar)
    # W^T W must reproduce the exact monomial moment matrix 1/(a+b+1)
    M = np.array(
        [[1.0 / (a + b + 1) for b in range(nvar)] for a in range(nvar)],
        dtype=np.longdouble,
    )
    err = np.max(np.abs(W.T @ W - M))
    assert float(err) < 1e-16


def test_legendre_frame_matches_closed_form_legendre_coefficients():
    # Ltilde_k(x) = sum_j (-1)^(k+j) C(k, j) C(k+j, j) x^j, squared norm
    # 1/(2k+1); each entry rounded once from its exact value
    for nvar in range(1, 11):
        want = np.zeros((nvar, nvar), dtype=np.longdouble)
        for k in range(nvar):
            for a in range(nvar):
                t = (2 * k + 1) * sum(
                    Fraction((-1) ** (k + j) * math.comb(k, j) * math.comb(k + j, j))
                    / (a + j + 1)
                    for j in range(k + 1)
                )
                want[k, a] = np.longdouble(t.numerator) / np.longdouble(t.denominator)
            want[k] /= np.sqrt(np.longdouble(2 * k + 1))
        assert np.array_equal(ea._legendre_frame(nvar), want)


def test_float_gram_matches_exact_integrals():
    space = ea.build_space("vector", 2, "X0", 1)
    coords = [_exact_coords(f, "vector", 3) for f in space.fields]
    X = _longdouble_coords(coords, 3 * 3**3)
    G = ea._float_gram(ea._orthoframe_rows(X, 3, 3, ea._KIND_WEIGHTS["vector"]))
    exact = np.diag([float(q) for q in space.gram_diag])
    assert np.max(np.abs(G - exact)) < 1e-14


def _dense_frame_rows(kind, nums, dens, nvar):
    """One-shot reference for `_frame_rows`: the whole CSR matrix made
    dense, then longdouble quotients, then one `_orthoframe_rows`."""
    X = nums.toarray().astype(np.longdouble)
    X /= dens.astype(np.longdouble)[:, None]
    ncomp = ea._KIND_COMPONENTS[kind]
    return ea._orthoframe_rows(X, ncomp, nvar, ea._KIND_WEIGHTS[kind])


def _assert_frame_path_is_one_shot(kind, nums, dens, nvar, gram=None):
    """`_frame_rows`, `_l2_norms` and `_float_gram` (or the given Gram)
    equal, bit for bit, the one-shot dense reference."""
    B = _dense_frame_rows(kind, nums, dens, nvar)
    frame = ea._frame_rows(kind, nums, dens, nvar)
    assert np.array_equal(frame, B)
    assert np.array_equal(
        ea._l2_norms(kind, nums, dens, nvar), np.linalg.norm(B, axis=1)
    )
    if gram is None:
        gram = ea._float_gram(frame)
    G = B @ B.T
    assert np.array_equal(gram, 0.5 * (G + G.T))


@pytest.mark.parametrize("kind", sorted(ea._KIND_COMPONENTS))
@pytest.mark.parametrize("nrows", [0, 1, 63, 64, 65, 129])
def test_frame_rows_match_one_shot_dense_rows_at_block_edges(kind, nrows):
    assert ea._NORM_BLOCK == 64
    nvar = 3
    width = ea._KIND_COMPONENTS[kind] * nvar**3
    rng = np.random.default_rng(nrows)
    # up to 62 bits, so a float64 quotient would round differently
    nums = rng.integers(-(2**62), 2**62, size=(nrows, width))
    nums[rng.random((nrows, width)) < 0.7] = 0
    dens = rng.integers(1, 2**62, size=nrows)
    _assert_frame_path_is_one_shot(kind, sparse.csr_matrix(nums), dens, nvar)


def test_float_grams_and_korn_grams_match_one_shot_dense_rows(monkeypatch):
    ec = ea.build_complex(4, "all")
    for level, G in zip(ec.levels, ec.float_grams()):
        _assert_frame_path_is_one_shot(
            level.kind, level.nums, level.dens, level.nvar, G
        )
    seen = []
    real = ea._float_gram
    monkeypatch.setattr(ea, "_float_gram", lambda B: seen.append(real(B)) or seen[-1])
    ea.korn_constant(4, "none")
    nvar = 5
    rows = ea._space_rows(ea.build_space("vector", 4, "none", 1), nvar)
    ones = np.ones(rows.shape[0], dtype=np.int64)
    assert len(seen) == 2
    for G, name in zip(seen, ("Grad", "sym_grad")):
        nums, dens = ea._images(rows, ones, name, "vector", nvar, nvar)
        _assert_frame_path_is_one_shot(ea._OPERATORS[name], nums, dens, nvar, G)


# --- norm exponents -------------------------------------------------------------


def _oracle_exponents(kind, nums, dens, nvar):
    """round(log2 ||f||) from the extended-precision norms of the CSR rows."""
    norms = ea._l2_norms(kind, nums, dens, nvar)
    return [int(round(math.log2(x))) if x > 0 else 0 for x in norms]


def _normalization_inputs(monkeypatch, p, gt):
    """The rows whose norms a cold degree-p assembly takes: every input of
    `_normalized_level` for p >= 4; below that, where the chain cannot be
    built, the degree-p V0 rows and their Grad and sym_grad images."""
    if p < 4:
        nvar = p + 1
        rows = ea._space_rows(ea.build_space("vector", p, gt, 1), nvar)
        ones = np.ones(rows.shape[0], dtype=np.int64)
        inputs = [("vector", rows, ones, nvar)]
        for name in ("Grad", "sym_grad"):
            nums, dens = ea._images(rows, ones, name, "vector", nvar, nvar)
            inputs.append((ea._OPERATORS[name], nums, dens, nvar))
        return inputs
    inputs = []
    real = ea._normalized_level

    def spy(kind, nums, dens, provenance, nvar):
        inputs.append((kind, nums.copy(), dens.copy(), nvar))
        return real(kind, nums, dens, provenance, nvar)

    monkeypatch.setattr(ea, "_normalized_level", spy)
    ea.build_complex(p, gt, use_cache=False)
    monkeypatch.undo()
    return inputs


@pytest.mark.parametrize("gt", BOUNDARY_CONFIGS)
@pytest.mark.parametrize("p", range(1, 6))
def test_norm_exponents_match_extended_precision(monkeypatch, p, gt):
    inputs = _normalization_inputs(monkeypatch, p, gt)
    assert len(inputs) >= 3
    for kind, nums, dens, nvar in inputs:
        ks = ea._norm_exponents(kind, nums, dens, nvar)
        assert ks.tolist() == _oracle_exponents(kind, nums, dens, nvar)


def test_norm_exponent_ties_take_the_fallback(monkeypatch):
    # constant symmetric tensors with off-diagonal entry 1 or 4 have squared
    # norms 2 and 32 (an off-diagonal pair weighs 2), so ||f|| = 2^(k + 1/2)
    # lies on a cell boundary; log2 of the extended-precision norm rounds
    # to 1 and to 2 (half to even), where the float64 cell of s = 32 is 3
    nvar = 3
    n = nvar**3
    nums = np.zeros((4, 6 * n), dtype=np.int64)
    nums[0, 3 * n] = 1
    nums[1, 0] = 3  # squared norm 9, far from a boundary
    nums[2, 4 * n] = 4
    nums[3, 5 * n + 1] = 5  # 5 z / 7, squared norm 50 / 147
    dens = np.array([1, 1, 1, 7], dtype=np.int64)
    rows = sparse.csr_matrix(nums)
    real = ea._l2_norms
    fallback = []

    def spy(kind, nums, dens, nvar):
        fallback.extend(map(tuple, nums.toarray().tolist()))
        return real(kind, nums, dens, nvar)

    monkeypatch.setattr(ea, "_l2_norms", spy)
    ks = ea._norm_exponents("symmetric-tensor", rows, dens, nvar)
    assert ks.tolist() == [1, 2, 2, -1]
    assert fallback == [tuple(nums[0]), tuple(nums[2])]
    monkeypatch.undo()
    assert ks.tolist() == _oracle_exponents("symmetric-tensor", rows, dens, nvar)


@st.composite
def _sparse_rows(draw):
    """Integer rows for `_norm_exponents` on a random grid: a density from
    1 % to 100 %, numerators and denominators of random size up to 62 bits
    (denominators of 1 on some rows), a few all-zero and single-nonzero
    rows, and from no rows to more than one `_NORM_BLOCK`."""
    kind = draw(st.sampled_from(["scalar", "vector", "symmetric-tensor"]))
    nvar = draw(st.integers(1, 5))
    nrows = draw(st.sampled_from([0, 1, 7, ea._NORM_BLOCK, ea._NORM_BLOCK + 9]))
    density = draw(st.sampled_from([0.01, 0.04, 0.1, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = ea._KIND_COMPONENTS[kind] * nvar**3
    bits = rng.integers(1, 63, size=(nrows, 1))
    nums = rng.integers(-(2**62), 2**62, size=(nrows, width)) >> (62 - bits)
    nums[rng.random((nrows, width)) >= density] = 0
    special = rng.permutation(nrows)[: draw(st.integers(0, 4))]
    nums[special] = 0
    for i in special[::2]:
        nums[i, rng.integers(width)] = rng.integers(1, 2**40)
    dens = rng.integers(2**61, 2**62, size=nrows) >> rng.integers(0, 62, nrows)
    dens[rng.random(nrows) < 0.3] = 1
    return kind, nums, dens, nvar


@settings(max_examples=100, deadline=None)
@given(_sparse_rows())
def test_norm_exponents_match_extended_precision_on_sparse_rows(case):
    kind, nums, dens, nvar = case
    nums = sparse.csr_matrix(nums)
    ks = ea._norm_exponents(kind, nums, dens, nvar)
    assert ks.tolist() == _oracle_exponents(kind, nums, dens, nvar)


def test_kron_frame_is_nonnegative_with_monomial_norms():
    # the norm bound takes |K| = K and the column norms of K from mu
    for nvar in range(1, 11):
        assert (ea._legendre_frame(nvar) >= 0).all()
        KT, mu = ea._kron_frame(nvar)
        assert (KT >= 0).all()
        a, b, c = np.unravel_index(np.arange(nvar**3), (nvar,) * 3)
        exact = 1 / np.sqrt((2 * a + 1) * (2 * b + 1) * (2 * c + 1.0))
        assert np.allclose(mu, exact, rtol=1e-15, atol=0)
        assert np.allclose(np.sqrt((KT * KT).sum(axis=1)), mu, rtol=1e-14, atol=0)


def _shifted_legendre(k):
    """Integer coefficients of the Legendre polynomial of degree k shifted
    to [0, 1]."""
    return [
        (-1) ** (k + j) * math.comb(k, j) * math.comb(k + j, j) for j in range(k + 1)
    ]


def _centred_power(k):
    """Integer coefficients of (2x - 1)^k = 2^k (x - 1/2)^k."""
    return [math.comb(k, j) * 2**j * (-1) ** (k - j) for j in range(k + 1)]


@st.composite
def _ill_conditioned_rows(draw):
    """Integer rows for `_norm_bounds` whose components are expanded
    products of one factor per axis, (x - 1/2)^k or a shifted Legendre
    polynomial, times up to 2^16, over random denominators: large monomial
    coefficients that cancel to a small L2 norm, by a factor of up to about
    10^14 at nvar 8.  Some components are zero."""
    kind = draw(st.sampled_from(["scalar", "vector", "symmetric-tensor"]))
    nvar = draw(st.integers(1, 8))
    n = nvar**3
    ncomp = ea._KIND_COMPONENTS[kind]
    nrows = draw(st.integers(1, 6))
    factor = st.sampled_from([_centred_power, _shifted_legendre])
    degree = st.integers(0, nvar - 1)
    nums = np.zeros((nrows, ncomp * n), dtype=np.int64)
    for i in range(nrows):
        for comp in range(ncomp):
            if draw(st.integers(0, 3)) == 0:
                continue
            fx, fy, fz = (np.array(draw(factor)(draw(degree))) for _ in range(3))
            block = np.zeros((nvar,) * 3, dtype=np.int64)
            block[: len(fx), : len(fy), : len(fz)] = np.einsum("a,b,c->abc", fx, fy, fz)
            nums[i, comp * n : (comp + 1) * n] = block.ravel() * draw(
                st.integers(-(2**16), 2**16)
            )
    dens = np.array(
        draw(st.lists(st.integers(1, 2**62 - 1), min_size=nrows, max_size=nrows)),
        dtype=np.int64,
    )
    return kind, nums, dens, nvar


def _entrywise_bound(kind, nums, dens, nvar):
    """The error bound of `_norm_bounds` before Cauchy-Schwarz and the
    monomial norms: sum w a (2 c |y| + (c^2 + 3 c_o) a) + (2 m + 4096) u s
    over the frame coordinates, with y = K x and a = |K| |x| formed as
    dense products."""
    ncomp, n = ea._KIND_COMPONENTS[kind], nvar**3
    u, v = 2.0**-53, float(np.finfo(np.longdouble).eps) / 2
    c = 2 * ((n + 4) * u + 14 * v)
    c_o = 2 * (3 * nvar + 20) * v
    KT, _ = ea._kron_frame(nvar)
    X = (nums / dens[:, None]).reshape(-1, n)
    Y, A = X @ KT, np.abs(X) @ np.abs(KT)
    w = np.array(ea._KIND_WEIGHTS[kind], dtype=np.float64)
    s = ((Y * Y).sum(axis=1).reshape(-1, ncomp) * w).sum(axis=1)
    bound = (A * (2 * c * np.abs(Y) + (c * c + 3 * c_o) * A)).sum(axis=1)
    return (bound.reshape(-1, ncomp) * w).sum(axis=1) + (2 * ncomp * n + 4096) * u * s


@settings(max_examples=150, deadline=None)
@given(_sparse_rows() | _ill_conditioned_rows())
def test_norm_bounds_hold_the_extended_precision_norms(case):
    kind, nums, dens, nvar = case
    rows = sparse.csr_matrix(nums)
    s, e = ea._norm_bounds(kind, rows, dens, nvar)
    norms = ea._l2_norms(kind, rows, dens, nvar)
    assert len(s) == len(e) == len(norms)
    for si, ei, norm in zip(s.tolist(), e.tolist(), norms.tolist()):
        square = Fraction(norm) ** 2
        assert Fraction(si) - Fraction(ei) <= square <= Fraction(si) + Fraction(ei)
    # the observed errors stay far below any of the bound's terms, so the
    # bound must also cover the entrywise worst case it was derived from
    assert np.all(e >= _entrywise_bound(kind, nums, dens, nvar))


# rows of one cold assembly that `_norm_exponents` handed to `_l2_norms`
# when it formed |K| |x| in a second frame product, per selection in
# BOUNDARY_CONFIGS order; the bound through the monomial norms may be
# looser, but by at most 10 % more fallback rows
_FALLBACK_ROWS = {4: (12, 3, 0, 0), 5: (54, 32, 35, 15)}


@pytest.mark.parametrize("p", sorted(_FALLBACK_ROWS))
def test_norm_fallback_rows_stay_within_ten_percent(monkeypatch, p):
    real = ea._l2_norms
    rows = []

    def spy(kind, nums, dens, nvar):
        rows.append(nums.shape[0])
        return real(kind, nums, dens, nvar)

    monkeypatch.setattr(ea, "_l2_norms", spy)
    for gt, before in zip(BOUNDARY_CONFIGS, _FALLBACK_ROWS[p]):
        rows.clear()
        ea.build_complex(p, gt, use_cache=False)
        assert sum(rows) <= -(-11 * before // 10), gt


# --- assembled complexes ------------------------------------------------------


def test_complex_needs_degree_four():
    with pytest.raises(ea.DegreeTooLow):
        ea.build_complex(3, "none")


def test_complex_property_exact(complexes_p4):
    for gt in BOUNDARY_CONFIGS:
        # a Python bool, as the JSON of the `complex` report needs it
        assert complexes_p4[gt].verify_complex_property() is True


def test_complex_float_composition_small(complexes_p4):
    for gt in BOUNDARY_CONFIGS:
        cx = complexes_p4[gt].finite_complex()
        assert max(cx.composition_norms()) <= 1e-12


def test_kernel_of_first_operator(complexes_p4):
    # rigid motions are exactly the kernel without boundary conditions and
    # are excluded by any nonempty selection
    assert complexes_p4["none"].kernel_dims[0] == 6
    for gt in ("X0", "X0,X1", "all"):
        assert complexes_p4[gt].kernel_dims[0] == 0


def test_harmonic_dims_level01(complexes_p4):
    assert complexes_p4["none"].harmonic_dims[0] == 6
    assert complexes_p4["none"].harmonic_dims[1] == 0
    assert complexes_p4["X0"].harmonic_dims[:2] == (0, 0)
    assert complexes_p4["X0,X1"].harmonic_dims[:2] == (0, 6)
    assert complexes_p4["all"].harmonic_dims[:2] == (0, 0)


def test_level1_harmonic_dim_stable_in_degree(complexes_p4, complexes_p5):
    for gt in BOUNDARY_CONFIGS:
        assert (
            complexes_p4[gt].harmonic_dims[1] == complexes_p5[gt].harmonic_dims[1]
        )


def test_primes_used_per_level_at_p5(complexes_p5):
    # one prime per selection, except level 0 of X0, whose first lift
    # fails, and the levels of all, whose candidate rows are all structural
    # pivots
    used = {gt: [s["primes_used"] for s in ec.stats] for gt, ec in complexes_p5.items()}
    assert used == {
        "none": [1, 1, 1],
        "X0": [2, 1, 1],
        "X0,X1": [1, 1, 1],
        "all": [0, 0, 0],
    }


def test_enlargement_bookkeeping(complexes_p4):
    for gt in BOUNDARY_CONFIGS:
        meta = complexes_p4[gt].meta
        assert (
            meta["potentials_added"] + meta["potentials_rejected"]
            == meta["first_pass_level1_overflow"]
        )
    # without boundary conditions every potential is admissible
    assert complexes_p4["none"].meta["potentials_rejected"] == 0
    # two opposite faces admit none of them
    assert complexes_p4["X0,X1"].meta["potentials_added"] == 0


_CHAIN_OPS = (pc.sym_grad, pc.rotrot_t, pc.Div)


def test_operator_columns_reconstruct_images_exactly(complexes_p4):
    # every column of all three operators; none and X0 carry adjoined V0
    # fields (6 and 2), whose A0 columns are expansions over V1 generators
    for gt in ("none", "X0", "X0,X1"):
        ec = complexes_p4[gt]
        for k, (op_fun, op) in enumerate(zip(_CHAIN_OPS, ec.ops)):
            prev, level = ec.levels[k], ec.levels[k + 1]
            assert op.nrows == level.dim and op.ncols == prev.dim
            for j in range(prev.dim):
                acc = op_fun(prev.fields[j])
                for r, qv in op.column(j).items():
                    acc = acc - level.fields[r].scale(qv)
                assert acc.is_zero(), (gt, k, j)


@pytest.mark.parametrize("gt", BOUNDARY_CONFIGS)
def test_level_coords_are_the_coordinates_of_the_fields(complexes_p4, gt):
    for level in complexes_p4[gt].levels:
        assert len(level.coords) == level.dim
        for field, coords in zip(level.fields, level.coords):
            assert _exact_coords(field, level.kind, level.nvar) == coords


# writing to an entry that is not stored would change the sparsity structure;
# scipy warns of that before the read-only arrays refuse it
@pytest.mark.filterwarnings("ignore::scipy.sparse.SparseEfficiencyWarning")
def test_levels_hold_integer_rows_and_build_fields_lazily():
    ec = ea.build_complex(4, "all", use_cache=False)
    grams = ec.float_grams()
    for level in ec.levels:
        assert "coords" not in level.__dict__ and "fields" not in level.__dict__
        assert level.dim == level.nums.shape[0] == len(level.dens) > 0
        with pytest.raises(ValueError):
            level.nums[0, 0] = 1
        with pytest.raises(ValueError):
            level.dens[0] = 1
    for level, G in zip(ec.levels, grams):
        X = _longdouble_coords(level.coords, level.nums.shape[1])
        ncomp = ea._KIND_COMPONENTS[level.kind]
        B = ea._orthoframe_rows(X, ncomp, level.nvar, ea._KIND_WEIGHTS[level.kind])
        ref = ea._float_gram(B)
        assert np.array_equal(G, ref)
        for i in (0, level.dim - 1):
            assert (level.field(i) - level.fields[i]).is_zero()


_OPERATOR_CASES = [
    pytest.param(name, in_kind, op_fun, id=name)
    for name, in_kind, op_fun in (
        ("Grad", "vector", pc.Grad),
        ("sym_grad", "vector", pc.sym_grad),
        ("rotrot_t", "symmetric-tensor", pc.rotrot_t),
        ("Div", "symmetric-tensor", pc.Div),
    )
]


def _random_fields(kind, degree, seed, count=3):
    rng = random.Random(seed)
    if kind == "vector":
        return [pc.random_vec_field(rng, degree) for _ in range(count)]
    return [pc.sym(pc.random_mat_field(rng, degree)) for _ in range(count)]


def _rows(fields, kind, nvar):
    coords = [_exact_coords(f, kind, nvar) for f in fields]
    nums, dens = _integer_rows(coords, ea._KIND_COMPONENTS[kind] * nvar**3)
    return nums, np.array(dens, dtype=np.int64)


def _as_coords(nums, dens):
    return [
        {int(j): Q(int(row[j]), int(den)) for j in np.flatnonzero(row)}
        for row, den in zip(nums, dens)
    ]


@pytest.mark.parametrize("nvar", [5, 6])
@pytest.mark.parametrize("name,in_kind,op_fun", _OPERATOR_CASES)
def test_operator_matrices_agree_with_poly_calculus(name, in_kind, op_fun, nvar):
    out_kind = ea._OPERATORS[name]
    D, den, _ = ea._operator_matrix(name, in_kind, nvar)
    assert den == (2 if name == "sym_grad" else 1)
    assert D.format == "csr" and D.dtype == np.int64
    with pytest.raises(ValueError):
        D.data[0] = 1
    fields = _random_fields(in_kind, nvar - 1, seed=nvar)
    nums, dens = ea._images(*_rows(fields, in_kind, nvar), name, in_kind, nvar, nvar)
    expected = [_exact_coords(op_fun(f), out_kind, nvar) for f in fields]
    assert _as_coords(nums.toarray(), dens) == expected
    # each image row is in least-denominator form, as _integer_rows gives it
    ref_nums, ref_dens = _integer_rows(expected, nums.shape[1])
    assert np.array_equal(nums.toarray(), ref_nums.toarray()) and list(dens) == ref_dens


def test_operator_matrix_from_a_larger_grid():
    fields = _random_fields("vector", 4, seed=11)
    nums, dens = ea._images(*_rows(fields, "vector", 7), "sym_grad", "vector", 7, 5)
    expected = [
        _exact_coords(pc.sym_grad(f), "symmetric-tensor", 5) for f in fields
    ]
    assert nums.shape[1] == 6 * 5**3
    assert _as_coords(nums.toarray(), dens) == expected


def test_image_outside_the_grid_is_an_assembly_error():
    x = Poly3.variable(0)
    high = PolyVecField([x * x * x * x * x * x, Poly3.zero(), Poly3.zero()])
    rows = _rows([high], "vector", 7)
    with pytest.raises(ea.AssemblyError, match="ambient degree bound 4"):
        ea._images(*rows, "sym_grad", "vector", 7, 5)
    # the same path through the enlargement: an adjoined V0 field of too
    # high degree
    first = ea._assemble_chain(4, ea.BoundarySelection.parse("all"))
    with pytest.raises(ea.AssemblyError, match="ambient degree bound 4"):
        ea._adjoin_potentials(first, [high])


def test_adjoined_image_outside_the_generator_span_is_an_assembly_error():
    # a V0 basis field's image lies in R(A0), spanned by V1's image rows,
    # so over V1's generator rows alone it is kept, not expanded
    first = ea._assemble_chain(4, ea.BoundarySelection.parse("all"))
    with pytest.raises(ea.AssemblyError, match="outside the span"):
        ea._adjoin_potentials(first, [first.levels[0].field(0)])


def test_adjoined_fields_with_dependent_images_are_an_assembly_error():
    # a translation has a zero image: it expands, but adds nothing to rank A0
    first = ea._assemble_chain(4, ea.BoundarySelection.parse("all"))
    translation = ea.rigid_motion_basis().fields[0]
    with pytest.raises(ea.AssemblyError, match="dependent images"):
        ea._adjoin_potentials(first, [translation])


@pytest.mark.parametrize("gt", BOUNDARY_CONFIGS)
def test_build_complex_assembles_each_level_once(monkeypatch, gt):
    calls = []
    assemble_level = ea._assemble_level

    def spy(*args):
        calls.append(args[1])
        return assemble_level(*args)

    monkeypatch.setattr(ea, "_assemble_level", spy)
    ea.build_complex(4, gt, use_cache=False)
    assert calls == ["sym_grad", "rotrot_t", "Div"]


@pytest.mark.parametrize("gt", ["none", "X0"])
def test_adjoining_potentials_enlarges_only_level_0(complexes_p4, gt):
    first = ea._assemble_chain(4, ea.BoundarySelection.parse(gt))
    ec = complexes_p4[gt]
    added = ec.meta["potentials_added"]
    assert added > 0
    for old, new in zip(first.levels[1:], ec.levels[1:]):
        assert np.array_equal(old.nums.toarray(), new.nums.toarray())
        assert np.array_equal(old.dens, new.dens)
        assert (old.kind, old.provenance, old.nvar) == (
            new.kind,
            new.provenance,
            new.nvar,
        )
    for old, new in zip(first.ops[1:], ec.ops[1:]):
        assert np.array_equal(old.nums.toarray(), new.nums.toarray())
        assert np.array_equal(old.dens, new.dens)
    assert ec.stats[1:] == first.stats[1:]
    # level 0 begins with the first-pass rows, re-embedded on a larger grid
    old0, new0 = first.levels[0], ec.levels[0]
    n0 = old0.dim
    assert new0.dim == n0 + added and new0.nvar == old0.nvar + 1
    inside = ea._grid_columns(3, old0.nvar, new0.nvar)
    assert np.array_equal(new0.nums[:n0][:, inside].toarray(), old0.nums.toarray())
    assert new0.nums[:n0].count_nonzero() == old0.nums.count_nonzero()
    assert np.array_equal(new0.dens[:n0], old0.dens)
    for i in (0, n0 - 1):
        assert (new0.field(i) - old0.field(i)).is_zero()
    # A0 keeps its first-pass columns; the new ones raise its rank by added
    a0, first_a0 = ec.ops[0], first.ops[0]
    assert a0.nrows == first_a0.nrows and a0.ncols == n0 + added
    assert np.array_equal(a0.nums[:, :n0].toarray(), first_a0.nums.toarray())
    assert np.array_equal(a0.dens[:n0], first_a0.dens)
    generators = {
        pos for pos, prov in enumerate(ec.levels[1].provenance) if prov[0] == "generator"
    }
    for j in range(n0, a0.ncols):
        col = a0.column(j)
        assert col and set(col) <= generators
    assert ec.ranks[0] == first.ranks[0] + added
    assert ec.stats[0]["adjoined_images"] == added
    assert ec.stats[0]["kept_images"] == first.stats[0]["kept_images"] + added


def test_image_product_guard_is_an_assembly_error():
    l1 = ea._operator_matrix("rotrot_t", "symmetric-tensor", 5)[2]
    nums = np.zeros((2, 6 * 5**3), dtype=np.int64)
    nums[1, 7] = (2**62 - 1) // l1 + 1  # max|nums| * L1 reaches 2^62
    dens = np.ones(2, dtype=np.int64)
    with pytest.raises(ea.AssemblyError, match="exceed 62 bits"):
        ea._images(sparse.csr_matrix(nums), dens, "rotrot_t", "symmetric-tensor", 5, 5)
    nums[1, 7] -= 1  # just below the bound the product runs
    ea._images(sparse.csr_matrix(nums), dens, "rotrot_t", "symmetric-tensor", 5, 5)


# --- exact operators ------------------------------------------------------------


def _operator(nrows, columns):
    """ExactOperator from columns given as {row: Fraction}."""
    terms = [[(r, q) for r, q in sorted(col.items()) if q] for col in columns]
    return ea._exact_operator(
        nrows, [0] * nrows, [-1] * len(columns), dict(enumerate(terms))
    )


def _compose(second, first):
    """Fraction-dict oracle of the columns of second o first."""
    out = []
    for col in first:
        acc = {}
        for k, q in col.items():
            for r, v in second[k].items():
                acc[r] = acc.get(r, 0) + v * q
        out.append({r: v for r, v in acc.items() if v})
    return out


@st.composite
def _wide_terms(draw):
    """(nrows, columns, row exponents ks), each column the row of a unit
    column or a list of terms (row, q).  A row's exponent is drawn from
    [-3, 3] or from [-61, 61], the exponents a unit column holds in 62
    bits; a unit column takes any row.  Terms sit on rows with |ks| <= 3,
    every q of a column a multiple of 1 / D, D and |numerator| up to 2^55,
    so the terms q 2^ks[row] are not over one denominator in general."""
    nrows = draw(st.integers(0, 5))
    # beyond 2^53 an int64 does not convert to float64 exactly
    size = st.integers(1, 5) | st.integers(2**53, 2**55) | st.integers(1, 2**55)
    nonzero = st.builds(lambda n, s: n * s, size, st.sampled_from((1, -1)))
    exponent = st.integers(-3, 3) | st.integers(-61, 61)
    ks = draw(st.lists(exponent, min_size=nrows, max_size=nrows))
    small = [r for r in range(nrows) if abs(ks[r]) <= 3]
    columns = []
    for _ in range(draw(st.integers(0, 5))):
        if nrows and draw(st.booleans()):
            columns.append(draw(st.integers(0, nrows - 1)))
            continue
        den = draw(size)
        rows = sorted(draw(st.sets(st.sampled_from(small)))) if small else []
        columns.append([(r, Fraction(draw(nonzero), den)) for r in rows])
    return nrows, columns, ks


@settings(max_examples=150, deadline=None)
@given(_wide_terms())
def test_exact_operator_columns_and_floats_match_fractions(case):
    nrows, columns, ks = case
    units = [c if isinstance(c, int) else -1 for c in columns]
    terms = {j: c for j, c in enumerate(columns) if not isinstance(c, int)}
    op = ea._exact_operator(nrows, ks, units, terms)
    assert (op.nrows, op.ncols) == (nrows, len(columns))
    assert op.nums.format == "csc" and op.nums.dtype == op.dens.dtype == np.int64
    ref = np.zeros((nrows, len(columns)))
    for j, c in enumerate(columns):
        col = (
            {c: Fraction(2) ** ks[c]}
            if isinstance(c, int)
            else {r: q * Fraction(2) ** ks[r] for r, q in c}
        )
        assert op.column(j) == col
        # lowest terms over one denominator
        lo, hi = op.nums.indptr[j : j + 2]
        assert math.gcd(int(op.dens[j]), *op.nums.data[lo:hi].tolist()) == 1
        for r, q in col.items():
            ref[r, j] = float(q)
    assert op.to_float().tobytes() == ref.tobytes()


_SMALL = st.sampled_from([Fraction(0)] * 3) | st.fractions(-20, 20, max_denominator=6)
_SCALES = st.sampled_from(
    [Fraction(s * a, b) for s in (1, -1) for a, b in ((1, 2), (2, 3), (3, 1))]
)


@st.composite
def _cancelling_pair(draw):
    """Columns of B = [X, X diag(c)] and A = [Y; -diag(c)^-1 Y], so that
    B A = 0 by cancellation between columns of B over unlike denominators;
    on half the draws one entry of A is perturbed."""
    n2, m, n0 = (draw(st.integers(1, 4)) for _ in range(3))
    X = [{r: draw(_SMALL) for r in range(n2)} for _ in range(m)]
    Y = [[draw(_SMALL) for _ in range(m)] for _ in range(n0)]
    c = [draw(_SCALES) for _ in range(m)]
    second = X + [{r: x * c[k] for r, x in col.items()} for k, col in enumerate(X)]
    first = [
        {k: y for k, y in enumerate(col)}
        | {m + k: -y / c[k] for k, y in enumerate(col)}
        for col in Y
    ]
    if not draw(st.booleans()):
        j, k = draw(st.integers(0, n0 - 1)), draw(st.integers(0, 2 * m - 1))
        first[j][k] += draw(st.fractions(-5, 5, max_denominator=4))
    return n2, second, 2 * m, first


@settings(max_examples=150, deadline=None)
@given(_cancelling_pair())
def test_exact_operator_composition_matches_fractions(case):
    n2, second, n1, first = case
    B, A = _operator(n2, second), _operator(n1, first)
    assert B.compose_is_zero(A) is not any(_compose(second, first))


def test_composition_guard_is_an_assembly_error():
    first = _operator(2, [{0: Fraction(3), 1: Fraction(-4)}])  # column L1 7
    with pytest.raises(ValueError, match="shape mismatch"):
        first.compose_is_zero(first)
    big = (2**62 - 1) // 7 + 1  # max|nums| * L1 reaches 2^62
    second = _operator(1, [{0: Fraction(big)}, {}])
    with pytest.raises(ea.AssemblyError, match="exceed 62 bits"):
        second.compose_is_zero(first)
    second = _operator(1, [{0: Fraction(big - 1)}, {}])  # just below: runs
    assert second.compose_is_zero(first) is False
    # over the lcm 12 of the denominators the bound scales the largest
    # numerator by 12 / 3: 4 m * 7 reaches 2^62
    m = (big + 3) // 4 | 1
    second = _operator(1, [{0: Fraction(1, 3)}, {0: Fraction(m, 4)}])
    with pytest.raises(ea.AssemblyError, match="exceed 62 bits"):
        second.compose_is_zero(first)
    # denominators whose lcm over the smallest is far beyond int64: an
    # error when both factors are nonzero, no scale built when one is zero
    dens = (3, 2**61 - 1, 2**61 - 3)
    second = _operator(1, [{0: Fraction(1, d)} for d in dens])
    nonzero = _operator(3, [{2: Fraction(1)}])
    with pytest.raises(ea.AssemblyError, match="exceed 62 bits"):
        second.compose_is_zero(nonzero)
    assert second.compose_is_zero(_operator(3, [{}, {}])) is True
    assert _operator(1, [{}, {}, {}]).compose_is_zero(nonzero) is True


def test_exact_operator_entries_beyond_62_bits_are_an_assembly_error():
    with pytest.raises(ea.AssemblyError, match="exceed 62 bits"):
        _operator(1, [{0: Fraction(2**62)}])
    with pytest.raises(ea.AssemblyError, match="exceed 62 bits"):
        ea._exact_operator(1, [3], [-1], {0: [(0, Fraction(2**59))]})
    # a unit column 2^k holds 2^|k| in its numerator or denominator
    for k in (62, -62):
        with pytest.raises(ea.AssemblyError, match="exceed 62 bits"):
            ea._exact_operator(2, [0, k], [0, 1], {})
        with pytest.raises(ea.AssemblyError, match="exceed 62 bits"):
            ea._exact_operator(2, [0, k], [1, -1], {1: [(0, Fraction(1))]})
    for k in (61, -61):
        op = ea._exact_operator(2, [0, k], [1, -1], {1: [(0, Fraction(1))]})
        assert [op.column(j) for j in range(2)] == [{1: Fraction(2) ** k}, {0: 1}]
    # the lcm of the denominators of one column
    with pytest.raises(ea.AssemblyError, match="exceed 62 bits"):
        _operator(2, [{0: Fraction(1, 2**31 + 11), 1: Fraction(1, 2**31 + 1)}])
    _operator(1, [{0: Fraction(2**62 - 1, 2**62 - 3)}])


def test_float_ranks_agree_with_exact_certificates(complexes_p4):
    for gt in BOUNDARY_CONFIGS:
        ec = complexes_p4[gt]
        cx = ec.finite_complex()
        for k in range(3):
            assert fa.rank_of(cx.op(k), cx.gram(k), cx.gram(k + 1)) == ec.ranks[k]


def test_complex_is_cached():
    assert ea.build_complex(4, "X0") is ea.build_complex(4, "X0")


# one warm-up assembly of each selection, then the CPU and wall time of
# three passes over the three selections
_CPU_PASSES = r"""
import time
from elacomplex import elasticity_assembly as ea

selections = ("X0", "X0,X1", "all")
for gt in selections:
    ea.build_complex(4, gt, use_cache=False)
start, cpu = time.perf_counter(), time.process_time()
for _ in range(3):
    for gt in selections:
        ea.build_complex(4, gt, use_cache=False)
print(time.process_time() - cpu, time.perf_counter() - start)
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two cores")
def test_exact_assembly_makes_no_blas_call():
    # between small multithreaded BLAS calls the idle OpenBLAS thread spins,
    # so a dense product in the exact stage shows as CPU time near twice the
    # wall time; the stage's products are sparse, and run on one thread
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", _CPU_PASSES],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    cpu, wall = map(float, out.stdout.split())
    assert cpu <= 1.2 * wall


# --- Korn constants -----------------------------------------------------------


def test_korn_constant_basics():
    rep = ea.korn_constant(2, "none")
    assert rep.constant >= 1.0
    assert rep.restricted
    rep_bc = ea.korn_constant(2, "X0")
    assert rep_bc.constant >= 1.0
    assert not rep_bc.restricted


def test_korn_constant_monotone_in_degree():
    values = [ea.korn_constant(p, "X0").constant for p in (2, 3, 4)]
    assert values[0] <= values[1] + 1e-9
    assert values[1] <= values[2] + 1e-9


def test_korn_degree_too_low():
    with pytest.raises(ea.DegreeTooLow):
        ea.korn_constant(0, "none")


def _korn_field_grams(p, gt):
    """K and M of the Korn quotient from the polynomial fields of the space:
    Grad and sym applied by poly_calculus, exact coordinates, longdouble
    quotients."""
    space = ea.build_space("vector", p, ea.BoundarySelection.parse(gt), 1)
    nvar = p + 1
    grads = [pc.Grad(f) for f in space.fields]
    grams = []
    for kind, tensors in (
        ("matrix", grads),
        ("symmetric-tensor", [pc.sym(S) for S in grads]),
    ):
        ncomp = ea._KIND_COMPONENTS[kind]
        X = _longdouble_coords(
            [_exact_coords(S, kind, nvar) for S in tensors], ncomp * nvar**3
        )
        B = ea._orthoframe_rows(X, ncomp, nvar, ea._KIND_WEIGHTS[kind])
        grams.append(ea._float_gram(B))
    return grams


@pytest.mark.parametrize("gt", BOUNDARY_CONFIGS)
def test_korn_grams_from_integer_rows_match_field_grams(monkeypatch, gt):
    real_gram = ea._float_gram
    for p in range(1, 6):
        monkeypatch.undo()
        K, M = _korn_field_grams(p, gt)
        seen = []
        monkeypatch.setattr(
            ea, "_float_gram", lambda *args: seen.append(real_gram(*args)) or seen[-1]
        )
        if K.shape[0] == 0:
            with pytest.raises(ea.DegreeTooLow):
                ea.korn_constant(p, gt)
            assert [G.shape for G in seen] == [(0, 0), (0, 0)]
            continue
        constant = ea.korn_constant(p, gt).constant
        assert np.array_equal(seen[0], K) and np.array_equal(seen[1], M), p
        # the same constant from the field Grams
        field_grams = iter((K, M))
        monkeypatch.setattr(ea, "_float_gram", lambda *args: next(field_grams))
        assert ea.korn_constant(p, gt).constant == constant, p


# --- level-1 cohomology reports ------------------------------------------------


def test_dirichlet_neumann_dimensions(complexes_p4):
    assert ea.dirichlet_neumann_fields(4, "none").dimension == 0
    assert ea.dirichlet_neumann_fields(4, "X0,X1").dimension == 6
    rng = np.random.default_rng(3)
    n = complexes_p4["X0,X1"].levels[1].dim
    eps = fa.random_spd(n, rng)
    assert ea.dirichlet_neumann_fields(4, "X0,X1", eps=eps).dimension == 6
