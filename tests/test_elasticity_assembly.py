import math
import random

import numpy as np
import pytest

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


def test_rigid_motion_coordinates_reconstruct_exactly():
    space = ea.build_space("vector", 2, "none", 1)
    cols = ea.rigid_motion_coordinates(space)
    rm = ea.rigid_motion_basis()
    for col, target in zip(cols, rm.fields):
        acc = PolyVecField([Poly3.zero()] * 3)
        for i, q in col.items():
            acc = acc + space.fields[i].scale(q)
        assert (acc - target).is_zero()


def test_rigid_motion_coordinates_need_unconstrained_space():
    space = ea.build_space("vector", 2, "X0", 1)
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


def test_face_compatible_reconstruction_failure_is_assembly_error(monkeypatch):
    # u's trace on x=0 equals that of the translation e0, so the selection
    # must lift a dependency; with reconstruction disabled no rung succeeds.
    monkeypatch.setattr(exactlin, "rat_reconstruct", lambda a, m: None)
    x = Poly3.variable(0)
    u = PolyVecField([Poly3.constant(1) + x, Poly3.zero(), Poly3.zero()])
    with pytest.raises(ea.AssemblyError):
        ea._face_compatible_combinations([u], ea.BoundarySelection.parse("X0"))


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


def test_float_gram_matches_exact_integrals():
    space = ea.build_space("vector", 2, "X0", 1)
    coords = [ea._exact_coords(f, "vector", 3) for f in space.fields]
    X = _longdouble_coords(coords, 3 * 3**3)
    G = ea._float_gram(X, 3, 3, ea._KIND_WEIGHTS["vector"])
    exact = np.diag([float(q) for q in space.gram_diag])
    assert np.max(np.abs(G - exact)) < 1e-14


# --- norm exponents -------------------------------------------------------------


def _oracle_exponents(kind, nums, dens, nvar):
    """round(log2 ||f||) from the extended-precision norms."""
    norms = ea._l2_norms(kind, nums, dens, nvar)
    return [int(round(math.log2(x))) if x > 0 else 0 for x in norms]


def _normalization_inputs(monkeypatch, p, gt):
    """The rows whose norms a cold degree-p assembly takes: every input of
    `_normalized_level` for p >= 4; below that, where the chain cannot be
    built, the degree-p V0 rows and their Grad and sym_grad images."""
    if p < 4:
        nvar = p + 1
        rows = ea._space_rows(ea.build_space("vector", p, gt, 1), nvar)
        ones = np.ones(len(rows), dtype=np.int64)
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
    real = ea._l2_norms
    fallback = []

    def spy(kind, nums, dens, nvar):
        fallback.extend(map(tuple, nums.tolist()))
        return real(kind, nums, dens, nvar)

    monkeypatch.setattr(ea, "_l2_norms", spy)
    ks = ea._norm_exponents("symmetric-tensor", nums, dens, nvar)
    assert ks.tolist() == [1, 2, 2, -1]
    assert fallback == [tuple(nums[0]), tuple(nums[2])]
    monkeypatch.undo()
    assert ks.tolist() == _oracle_exponents("symmetric-tensor", nums, dens, nvar)


# --- assembled complexes ------------------------------------------------------


def test_complex_needs_degree_four():
    with pytest.raises(ea.DegreeTooLow):
        ea.build_complex(3, "none")


def test_complex_property_exact(complexes_p4):
    for gt in BOUNDARY_CONFIGS:
        assert complexes_p4[gt].verify_complex_property()


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
            assert ea._exact_coords(field, level.kind, level.nvar) == coords


def test_levels_hold_integer_rows_and_build_fields_lazily():
    ec = ea.build_complex(4, "all", use_cache=False)
    grams = ec.float_grams()
    for level in ec.levels:
        assert "coords" not in level.__dict__ and "fields" not in level.__dict__
        assert level.dim == len(level.nums) == len(level.dens) > 0
        with pytest.raises(ValueError):
            level.nums[0, 0] = 1
        with pytest.raises(ValueError):
            level.dens[0] = 1
    for level, G in zip(ec.levels, grams):
        X = _longdouble_coords(level.coords, level.nums.shape[1])
        ncomp = ea._KIND_COMPONENTS[level.kind]
        ref = ea._float_gram(X, ncomp, level.nvar, ea._KIND_WEIGHTS[level.kind])
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
    coords = [ea._exact_coords(f, kind, nvar) for f in fields]
    nums, dens = ea._integer_rows(coords, ea._KIND_COMPONENTS[kind] * nvar**3)
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
    _, _, den, _ = ea._operator_matrix(name, in_kind, nvar)
    assert den == (2 if name == "sym_grad" else 1)
    fields = _random_fields(in_kind, nvar - 1, seed=nvar)
    nums, dens = ea._images(*_rows(fields, in_kind, nvar), name, in_kind, nvar, nvar)
    expected = [ea._exact_coords(op_fun(f), out_kind, nvar) for f in fields]
    assert _as_coords(nums, dens) == expected
    # each image row is in least-denominator form, as _integer_rows gives it
    ref_nums, ref_dens = ea._integer_rows(expected, nums.shape[1])
    assert np.array_equal(nums, ref_nums) and list(dens) == ref_dens


def test_operator_matrix_from_a_larger_grid():
    fields = _random_fields("vector", 4, seed=11)
    nums, dens = ea._images(*_rows(fields, "vector", 7), "sym_grad", "vector", 7, 5)
    expected = [
        ea._exact_coords(pc.sym_grad(f), "symmetric-tensor", 5) for f in fields
    ]
    assert nums.shape[1] == 6 * 5**3
    assert _as_coords(nums, dens) == expected


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
        assert np.array_equal(old.nums, new.nums)
        assert np.array_equal(old.dens, new.dens)
        assert (old.kind, old.provenance, old.nvar) == (
            new.kind,
            new.provenance,
            new.nvar,
        )
    for old, new in zip(first.ops[1:], ec.ops[1:]):
        assert (old.nrows, old.ncols, old.cols) == (new.nrows, new.ncols, new.cols)
    assert ec.stats[1:] == first.stats[1:]
    # level 0 begins with the first-pass rows, re-embedded on a larger grid
    old0, new0 = first.levels[0], ec.levels[0]
    n0 = old0.dim
    assert new0.dim == n0 + added and new0.nvar == old0.nvar + 1
    inside = ea._grid_columns(3, old0.nvar, new0.nvar)
    assert np.array_equal(new0.nums[:n0, inside], old0.nums)
    assert np.count_nonzero(new0.nums[:n0]) == np.count_nonzero(old0.nums)
    assert np.array_equal(new0.dens[:n0], old0.dens)
    for i in (0, n0 - 1):
        assert (new0.field(i) - old0.field(i)).is_zero()
    # A0 keeps its first-pass columns; the new ones raise its rank by added
    assert ec.ops[0].cols[:n0] == first.ops[0].cols
    generators = {
        pos for pos, prov in enumerate(ec.levels[1].provenance) if prov[0] == "generator"
    }
    for col in ec.ops[0].cols[n0:]:
        assert col and {r for r, _ in col} <= generators
    assert ec.ranks[0] == first.ranks[0] + added
    assert ec.stats[0]["adjoined_images"] == added
    assert ec.stats[0]["kept_images"] == first.stats[0]["kept_images"] + added


def test_image_product_guard_is_an_assembly_error():
    l1 = ea._operator_matrix("rotrot_t", "symmetric-tensor", 5)[3]
    nums = np.zeros((2, 6 * 5**3), dtype=np.int64)
    nums[1, 7] = (2**62 - 1) // l1 + 1  # max|nums| * L1 reaches 2^62
    dens = np.ones(2, dtype=np.int64)
    with pytest.raises(ea.AssemblyError, match="exceed 62 bits"):
        ea._images(nums, dens, "rotrot_t", "symmetric-tensor", 5, 5)
    nums[1, 7] -= 1  # just below the bound the product runs
    ea._images(nums, dens, "rotrot_t", "symmetric-tensor", 5, 5)


def test_float_ranks_agree_with_exact_certificates(complexes_p4):
    for gt in BOUNDARY_CONFIGS:
        ec = complexes_p4[gt]
        cx = ec.finite_complex()
        for k in range(3):
            assert fa.rank_of(cx.op(k), cx.gram(k), cx.gram(k + 1)) == ec.ranks[k]


def test_complex_is_cached():
    assert ea.build_complex(4, "X0") is ea.build_complex(4, "X0")


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
            [ea._exact_coords(S, kind, nvar) for S in tensors], ncomp * nvar**3
        )
        grams.append(ea._float_gram(X, ncomp, nvar, ea._KIND_WEIGHTS[kind]))
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
