"""Discrete elasticity complexes on the unit box, assembled exactly.

The chain

    V0 --sym_grad--> V1 --rotrot_t--> V2 --Div--> V3

is realized on spaces of polynomial fields over [0,1]^3, with essential
boundary conditions imposed on a selectable set of box faces.  The images
of the level-k basis fields are basis candidates for level k+1, ahead of
the generator fields, so each image is a basis vector of the next level or
an exactly verified rational combination of earlier image basis vectors.
The chain is assembled in one pass; strain potentials that close the
level-1 cohomology are then adjoined to V0, their images exactly verified
combinations of V1's generator basis vectors.  So A1*A0 and A2*A1 vanish
identically at the rational stage.

Every exact matrix of the assembly is a sparse int64 numerator matrix
over int64 denominators, each entry below 2^62: a level's basis is one
canonical CSR matrix of rows on the ambient monomial grid, one denominator
per row; a grid operator (derived once per grid size from `poly_calculus`)
is one CSR matrix over one denominator, so a level's images are one
guarded sparse product; a chain operator (`ExactOperator`) is a CSC
matrix, one denominator per column.  Images, normalisation and the row
selection touch only stored entries.  Rows are made dense only by
`_frame_rows`, the float stage's one reader of exact rows (Grams, norms
that need extended precision, the Korn quotient), `_NORM_BLOCK` rows at
a time; by the small face-trace solve; and, inside
`exactlin.select_rows`, for the core of a selection.  Exact rational
coordinates and polynomial fields are built from these on first use.

Linear independence is decided by `exactlin.select_rows`, which certifies
every dependency it reports, so the kept bases, the operators and the
derived integers (ranks, kernel and cohomology dimensions) are certified,
not floating-point estimates.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from scipy import sparse
from scipy.linalg import eigh

from . import exactlin
from . import fa_toolbox as fa
from . import poly_calculus as pc
from .poly_calculus import Poly3, PolyMatField, PolyVecField
from .rational import Q

FACE_NAMES = ("X0", "X1", "Y0", "Y1", "Z0", "Z1")

_KIND_COMPONENTS = {"scalar": 1, "vector": 3, "symmetric-tensor": 6, "matrix": 9}
_SYM_ENTRIES = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
_MAT_ENTRIES = tuple((i, j) for i in range(3) for j in range(3))
_KIND_WEIGHTS = {
    "scalar": (1,),
    "vector": (1, 1, 1),
    "symmetric-tensor": (1, 1, 1, 2, 2, 2),
    "matrix": (1,) * 9,
}
_COORD_LIMIT = 2**62


class DegreeTooLow(ValueError):
    """Requested polynomial degree cannot carry the requested constraints."""


class AssemblyError(RuntimeError):
    """Exact assembly failed: no certified row selection, or a broken invariant."""


# ---------------------------------------------------------------------------
# boundary selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundarySelection:
    """A subset of the six box faces carrying essential conditions."""

    faces: frozenset

    @classmethod
    def parse(cls, spec):
        if isinstance(spec, BoundarySelection):
            return spec
        if spec is None:
            return cls(frozenset())
        if isinstance(spec, str):
            text = spec.strip()
            low = text.lower()
            if low in ("", "none"):
                return cls(frozenset())
            if low == "all":
                return cls(frozenset(FACE_NAMES))
            parts = [t for t in text.replace("+", ",").split(",") if t.strip()]
            names = [t.strip().upper() for t in parts]
        else:
            names = [str(t).strip().upper() for t in spec]
        for name in names:
            if name not in FACE_NAMES:
                raise ValueError("unknown face %r; faces are %s" % (name, FACE_NAMES))
        return cls(frozenset(names))

    def orders(self, axis, vanish_order):
        """Vanishing orders (m0, m1) at the two faces of a coordinate axis."""
        m0 = vanish_order if FACE_NAMES[2 * axis] in self.faces else 0
        m1 = vanish_order if FACE_NAMES[2 * axis + 1] in self.faces else 0
        return m0, m1

    @property
    def label(self):
        if not self.faces:
            return "none"
        if self.faces == frozenset(FACE_NAMES):
            return "all"
        return "+".join(sorted(self.faces, key=FACE_NAMES.index))


# ---------------------------------------------------------------------------
# univariate factor bases
# ---------------------------------------------------------------------------


def _uni_inner(f, g):
    """L2(0,1) inner product of coefficient lists (exact)."""
    total = Q(0)
    for a, fa_ in enumerate(f):
        if fa_ == 0:
            continue
        for b, gb in enumerate(g):
            if gb == 0:
                continue
            total += fa_ * gb * Q(1, a + b + 1)
    return total


@cache
def univariate_factor_basis(degree, m0, m1):
    """Integer-coefficient basis of {x^m0 (1-x)^m1 q : deg q <= degree-m0-m1}.

    Returns (coeffs, norms): `coeffs[k]` is the ascending coefficient tuple of
    the k-th basis polynomial (length degree+1), and `norms[k]` its exact
    squared L2(0,1) norm.  The family is L2-orthogonal: member k is the
    Gram-Schmidt orthogonalization of x^(m0+k)(1-x)^m1 against the earlier
    members, rescaled to integer coefficients with positive leading
    coefficient.
    """
    count = degree + 1 - m0 - m1
    if count < 0:
        raise DegreeTooLow(
            "degree %d cannot vanish to orders (%d, %d) at both ends"
            % (degree, m0, m1)
        )
    basis = []
    norms = []
    done = []
    for t in range(count):
        coeffs = [Q(0)] * (degree + 1)
        for j in range(m1 + 1):
            coeffs[m0 + t + j] += Q((-1) ** j * math.comb(m1, j))
        for prev, prev_norm in done:
            factor = _uni_inner(coeffs, prev) / prev_norm
            if factor != 0:
                coeffs = [c - factor * p for c, p in zip(coeffs, prev)]
        norm = _uni_inner(coeffs, coeffs)
        done.append((coeffs, norm))
        den = math.lcm(*(int(c.denominator) for c in coeffs))
        ints = [int(c * den) for c in coeffs]
        g = math.gcd(*ints)
        if next(c for c in reversed(ints) if c != 0) < 0:
            g = -g
        ints = [c // g for c in ints]
        basis.append(tuple(ints))
        norms.append(_uni_inner([Q(c) for c in ints], [Q(c) for c in ints]))
    return tuple(basis), tuple(norms)


# ---------------------------------------------------------------------------
# field spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldSpace:
    """An orthogonal basis of polynomial fields on the box.

    Fields are ordered component-major: all fields supported on component 0
    first, each block running lexicographically over the univariate factor
    indices (i, j, k) for the x/y/z directions.  Field number
    (comp, i, j, k) is factors[0][i](x) factors[1][j](y) factors[2][k](z)
    on component `comp`; the exact polynomial fields and the Gram diagonal
    are built on first use.
    """

    kind: str
    degree: int
    vanish_order: int
    bc: BoundarySelection
    counts: tuple
    factors: tuple
    factor_norms: tuple

    @property
    def dim(self):
        return _KIND_COMPONENTS[self.kind] * math.prod(self.counts)

    @cached_property
    def gram_diag(self):
        """The exact L2 Gram diagonal, one Fraction per field."""
        return tuple(
            w * gx * gy * gz
            for w in _KIND_WEIGHTS[self.kind]
            for gx, gy, gz in itertools.product(*self.factor_norms)
        )

    @cached_property
    def fields(self):
        fields = []
        for comp in range(_KIND_COMPONENTS[self.kind]):
            for fx, fy, fz in itertools.product(*self.factors):
                terms = {}
                for a, ca in enumerate(fx):
                    if ca == 0:
                        continue
                    for b, cb in enumerate(fy):
                        if cb == 0:
                            continue
                        for c, cc in enumerate(fz):
                            if cc == 0:
                                continue
                            terms[(a, b, c)] = ca * cb * cc
                fields.append(
                    _component_field(self.kind, comp, Poly3.from_num(terms))
                )
        return tuple(fields)


def _component_field(kind, comp, poly):
    if kind == "scalar":
        return poly
    if kind == "vector":
        comps = [Poly3.zero(), Poly3.zero(), Poly3.zero()]
        comps[comp] = poly
        return PolyVecField(comps)
    i, j = _SYM_ENTRIES[comp]
    entries = [Poly3.zero() for _ in range(9)]
    entries[3 * i + j] = poly
    entries[3 * j + i] = poly
    return PolyMatField(entries)


def _space_from_degrees(kind, degrees, bc, vanish_order):
    """Shared assembly for field spaces; `degrees` is one bound per axis."""
    factors = []
    factor_norms = []
    counts = []
    for axis in range(3):
        m0, m1 = bc.orders(axis, vanish_order)
        coeffs, norms = univariate_factor_basis(degrees[axis], m0, m1)
        factors.append(coeffs)
        factor_norms.append(norms)
        counts.append(len(coeffs))
    return FieldSpace(
        kind=kind,
        degree=max(degrees),
        vanish_order=vanish_order,
        bc=bc,
        counts=tuple(counts),
        factors=tuple(factors),
        factor_norms=tuple(factor_norms),
    )


def build_space(kind, degree, gt, vanish_order):
    """Polynomial field space on the box with essential face conditions.

    `kind` is one of "scalar", "vector", "symmetric-tensor".  Each field
    component is a product of univariate factor-basis polynomials of degree
    <= `degree` per variable; on every coordinate direction with a selected
    face, the factor vanishes there to order `vanish_order`.  Raises
    DegreeTooLow when the degree cannot carry the constraints (the resulting
    space may legitimately be zero-dimensional, which is returned, not
    raised).
    """
    if kind not in ("scalar", "vector", "symmetric-tensor"):
        raise ValueError("unknown field kind %r" % (kind,))
    if degree < 0:
        raise DegreeTooLow("degree %d is negative" % degree)
    bc = BoundarySelection.parse(gt)
    return _space_from_degrees(kind, (degree, degree, degree), bc, vanish_order)


def _generator_space(kind, base_degree, bc, vanish_order):
    """Generator space for one chain level: degree `base_degree` per variable,
    raised on a constrained direction when the boundary factor alone already
    exceeds it, so the space is never empty merely because the vanishing
    factor does not fit.
    """
    if base_degree < 0:
        raise DegreeTooLow("degree %d is negative" % base_degree)
    degrees = []
    for axis in range(3):
        m0, m1 = bc.orders(axis, vanish_order)
        degrees.append(max(base_degree, m0 + m1))
    return _space_from_degrees(kind, tuple(degrees), bc, vanish_order)


# ---------------------------------------------------------------------------
# exact coordinates on the ambient monomial grid
# ---------------------------------------------------------------------------


def _field_components(field, kind):
    if kind == "scalar":
        return (field,)
    if kind == "vector":
        return tuple(field[i] for i in range(3))
    if kind == "symmetric-tensor":
        return tuple(field[i, j] for (i, j) in _SYM_ENTRIES)
    return tuple(field[i, j] for (i, j) in _MAT_ENTRIES)


def _coord_row(field, kind, nvar):
    """A field's coordinates on the monomial grid as ({flat_index: int}, den):
    integer numerators over their least common denominator."""
    polys = _field_components(field, kind)
    den = math.lcm(*(poly.den for poly in polys))
    out = {}
    grid = nvar * nvar * nvar
    for comp, poly in enumerate(polys):
        base = comp * grid
        scale = den // poly.den
        for (a, b, c), n in poly.num.items():
            if a >= nvar or b >= nvar or c >= nvar:
                raise AssemblyError(
                    "field exceeds the ambient degree bound %d" % (nvar - 1)
                )
            out[base + (a * nvar + b) * nvar + c] = n * scale
    return out, den


def _coord_rows(rows, width):
    """Rows ({flat_index: int}, den) as a canonical int64 CSR matrix of
    numerators plus the list of row denominators, each below 2^62."""
    dens, indices, data, indptr = [], [], [], [0]
    for row, den in rows:
        if den >= _COORD_LIMIT:
            raise AssemblyError("coordinate denominator exceeds 62 bits")
        if any(abs(n) >= _COORD_LIMIT for n in row.values()):
            raise AssemblyError("coordinate numerator exceeds 62 bits")
        dens.append(den)
        terms = sorted((j, n) for j, n in row.items() if n)
        indices += [j for j, _ in terms]
        data += [n for _, n in terms]
        indptr.append(len(indices))
    nums = sparse.csr_matrix(
        (np.array(data, dtype=np.int64), indices, indptr), shape=(len(rows), width)
    )
    return nums, dens


def _vector_rows(fields, nvar):
    """(nums, dens, nvar): the integer rows of vector fields on the smallest
    grid of at least nvar points per axis that holds them."""
    expos = (e for f in fields for q in _field_components(f, "vector") for e in q.num)
    nvar = max([nvar] + [1 + max(e) for e in expos])
    rows = [_coord_row(f, "vector", nvar) for f in fields]
    nums, dens = _coord_rows(rows, 3 * nvar**3)
    return nums, np.array(dens, dtype=np.int64), nvar


def _field_from_row(cols, vals, den, kind, nvar):
    """The vector or symmetric-tensor field whose integer coordinate row has
    the nonzeros `vals` at `cols`, over `den`; the inverse of _coord_row."""
    grid = nvar * nvar * nvar
    nums = [{} for _ in range(_KIND_COMPONENTS[kind])]
    for j, n in zip(cols.tolist(), vals.tolist()):
        comp, m = divmod(j, grid)
        a, m = divmod(m, nvar * nvar)
        b, c = divmod(m, nvar)
        nums[comp][(a, b, c)] = n
    polys = [Poly3.from_num(num, den) for num in nums]
    if kind == "vector":
        return PolyVecField(polys)
    entries = [None] * 9
    for poly, (i, j) in zip(polys, _SYM_ENTRIES):
        entries[3 * i + j] = entries[3 * j + i] = poly
    return PolyMatField(entries)


def _space_rows(space, nvar):
    """Integer coordinate rows of a FieldSpace's fields on the nvar grid,
    as a canonical int64 CSR matrix.

    A field is a product of integer univariate factors on one component, so
    its row is a Kronecker product of factor coefficient vectors.  The
    Kronecker block of one component is formed dense and converted once;
    the other components repeat its index arrays, shifted.
    """
    bound = 1
    mats = []
    for coeffs in space.factors:
        M = np.zeros((len(coeffs), nvar), dtype=np.int64)
        for k, f in enumerate(coeffs):
            if any(f[nvar:]):
                raise AssemblyError(
                    "field exceeds the ambient degree bound %d" % (nvar - 1)
                )
            M[k, : len(f)] = f[:nvar]
        bound *= max((abs(c) for f in coeffs for c in f), default=0)
        mats.append(M)
    if bound >= _COORD_LIMIT:
        raise AssemblyError("coordinate numerator exceeds 62 bits")
    block = np.kron(np.kron(mats[0], mats[1]), mats[2])
    ncomp = _KIND_COMPONENTS[space.kind]
    r, c = np.nonzero(block)
    counts = np.tile(np.bincount(r, minlength=block.shape[0]), ncomp)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices = (c + np.arange(ncomp)[:, None] * nvar**3).ravel()
    shape = (ncomp * block.shape[0], ncomp * nvar**3)
    return sparse.csr_matrix((np.tile(block[r, c], ncomp), indices, indptr), shape)


_OPERATORS = {
    "Grad": "matrix",
    "sym_grad": "symmetric-tensor",
    "rotrot_t": "symmetric-tensor",
    "Div": "vector",
}


def _read_only(matrix):
    """Make the arrays of a compressed scipy.sparse matrix read-only."""
    for a in (matrix.data, matrix.indices, matrix.indptr):
        a.flags.writeable = False


@cache
def _operator_matrix(name, in_kind, nvar):
    """A chain operator on the nvar monomial grid: (D, den, l1).

    The operator maps the field with coordinate row x to the field with
    coordinates x @ D / den, where row r of the int64 CSR matrix D holds den
    times the coordinates of the operator applied to the r-th unit monomial
    field of `in_kind`; so D is derived from `poly_calculus`, which stays
    the one definition of the operators.  D is read-only, as it is shared
    by every caller.  `l1` is the largest column L1 norm of D.
    """
    op = getattr(pc, name)
    images = [
        _coord_row(
            op(_component_field(in_kind, comp, Poly3.monomial(a, b, c))),
            _OPERATORS[name],
            nvar,
        )
        for comp in range(_KIND_COMPONENTS[in_kind])
        for a, b, c in itertools.product(range(nvar), repeat=3)
    ]
    den = math.lcm(*(d for _, d in images))
    rows = [r for r, (img, _) in enumerate(images) for _ in img]
    cols = [j for img, _ in images for j in img]
    vals = [n * (den // d) for img, d in images for n in img.values()]
    shape = (len(images), _KIND_COMPONENTS[_OPERATORS[name]] * nvar**3)
    D = sparse.csr_matrix((np.array(vals, dtype=np.int64), (rows, cols)), shape)
    _read_only(D)
    l1 = int(abs(D).sum(axis=0).max())
    return D, den, l1


def _grid_columns(ncomp, nvar, big):
    """Flat indices of the nvar-grid coordinates within the big grid."""
    a = np.arange(nvar)
    mono = ((a[:, None, None] * big + a[None, :, None]) * big + a).ravel()
    return (np.arange(ncomp)[:, None] * big**3 + mono).ravel()


def _scaled_to_lowest_terms(rows, dens, shifts=None):
    """(rows', dens') with row i of the CSR matrix `rows` shifted left by
    shifts[i] (none when omitted) and then divided, with dens[i], by their
    common gcd; new arrays, so the inputs stay untouched.  An empty row
    gets denominator 1."""
    counts = np.diff(rows.indptr)
    data = rows.data if shifts is None else rows.data << np.repeat(shifts, counts)
    # reduceat runs over the non-empty rows only: on an empty segment it
    # returns the entry at its start, not a gcd
    filled = counts > 0
    g = np.zeros(len(counts), dtype=np.int64)
    g[filled] = np.gcd.reduceat(data, rows.indptr[:-1][filled])
    g = np.gcd(g, dens)
    out = sparse.csr_matrix(
        (data // np.repeat(g, counts), rows.indices.copy(), rows.indptr.copy()),
        shape=rows.shape,
    )
    return out, dens // g


def _images(nums, dens, name, in_kind, nvar_in, nvar):
    """Exact image rows of the fields nums[i] / dens[i] on the nvar grid.

    `nums` is a CSR matrix.  One sparse integer product with the operator
    matrix, after a check that no partial sum can reach 2^62; each image
    row is then reduced to its least common denominator.  Returns a
    canonical CSR matrix, in which a zero image is an empty row, and the
    image denominators.
    """
    D, den, l1 = _operator_matrix(name, in_kind, nvar_in)
    if nums.nnz and (
        int(np.abs(nums.data).max()) * l1 >= _COORD_LIMIT
        or int(dens.max()) * den >= _COORD_LIMIT
    ):
        raise AssemblyError("%s image coordinates exceed 62 bits" % name)
    out = nums @ D
    out.sort_indices()
    if nvar_in > nvar:
        # the nvar grid's columns within the larger grid, in increasing
        # order, so the remap keeps each row's indices sorted
        inside = _grid_columns(_KIND_COMPONENTS[_OPERATORS[name]], nvar, nvar_in)
        column = np.full(out.shape[1], -1, dtype=out.indices.dtype)
        column[inside] = np.arange(inside.size)
        indices = column[out.indices]
        if np.any(indices < 0):
            raise AssemblyError(
                "field exceeds the ambient degree bound %d" % (nvar - 1)
            )
        out = sparse.csr_matrix(
            (out.data, indices, out.indptr), shape=(out.shape[0], inside.size)
        )
    return _scaled_to_lowest_terms(out, dens * den)


@cache
def _legendre_frame(nvar):
    """Monomial-to-scaled-Legendre transform for one axis (longdouble).

    Returns W with W[k, a] = T[k, a] / sqrt(2k+1), where x^a =
    sum_k T[k, a] Ltilde_k and Ltilde_k is the integer-coefficient Legendre
    polynomial shifted to [0, 1] with squared norm 1/(2k+1) (the factor
    basis `univariate_factor_basis(nvar - 1, 0, 0)`); rows of W @ m are
    therefore coordinates in an orthonormal univariate frame.  Assembled
    exactly and rounded once per entry.
    """
    polys, norms = univariate_factor_basis(nvar - 1, 0, 0)
    W = np.zeros((nvar, nvar), dtype=np.longdouble)
    for k, (coeffs, norm) in enumerate(zip(polys, norms)):
        for a in range(nvar):
            t = sum(Q(c, a + j + 1) for j, c in enumerate(coeffs)) / norm
            W[k, a] = np.longdouble(t.numerator) / np.longdouble(t.denominator)
        W[k] /= np.sqrt(np.longdouble(1 / norm))
    return W


def _orthoframe_rows(X, ncomp, nvar, weights):
    """Field coordinates in an L2-orthonormal ambient frame (float64 rows).

    `X` holds the monomial-grid coordinates of one field per row in extended
    precision.  The frame is the tensor product of scaled Legendre
    polynomials with the component weights folded in, so the L2 Gram of the
    fields is B @ B.T for the returned B.  Entries of B are bounded by the
    field norms, hence that product carries no cancellation beyond ordinary
    rounding; the change of frame itself runs in extended precision.  Row
    i of B depends on row i of X alone.
    """
    W = _legendre_frame(nvar)
    Z = X.reshape(X.shape[0], ncomp, nvar, nvar, nvar)
    for axis in (2, 3, 4):
        Z = np.moveaxis(np.tensordot(Z, W, axes=([axis], [1])), -1, axis)
    w = np.sqrt(np.asarray(weights, dtype=np.longdouble))
    Z = Z * w[None, :, None, None, None]
    return Z.reshape(X.shape[0], ncomp * nvar**3).astype(np.float64)


_NORM_BLOCK = 64


def _frame_rows(kind, nums, dens, nvar):
    """Frame coordinates B (float64, one row per field) of the fields
    nums[i] / dens[i] on the nvar grid, `nums` a CSR matrix: the one way
    the float stage reads exact rows.

    `_NORM_BLOCK` rows at a time are made dense in extended precision,
    each entry the correctly rounded quotient of its integer numerator and
    denominator, and go through `_orthoframe_rows`.  That transform is per
    row, so B is bit for bit the B of the whole matrix made dense at once,
    while the extended-precision memory stays that of one block.
    """
    ncomp, weights = _KIND_COMPONENTS[kind], _KIND_WEIGHTS[kind]
    B = np.empty((nums.shape[0], ncomp * nvar**3))
    for i in range(0, nums.shape[0], _NORM_BLOCK):
        block = slice(i, i + _NORM_BLOCK)
        X = nums[block].toarray().astype(np.longdouble)
        X /= dens[block].astype(np.longdouble)[:, None]
        B[block] = _orthoframe_rows(X, ncomp, nvar, weights)
    return B


def _float_gram(B):
    """L2 Gram of the fields whose frame coordinates are the rows of B
    (`_frame_rows`): one product B @ B.T, symmetrised."""
    G = B @ B.T
    return 0.5 * (G + G.T)


def _l2_norms(kind, nums, dens, nvar):
    """L2 norms of the fields nums[i] / dens[i], `nums` a CSR matrix: the
    norms of the rows of `_frame_rows`, so each is that of the field's
    extended-precision frame change alone.  This is the fallback and the
    oracle of `_norm_exponents`.
    """
    return np.linalg.norm(_frame_rows(kind, nums, dens, nvar), axis=1)


@cache
def _kron_frame(nvar):
    """(K^T, mu) in float64.  K = W (x) W (x) W is the Legendre frame change
    of the whole nvar grid (`_legendre_frame`), formed in extended
    precision and rounded once per entry; mu_i = ((2a+1)(2b+1)(2c+1))^-1/2
    is the L2 norm of monomial i = x^a y^b z^c, hence the norm of column i
    of the exact K.  W, so K, is entrywise nonnegative: W[k, a] is the
    integral of x^a against a shifted Legendre polynomial, a!^2 / ((a-k)!
    (a+k+1)!) times a positive scale for k <= a, and 0 for k > a."""
    W = _legendre_frame(nvar)
    KT = np.ascontiguousarray(np.kron(np.kron(W, W), W).T.astype(np.float64))
    m = 1 / np.sqrt(2 * np.arange(nvar) + 1.0)
    return KT, np.kron(np.kron(m, m), m)


def _norm_bounds(kind, nums, dens, nvar):
    """(s, e): s_i, the squared L2 norm of the field f_i = nums[i] / dens[i]
    formed in float64, and e_i, an a-priori bound on the distance of s_i
    from the square of the extended-precision `_l2_norms`; `nums` is a
    canonical CSR matrix.

    Each block of rows is one CSR matrix X over its stored entries, one row
    per field component, read from the slice of `nums`'s index and data
    arrays; the frame change K = W (x) W (x) W (cached) is the one sparse
    product Y = X K^T: nnz nvar^3 flops per row and component instead of
    nvar^6, in scipy's C loops rather than a BLAS call.  The sums over
    frame coordinates and components are elementwise.

    The bound (a filter in the sense of Shewchuk's adaptive predicates):
    with x a row, y = K x its float64 product and a = |K| |x|, each entry
    of y is within c a of the exact one, c = 2((n + 4) u + 14 v) for n =
    nvar^3 terms, u = 2^-53 and v the unit roundoff of longdouble
    (rounding of x and K, and the product); each entry of the oracle's
    frame change is within c_o a + u |y|, c_o = 2 (3 nvar + 20) v.  So the
    weighted sums of squares differ by at most
    sum w a (2 c |y| + (c^2 + 3 c_o) a), plus (2 m + 4096) u s for the two
    sums of m = ncomp n squares, the oracle's square root, log2 and round,
    and the rounding of the bound itself.  These error bounds on a sum of
    at most n terms hold for every order of summation (Higham, Accuracy
    and Stability of Numerical Algorithms, 3.1), and a skipped exact zero
    adds no rounding, so the sparse products keep them.

    a is not formed.  Per component, Cauchy-Schwarz gives
    sum a |y| <= ||a|| ||y||, and as K >= 0 the triangle inequality gives
    ||a|| = ||sum_i |x_i| K e_i|| <= t = sum_i |x_i| mu_i.  So
    e = sum w (2 c t ||y|| + (c^2 + 3 c_o) t^2) + (2 m + 4096) u s, no
    smaller than the bound above.  t and ||y|| are rounded up by the
    factor 1 + 2 (n + 8) u, which covers the rounding of x, K, mu and of
    the products and sums that form a, t and ||y||; the weighted sum is
    rounded up by 1 + 16 u, which covers its own at most 12 roundings.
    """
    ncomp = _KIND_COMPONENTS[kind]
    weights = np.array(_KIND_WEIGHTS[kind], dtype=np.float64)
    KT, mu = _kron_frame(nvar)
    n = nvar**3
    u = np.finfo(np.float64).eps / 2
    v = float(np.finfo(np.longdouble).eps) / 2
    c = 2 * ((n + 4) * u + 14 * v)
    c_o = 2 * (3 * nvar + 20) * v
    up = 1 + 2 * (n + 8) * u
    rel = (2 * ncomp * n + 4096) * u
    s, e = [], []
    nrows = nums.shape[0]
    for i in range(0, max(nrows, 1), _NORM_BLOCK):
        stop = min(i + _NORM_BLOCK, nrows)
        lo, hi = nums.indptr[i], nums.indptr[stop]
        cols = nums.indices[lo:hi]
        r = np.repeat(np.arange(stop - i), np.diff(nums.indptr[i : stop + 1]))
        x = nums.data[lo:hi] / dens[i:stop][r]
        # X is the block reshaped to one row per field component; the
        # block's stored entries, in order, are X's entries in CSR order
        xrow = r * ncomp + cols // n
        mono = cols % n
        shape = ((stop - i) * ncomp, n)
        indptr = np.searchsorted(xrow, np.arange(shape[0] + 1))
        Y = sparse.csr_matrix((x, mono, indptr), shape) @ KT
        y2 = (Y * Y).sum(axis=1)
        t = np.bincount(xrow, np.abs(x) * mu[mono], shape[0]) * up
        bound = t * (2 * c * np.sqrt(y2) * up + (c * c + 3 * c_o) * t)
        sq = (y2.reshape(-1, ncomp) * weights).sum(axis=1)
        s.append(sq)
        e.append(
            (bound.reshape(-1, ncomp) * weights).sum(axis=1) * (1 + 16 * u) + rel * sq
        )
    return np.concatenate(s), np.concatenate(e)


def _norm_exponents(kind, nums, dens, nvar):
    """k_i = round(log2 ||f_i||) for the fields f_i = nums[i] / dens[i], with
    `nums` a canonical CSR matrix: the exponents
    `round(log2(_l2_norms(...)))` would give on the dense rows, bit for bit.

    `_norm_bounds` gives the float64 squared norm s_i and a bound e_i on
    its distance from the extended-precision value of `_l2_norms`.  The
    cell boundaries of k lie at s = 2^(2k +- 1), so row i is decided when
    [s_i - e_i, s_i + e_i] holds no power of two with an odd exponent; the
    other rows (an exact tie among them) go through `_l2_norms`.
    """
    s, e = _norm_bounds(kind, nums, dens, nvar)
    # s in [2^(E-1), 2^E), E the frexp exponent, lies in the cell k = E >> 1
    lo, hi = np.frexp(s - e)[1] >> 1, np.frexp(s + e)[1] >> 1
    ks = hi.astype(np.int64)
    fallback = np.flatnonzero(~(s - e > 0) | (lo != hi))
    if fallback.size:
        norms = _l2_norms(kind, nums[fallback], dens[fallback], nvar)
        ks[fallback] = [int(round(math.log2(x))) if x > 0 else 0 for x in norms]
    return ks


# ---------------------------------------------------------------------------
# exact operator matrices
# ---------------------------------------------------------------------------


class ExactOperator:
    """A matrix with exact rational entries: column j is nums[:, j] / dens[j].

    `nums` is a read-only int64 CSC matrix and `dens` a read-only int64
    array, each column in lowest terms (a zero column has denominator 1),
    the form a ComplexLevel gives its rows.
    """

    __slots__ = ("nums", "dens", "nrows", "ncols")

    def __init__(self, nums, dens):
        _read_only(nums)
        dens.flags.writeable = False
        self.nums, self.dens = nums, dens
        self.nrows, self.ncols = nums.shape

    def column(self, j):
        """Exact entries {row: rational} of column j."""
        lo, hi = self.nums.indptr[j], self.nums.indptr[j + 1]
        den = int(self.dens[j])
        rows = self.nums.indices[lo:hi].tolist()
        return {r: Q(n, den) for r, n in zip(rows, self.nums.data[lo:hi].tolist())}

    def compose_is_zero(self, first):
        """Whether self o first vanishes identically: one integer product
        over the lcm of self.dens, after a check that no partial sum can
        reach 2^62."""
        if first.nrows != self.ncols:
            raise ValueError("shape mismatch in composition")
        if not (self.nums.count_nonzero() and first.nums.count_nonzero()):
            return True
        dens = self.dens.tolist()
        lcm = math.lcm(*dens)
        # both factors are nonzero, so left * right >= lcm // min(dens), the
        # largest scale
        left = int(abs(self.nums).max()) * (lcm // min(dens))
        right = int(abs(first.nums).sum(axis=0).max())
        if left * right >= _COORD_LIMIT:
            raise AssemblyError("composition entries exceed 62 bits")
        scale = np.array([lcm // d for d in dens], dtype=np.int64)
        product = self.nums @ sparse.diags(scale, dtype=np.int64) @ first.nums
        return not product.count_nonzero()

    def to_float(self):
        """The float64 matrix; Python's int / int rounds each entry
        correctly, as float() of the rational does."""
        cols = np.repeat(np.arange(self.ncols), np.diff(self.nums.indptr))
        dens = self.dens[cols].tolist()
        out = np.zeros(self.nums.shape)
        out[self.nums.indices, cols] = [
            n / d for n, d in zip(self.nums.data.tolist(), dens)
        ]
        return out


def _exact_operator(nrows, ks, units, columns):
    """The ExactOperator with len(units) columns, each in lowest terms and
    every entry below 2^62.

    Column j is the unit column 2^ks[r] at row r = units[j] when r >= 0,
    built from arrays: 2^k in the numerator for k >= 0, 2^-k in the
    denominator for k < 0, so it exceeds 62 bits exactly when |k| >= 62.
    Otherwise column j is the sum of q 2^ks[r] at row r over the terms
    (r, q) of columns[j], q rational and r ascending, put over the lcm of
    its denominators; a column in neither is zero.
    """
    ks = np.asarray(ks, dtype=np.int64)
    units = np.asarray(units, dtype=np.int64)
    unit = np.flatnonzero(units >= 0)
    k = ks[units[unit]]
    if np.any(np.abs(k) >= 62):
        raise AssemblyError("operator entries exceed 62 bits")
    counts = (units >= 0).astype(np.int64)
    for j, terms in columns.items():
        counts[j] = len(terms)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    rows = np.empty(indptr[-1], dtype=np.int64)
    data = np.empty(indptr[-1], dtype=np.int64)
    dens = np.ones(len(units), dtype=np.int64)
    rows[indptr[unit]] = units[unit]
    data[indptr[unit]] = 1 << np.maximum(k, 0)
    dens[unit] = 1 << np.maximum(-k, 0)
    shifts = ks.tolist()
    for j, terms in columns.items():
        fracs = [
            (
                int(q.numerator) << max(shifts[r], 0),
                int(q.denominator) << max(-shifts[r], 0),
            )
            for r, q in terms
        ]
        den = math.lcm(*(d for _, d in fracs))
        nums = [n * (den // d) for n, d in fracs]
        g = math.gcd(den, *nums)
        vals = [n // g for n in nums]
        if max([den // g, *map(abs, vals)]) >= _COORD_LIMIT:
            raise AssemblyError("operator entries exceed 62 bits")
        rows[indptr[j] : indptr[j + 1]] = [r for r, _ in terms]
        data[indptr[j] : indptr[j + 1]] = vals
        dens[j] = den // g
    nums = sparse.csc_matrix((data, rows, indptr), shape=(nrows, len(units)))
    return ExactOperator(nums, dens)


# ---------------------------------------------------------------------------
# level assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ComplexLevel:
    """One space of the assembled chain, held as integer rows.

    Basis field i is nums[i] / dens[i] on the nvar monomial grid: `nums` is
    a read-only int64 CSR matrix in canonical form (sorted indices, no
    duplicate, no stored zero) and `dens` a read-only int64 array, each row
    in least-denominator form.  The rows stay sparse through the exact
    stage; `_frame_rows` makes them dense a block at a time for the float
    stage.  Exact rational coordinates and polynomial fields are built from
    a row on first use.
    """

    kind: str
    nums: sparse.csr_matrix
    dens: np.ndarray
    provenance: tuple
    nvar: int

    @property
    def dim(self):
        return self.nums.shape[0]

    def _row(self, i):
        lo, hi = self.nums.indptr[i], self.nums.indptr[i + 1]
        return self.nums.indices[lo:hi], self.nums.data[lo:hi]

    def coords_of(self, i):
        """Exact coordinates {flat_index: rational} of basis field i."""
        cols, vals = self._row(i)
        den = int(self.dens[i])
        return {j: Q(v, den) for j, v in zip(cols.tolist(), vals.tolist())}

    def field(self, i):
        """Exact polynomial field of basis field i, built on each call."""
        return _field_from_row(*self._row(i), int(self.dens[i]), self.kind, self.nvar)

    @cached_property
    def coords(self):
        return tuple(self.coords_of(i) for i in range(self.dim))

    @cached_property
    def fields(self):
        return tuple(self.field(i) for i in range(self.dim))


def _select_exact(nums, dens, flags):
    """Certified row selection on integer rows nums[i] / dens[i]."""
    try:
        return exactlin.select_rows(nums, dens=dens, expand_flags=flags)
    except exactlin.ReconstructionFailure as exc:
        raise AssemblyError("exact selection failed: %s" % exc)


def _normalized_level(kind, nums, dens, provenance, nvar):
    """Build a level from integer rows, each scaled by a power of two to a
    unit-size L2 norm.

    Row i is the field nums[i] / dens[i] on the nvar grid, `nums` a
    canonical CSR matrix whose rows are in lowest terms, and k_i =
    round(log2 ||f_i||) from `_norm_exponents`: float64 norms where their
    error bound decides k_i, the extended-precision `_l2_norms` elsewhere,
    so the exponents (hence every level basis) are those of `_l2_norms`
    alone.  Returns (level, ks): the level's field i is row i divided by
    2^ks[i], held as a read-only least-denominator integer row; no rational
    coordinates or polynomial fields are built here.
    """
    ks = _norm_exponents(kind, nums, dens, nvar)
    up, down = np.maximum(-ks, 0), np.maximum(ks, 0)
    if np.any(
        np.abs(nums.data) >= _COORD_LIMIT >> np.repeat(up, np.diff(nums.indptr))
    ) or np.any(dens >= _COORD_LIMIT >> down):
        raise AssemblyError("scaled coordinates exceed 62 bits")
    # the rows are in lowest terms, so the gcd below is a power of two
    nums, dens = _scaled_to_lowest_terms(nums, dens << down, up)
    _read_only(nums)
    dens.flags.writeable = False
    level = ComplexLevel(
        kind=kind,
        nums=nums,
        dens=dens,
        provenance=tuple(provenance),
        nvar=nvar,
    )
    return level, ks


def _assemble_level(prev_level, op_name, generators, nvar):
    """Build the next level from operator images plus generator fields.

    Returns (level, operator, stats): `level` spans the images of the
    previous level's basis together with the generators; `operator` is the
    exact matrix of the operator from the previous level into the new basis.
    """
    nums, dens = _images(
        prev_level.nums,
        prev_level.dens,
        op_name,
        prev_level.kind,
        prev_level.nvar,
        nvar,
    )
    nonzero = np.flatnonzero(np.diff(nums.indptr)).tolist()
    cand_nums = sparse.vstack(
        [nums[nonzero], _space_rows(generators, nvar)], format="csr"
    )
    cand_dens = np.ones(cand_nums.shape[0], dtype=np.int64)
    cand_dens[: len(nonzero)] = dens[nonzero]
    provenance = [("image", i) for i in nonzero]
    provenance += [("generator", g) for g in range(generators.dim)]
    flags = np.arange(len(provenance)) < len(nonzero)
    kept, expansions, nprimes = _select_exact(cand_nums, cand_dens, flags)
    level, ks = _normalized_level(
        _OPERATORS[op_name],
        cand_nums[kept],
        cand_dens[kept],
        [provenance[i] for i in kept],
        nvar,
    )
    # candidate row kept[pos] is 2^ks[pos] times basis field pos: a kept
    # image's column is the unit column at pos
    position = np.full(len(provenance), -1)
    position[kept] = np.arange(len(kept))
    units = np.full(prev_level.dim, -1)
    units[nonzero] = position[: len(nonzero)]
    columns = {
        nonzero[slot]: [(int(position[k]), c) for k, c in coeffs.items()]
        for slot, coeffs in expansions.items()
    }
    operator = _exact_operator(level.dim, ks, units, columns)
    stats = {
        "operator": op_name,
        "zero_images": prev_level.dim - len(nonzero),
        "nonzero_images": len(nonzero),
        "kept_images": sum(1 for i in kept if provenance[i][0] == "image"),
        "dependent_images": len(expansions),
        "generators": generators.dim,
        "kept_generators": sum(
            1 for i in kept if provenance[i][0] == "generator"
        ),
        "primes_used": nprimes,
    }
    return level, operator, stats


# ---------------------------------------------------------------------------
# polynomial strain potentials
# ---------------------------------------------------------------------------


class NotCompatible(ValueError):
    """The symmetric field is not a symmetric gradient (rotrot_t != 0)."""


def _line_moment_poly(poly, second):
    """Integrate q(t x) (optionally weighted by (1-t)) over t in [0,1].

    Returns the polynomial x -> integral; each monomial of total degree d
    picks up the factor 1/(d+1), or 1/((d+1)(d+2)) with the (1-t) weight.
    """
    terms = {}
    for (a, b, c), coeff in poly.terms.items():
        d = a + b + c
        w = Q(1, (d + 1) * (d + 2)) if second else Q(1, d + 1)
        terms[(a, b, c)] = coeff * w
    return Poly3(terms)


def saint_venant_potential(S):
    """Exact vector potential u with sym_grad(u) = S on the unit box.

    Uses the Cesaro-Volterra path integral along straight lines from the
    origin (gauge u(0) = 0 with vanishing rotation at 0):

        u_i(x) = int_0^1 [ S_ik(tx) + (1-t) x_j (d_j S_ik - d_i S_jk)(tx) ] x_k dt,

    which follows from d_k w_il = d_l S_ik - d_i S_lk for the skew part w of
    the gradient.  Raises NotCompatible when S is not a symmetric gradient
    (equivalently, when rotrot_t(S) != 0); the reconstruction is verified
    exactly before returning.
    """
    if not S.is_symmetric():
        raise NotCompatible("potential requires a symmetric input field")
    comps = []
    for i in range(3):
        acc = Poly3.zero()
        for k in range(3):
            xk = Poly3.variable(k)
            acc = acc + xk * _line_moment_poly(S[i, k], second=False)
            for j in range(3):
                xj = Poly3.variable(j)
                dj_sik = S[i, k].diff(j)
                di_sjk = S[j, k].diff(i)
                acc = acc + xj * xk * _line_moment_poly(dj_sik - di_sjk, second=True)
        comps.append(acc)
    u = PolyVecField(comps)
    if not (pc.sym_grad(u) - S).is_zero():
        raise NotCompatible("field admits no polynomial potential")
    return u


def _face_restriction(poly, axis, value):
    """Restrict a polynomial to the face {x_axis = value}, value in {0, 1}."""
    terms = {}
    for expo, coeff in poly.terms.items():
        if value == 0:
            if expo[axis] != 0:
                continue
            key = expo
        else:
            key = list(expo)
            key[axis] = 0
            key = tuple(key)
        acc = terms.get(key, Q(0)) + coeff
        if acc == 0:
            terms.pop(key, None)
        else:
            terms[key] = acc
    return Poly3(terms)


def vanishes_on_faces(field, bc, kind="vector"):
    """Exact check that every component vanishes on the selected faces."""
    for face in bc.faces:
        axis = FACE_NAMES.index(face) // 2
        value = FACE_NAMES.index(face) % 2
        for poly in _field_components(field, kind):
            if not _face_restriction(poly, axis, value).is_zero():
                return False
    return True


def _face_compatible_combinations(potentials, bc):
    """Vector fields in span(potentials + rigid motions) vanishing on bc.

    A symmetric gradient determines its potential only up to a rigid
    motion, so whether a combination of strains admits a potential meeting
    the face conditions is a linear question in the combination weights and
    six rigid-motion corrections.  Solved exactly; for a nonempty selection
    no nonzero rigid motion vanishes on a face, hence the returned fields
    carry independent strain combinations.

    The solve takes the face traces on the candidates' int64 grid rows,
    guarded by a bound on every numerator.  Each returned field is then
    checked by `vanishes_on_faces`, whose `_face_restriction` on Poly3
    coefficients defines the trace a second time on purpose: it is the
    independent verifier here and the oracle of the tests.
    """
    if not bc.faces:
        return list(potentials)
    cands = list(potentials) + list(rigid_motion_basis().fields)
    nums, dens, nvar = _vector_rows(cands, 1)
    nums = nums.toarray()
    if int(np.abs(nums).max()) * nvar >= _COORD_LIMIT:
        raise AssemblyError("face trace coordinates exceed 62 bits")
    # the trace on {x_axis = 0} keeps the monomials free of x_axis; on
    # {x_axis = 1} it sums over the powers of x_axis
    grid = nums.reshape(len(cands), 3, nvar, nvar, nvar)
    traces = []
    for axis, value in sorted(divmod(FACE_NAMES.index(f), 2) for f in bc.faces):
        trace = grid.sum(axis=2 + axis) if value else grid.take(0, axis=2 + axis)
        traces.append(trace.reshape(len(cands), -1))
    _, expansions, _ = _select_exact(np.hstack(traces), dens, [True] * len(cands))
    m = len(potentials)
    out = []
    for j, coeffs in sorted(expansions.items()):
        combo = cands[j]
        for k, c in coeffs.items():
            combo = combo - cands[k].scale(c)
        if not vanishes_on_faces(combo, bc):
            raise AssemblyError("face-compatibility solve failed to verify")
        # a combination with no weight on a potential is a rigid motion
        if not (j < m or any(i < m for i in coeffs)):
            raise AssemblyError("rigid motion vanishing on a selected face")
        out.append(combo)
    return out


# ---------------------------------------------------------------------------
# the assembled complex
# ---------------------------------------------------------------------------


class ElasticityComplex:
    """Assembled chain V0 -> V1 -> V2 -> V3 with exact operators.

    `levels` are ComplexLevel objects, `ops` the three ExactOperator
    matrices (sym_grad, rotrot_t, Div).  Ranks and kernel dimensions are
    exact integers: a kept image is certified independent, by its zero
    pattern (a structural pivot) or through modular elimination, and a
    discarded image carries an exactly verified rational expansion, so
    rank A_k equals the number of kept images at level k+1.
    Potentials adjoined to V0 add `adjoined_images` to stats[0]: their
    images are independent expansions over V1 generators rather than V1
    basis vectors, and count in `kept_images` and `nonzero_images`.
    """

    def __init__(self, p, bc, levels, ops, stats):
        self.p = p
        self.bc = bc
        self.levels = tuple(levels)
        self.ops = tuple(ops)
        self.stats = tuple(stats)
        self._float = {}

    @property
    def dims(self):
        return tuple(level.dim for level in self.levels)

    @property
    def ranks(self):
        """(rank A0, rank A1, rank A2), exact."""
        return tuple(s["kept_images"] for s in self.stats)

    @property
    def kernel_dims(self):
        """(dim N(A0), dim N(A1), dim N(A2)), exact."""
        dims = self.dims
        ranks = self.ranks
        return tuple(dims[k] - ranks[k] for k in range(3))

    @property
    def harmonic_dims(self):
        """Cohomology dimensions at levels 0..3, exact.

        Level n: dim N(A_n) - rank A_{n-1}; the end level uses A_3 = 0.
        """
        ranks = self.ranks
        kdims = self.kernel_dims
        return (
            kdims[0],
            kdims[1] - ranks[0],
            kdims[2] - ranks[1],
            self.levels[3].dim - ranks[2],
        )

    def verify_complex_property(self):
        """Exact check that A1*A0 = 0 and A2*A1 = 0."""
        return self.ops[1].compose_is_zero(self.ops[0]) and self.ops[
            2
        ].compose_is_zero(self.ops[1])

    def float_grams(self):
        """L2 Grams of the four levels as float matrices (cached): per level
        one `_float_gram` of its `_frame_rows`, so no level is ever dense in
        extended precision as a whole."""
        grams = self._float.get("grams")
        if grams is None:
            grams = tuple(
                _float_gram(_frame_rows(level.kind, level.nums, level.dens, level.nvar))
                for level in self.levels
            )
            self._float["grams"] = grams
        return grams

    def finite_complex(self, g1=None):
        """Float FiniteComplex; g1, when given, replaces the weight on V1."""
        if g1 is None and "complex" in self._float:
            return self._float["complex"]
        grams = list(self.float_grams())
        if g1 is not None:
            grams[1] = np.asarray(g1, dtype=np.float64)
            if grams[1].shape != (self.levels[1].dim,) * 2:
                raise fa.DimensionMismatch("weight on V1 has the wrong shape")
        ops = self._float.get("ops")
        if ops is None:
            ops = tuple(op.to_float() for op in self.ops)
            self._float["ops"] = ops
        cx = fa.FiniteComplex(grams, list(ops))
        if g1 is None:
            self._float["complex"] = cx
        return cx


_COMPLEX_CACHE = {}


# per operator: generator kind, degree below p, and vanishing order
_GENERATORS = {
    "sym_grad": ("symmetric-tensor", 1, 2),
    "rotrot_t": ("symmetric-tensor", 3, 1),
    "Div": ("vector", 4, 0),
}


def _assemble_chain(p, bc):
    """One assembly pass of the chain from the degree-p spaces."""
    nvar = p + 1
    nums = _space_rows(build_space("vector", p, bc, 1), nvar)
    provenance = [("generator", g) for g in range(nums.shape[0])]
    ones = np.ones(nums.shape[0], dtype=np.int64)
    levels = [_normalized_level("vector", nums, ones, provenance, nvar)[0]]
    ops, stats = [], []
    for name, (kind, drop, order) in _GENERATORS.items():
        generators = _generator_space(kind, p - drop, bc, order)
        level, op, s = _assemble_level(levels[-1], name, generators, nvar)
        levels.append(level)
        ops.append(op)
        stats.append(s)
    return ElasticityComplex(p, bc, levels, ops, stats)


def _kernel_overflow_fields(ec):
    """Exact basis of N(A1) modulo R(A0), as fields in the generator span.

    Every image-provenance basis vector of V1 is a symmetric gradient, so
    its A1 column vanishes identically and N(A1) splits into the image span
    plus the kernel of A1 restricted to the generator columns.  The latter
    is computed exactly; its members are the obstruction to discrete
    exactness at level 1.
    """
    level1 = ec.levels[1]
    a1 = ec.ops[1]
    generator = np.array([prov[0] == "generator" for prov in level1.provenance])
    if a1.nums[:, ~generator].count_nonzero():
        raise AssemblyError("image basis vector with nonzero A1 column")
    gen_pos = np.flatnonzero(generator)
    if not gen_pos.size:
        return []
    _, expansions, _ = _select_exact(
        a1.nums[:, gen_pos].T, a1.dens[gen_pos], [True] * len(gen_pos)
    )
    fields = []
    for j, coeffs in sorted(expansions.items()):
        f = level1.field(gen_pos[j])
        for k, c in coeffs.items():
            f = f - level1.field(gen_pos[k]).scale(c)
        if f.is_zero():
            raise AssemblyError("zero overflow field")
        fields.append(f)
    return fields


def _adjoin_potentials(ec, extras):
    """`ec` with the exact vector fields `extras` adjoined to V0.

    V1..V3, A1 and A2 are kept.  Level 0 becomes `ec`'s level-0 rows,
    unchanged on the extras' grid, then the extras' rows, which alone are
    normalised.  Each extra's image must be dependent on V1's generator
    rows; its expansion over them is its A0 column.  Those rows are
    independent of V1's image rows, so coefficient rows of rank len(extras)
    certify rank A0 = rank of `ec`'s A0 + len(extras).
    """
    level0, level1 = ec.levels[0], ec.levels[1]
    nums, dens, nvar0 = _vector_rows(extras, level0.nvar)
    provenance = [("generator", level0.dim + e) for e in range(len(extras))]
    added, _ = _normalized_level("vector", nums, dens, provenance, nvar0)
    nums, dens = _images(
        added.nums, added.dens, "sym_grad", "vector", nvar0, level1.nvar
    )
    gen = [pos for pos, prov in enumerate(level1.provenance) if prov[0] == "generator"]
    kept, expansions, _ = _select_exact(
        sparse.vstack([level1.nums[gen], nums], format="csr"),
        np.concatenate([level1.dens[gen], dens]),
        np.arange(len(gen) + len(extras)) >= len(gen),
    )
    if list(kept) != list(range(len(gen))):
        raise AssemblyError("potential image outside the span of the V1 generators")
    added_a0 = _exact_operator(
        level1.dim,
        np.zeros(level1.dim, dtype=np.int64),
        np.full(len(extras), -1),
        {
            e: [(gen[k], q) for k, q in expansions[len(gen) + e].items()]
            for e in range(len(extras))
        },
    )
    if len(_select_exact(added_a0.nums.T, added_a0.dens, None)[0]) < len(extras):
        raise AssemblyError("adjoined potentials with dependent images")
    # the level-0 rows on the extras' grid: its columns increase with the
    # small grid's, so each row's indices stay sorted
    old, new = level0.nums, added.nums
    nums = sparse.csr_matrix(
        (
            np.concatenate([old.data, new.data]),
            np.concatenate(
                [_grid_columns(3, level0.nvar, nvar0)[old.indices], new.indices]
            ),
            np.concatenate([old.indptr, new.indptr[1:] + old.nnz]),
        ),
        shape=(level0.dim + added.dim, 3 * nvar0**3),
    )
    dens = np.concatenate([level0.dens, added.dens])
    _read_only(nums)
    dens.flags.writeable = False
    level0 = ComplexLevel(
        "vector", nums, dens, level0.provenance + added.provenance, nvar0
    )
    a0 = ExactOperator(
        sparse.hstack([ec.ops[0].nums, added_a0.nums], format="csc"),
        np.concatenate([ec.ops[0].dens, added_a0.dens]),
    )
    s0 = dict(ec.stats[0], adjoined_images=len(extras))
    s0["nonzero_images"] += len(extras)
    s0["kept_images"] += len(extras)
    return ElasticityComplex(
        ec.p, ec.bc, (level0,) + ec.levels[1:], (a0,) + ec.ops[1:], (s0,) + ec.stats[1:]
    )


def build_complex(p, gt="none", use_cache=True):
    """Assemble the discrete elasticity complex of degree p on the box.

    V0: vector fields of degree p, first-order vanishing on the selected
    faces; V1 adds symmetric-tensor generators of degree p-1 with
    second-order vanishing; V2 adds symmetric-tensor generators of degree
    p-3 with first-order vanishing; V3 adds vector generators of degree p-4
    without constraints.  On a constrained direction a generator degree is
    raised to the boundary factor's degree when needed, so no generator
    space collapses merely because the factor does not fit.  Degrees below
    4 cannot carry the chain.

    The chain is assembled once.  Any exact kernel of A1 beyond R(A0) is
    then integrated by the Cesaro-Volterra formula, and every combination of
    the potentials that the boundary conditions admit (up to rigid-motion
    corrections) is adjoined to V0, so the level-1 cohomology dimension
    reflects the geometry rather than a degree-truncation artifact.  Their
    images lie in the span of V1's generator rows, so only level 0 and A0
    grow (`_adjoin_potentials`); V1..V3, A1 and A2 stay as assembled.

    The levels hold integer rows only; the overflow step builds just the
    level-1 generator fields it combines, and the exact coordinates and
    fields of a level are built when first read.
    """
    bc = BoundarySelection.parse(gt)
    if p < 4:
        raise DegreeTooLow("the complex needs degree >= 4, got %d" % p)
    key = (p, bc.faces)
    if use_cache and key in _COMPLEX_CACHE:
        return _COMPLEX_CACHE[key]
    ec = _assemble_chain(p, bc)
    overflow = _kernel_overflow_fields(ec)
    extras = []
    if overflow:
        potentials = [saint_venant_potential(S) for S in overflow]
        extras = _face_compatible_combinations(potentials, bc)
    if extras:
        ec = _adjoin_potentials(ec, extras)
    ec.meta = {
        "first_pass_level1_overflow": len(overflow),
        "potentials_added": len(extras),
        "potentials_rejected": len(overflow) - len(extras),
    }
    if not ec.verify_complex_property():
        raise AssemblyError("assembled operators do not compose to zero")
    if use_cache:
        _COMPLEX_CACHE[key] = ec
    return ec


# ---------------------------------------------------------------------------
# rigid motions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RigidMotionBasis:
    """The six fields x -> a + b x x: three translations, three rotations."""

    fields: tuple

    def exact_gram(self):
        """Exact 6x6 L2(box) Gram matrix, rows/cols in field order."""
        n = len(self.fields)
        return tuple(
            tuple(
                _box_integral(self.fields[i].dot(self.fields[j]))
                for j in range(n)
            )
            for i in range(n)
        )


def _box_integral(poly):
    """Exact integral of a polynomial over the unit box."""
    total = Q(0)
    for (a, b, c), coeff in poly.terms.items():
        total += coeff * Q(1, (a + 1) * (b + 1) * (c + 1))
    return total


def rigid_motion_basis():
    """Translations e_i and rotations x -> e_i x x; sym_grad kills all six."""
    x = Poly3.variable(0)
    y = Poly3.variable(1)
    z = Poly3.variable(2)
    zero = Poly3.zero()
    one = Poly3.constant(1)
    fields = (
        PolyVecField([one, zero, zero]),
        PolyVecField([zero, one, zero]),
        PolyVecField([zero, zero, one]),
        PolyVecField([zero, -z, y]),
        PolyVecField([z, zero, -x]),
        PolyVecField([-y, x, zero]),
    )
    for f in fields:
        if not pc.sym_grad(f).is_zero():
            raise AssertionError("rigid motion with nonzero symmetric gradient")
    return RigidMotionBasis(fields)


def rigid_motion_coordinates(space):
    """Exact coordinates of the six rigid motions in a vector FieldSpace.

    Returns six columns {field index: nonzero rational}.  The space's
    integer rows, followed by the rigid motions' rows on a grid that holds
    both, go through one certified selection; each rigid motion must come
    out dependent, and its expansion over the space's rows is its column.
    Raises ValueError when the space's boundary constraints exclude them.
    """
    if space.kind != "vector":
        raise ValueError("rigid motions live in a vector space, not %r" % space.kind)
    fields = rigid_motion_basis().fields
    rm_nums, rm_dens, nvar = _vector_rows(fields, space.degree + 1)
    nums = sparse.vstack([_space_rows(space, nvar), rm_nums], format="csr")
    dens = np.concatenate([np.ones(space.dim, dtype=np.int64), rm_dens])
    flags = np.arange(nums.shape[0]) >= space.dim
    kept, expansions, _ = _select_exact(nums, dens, flags)
    if any(i >= space.dim for i in kept):
        raise ValueError(
            "space with constraints %s does not contain the rigid motions"
            % space.bc.label
        )
    return [expansions[space.dim + r] for r in range(len(fields))]


def _rigid_motion_matrix(space):
    """The rigid-motion coordinates as the columns of a float (dim, 6) array."""
    R = np.zeros((space.dim, 6))
    for j, col in enumerate(rigid_motion_coordinates(space)):
        for i, q in col.items():
            R[i, j] = float(q)
    return R


# ---------------------------------------------------------------------------
# Korn constant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KornReport:
    constant: float
    p: int
    bc_label: str
    dim: int
    restricted: bool

    def to_dict(self):
        return {
            "constant": self.constant,
            "p": self.p,
            "gt": self.bc_label,
            "dim": self.dim,
            "restricted_to_rm_complement": self.restricted,
        }


def korn_constant(p, gt="none"):
    """Best constant c with ||Grad v|| <= c ||sym_grad v|| on the space.

    Computed on the degree-p vector space with first-order vanishing on the
    selected faces; with no selected faces the supremum runs over the
    L2-orthogonal complement of the rigid motions.  The constant is at least
    1 because ||sym_grad v|| <= ||Grad v|| pointwise.
    """
    bc = BoundarySelection.parse(gt)
    if p < 1:
        raise DegreeTooLow("the Korn quotient needs degree >= 1, got %d" % p)
    space = build_space("vector", p, bc, 1)
    nvar = p + 1
    rows = _space_rows(space, nvar)
    ones = np.ones(rows.shape[0], dtype=np.int64)

    def gram(name, kind):
        nums, dens = _images(rows, ones, name, "vector", nvar, nvar)
        return _float_gram(_frame_rows(kind, nums, dens, nvar))

    K, M = gram("Grad", "matrix"), gram("sym_grad", "symmetric-tensor")
    restricted = not bc.faces
    if restricted:
        g = fa.InnerProduct(np.diag([float(q) for q in space.gram_diag]))
        R = _rigid_motion_matrix(space)
        W = fa.kernel_basis(R.T @ g.G, g)
        K = W.T @ K @ W
        M = W.T @ M @ W
    if K.shape[0] == 0:
        raise DegreeTooLow(
            "the Korn quotient is over an empty space at degree %d" % p
        )
    evals = eigh(K, M, eigvals_only=True)
    return KornReport(
        constant=float(math.sqrt(max(evals[-1], 0.0))),
        p=p,
        bc_label=bc.label,
        dim=space.dim,
        restricted=restricted,
    )


# ---------------------------------------------------------------------------
# cohomology of the assembled complex
# ---------------------------------------------------------------------------


def dirichlet_neumann_fields(p, gt="none", eps=None):
    """Cohomology report at the symmetric-tensor level V1.

    `eps` optionally replaces the V1 Gram by another SPD matrix (a weight);
    the reported dimension is invariant under that choice.
    """
    ec = build_complex(p, gt)
    cx = ec.finite_complex(g1=eps)
    return fa.cohomology(cx, 1)
