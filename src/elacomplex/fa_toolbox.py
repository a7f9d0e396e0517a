"""Finite-dimensional functional-analysis toolbox for Hilbert complexes.

Works on a chain of four weighted inner-product spaces

    H0 --A0--> H1 --A1--> H2 --A2--> H3

given by dense operator matrices and SPD Gram matrices.  Provides weighted
adjoints, kernel/cohomology bases, Helmholtz decompositions, Poincare
constants with extremal vectors, reduced (pseudo-)inverses, regular
decomposition operators, and the kernel-projector identities used for
pre-basis validation.

All computations are float64; ranks are decided by a relative singular
value tolerance.  The weights (e.g. elasticity's epsilon and mu) are the
Grams carried by the middle spaces, so "adjoint" always means adjoint with
respect to those weighted inner products.

`InnerProduct` alone applies a Gram and its Cholesky factor L.  A Gram that
is exactly the identity, as on every cubical de Rham complex, skips those
congruences and gives bit-identical results.  A diagonal Gram does not:
`dtrsm` multiplies by reciprocal pivots, so a diagonal shortcut would change
the bits of `korn`.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular


class DimensionMismatch(ValueError):
    pass


class NotSPD(ValueError):
    pass


class SolverFailure(RuntimeError):
    pass


class ZeroOperator(ValueError):
    pass


class NotOrthogonalToHarmonics(ValueError):
    pass


class InvalidPotential(ValueError):
    pass


class WrongCardinality(ValueError):
    pass


def default_rank_tol(shape, smax):
    return max(shape) * np.finfo(np.float64).eps * smax * 100.0


def _used_tol(shape, s, tol):
    """`tol`, or the default for the singular values s of a `shape` matrix."""
    return default_rank_tol(shape, s[0] if s.size else 0.0) if tol is None else tol


class InnerProduct:
    """SPD Gram matrix G = L L^T defining a weighted inner product.

    The one owner of the Gram congruences: L^T M (`to_orthonormal`),
    L^{-T} Y (`from_orthonormal`), A L^{-T} (`transformed`), P L^T
    (`untransformed`), M G (`times_gram`), G x (`apply_gram`), G^{-1} B
    (`solve_gram`) and the inner product itself.

    A Gram that is exactly the identity skips its congruences: each method
    returns its argument, in the memory order the generic product would give
    (`np.ascontiguousarray` or `np.asfortranarray`, which copy only when the
    order differs), so results keep every bit.  "Exactly" means the bit
    pattern of `np.eye` after symmetrisation: ones on the diagonal and +0.0
    elsewhere.  A -0.0 off the diagonal that symmetrisation keeps (one at
    both (i, j) and (j, i)) takes the generic path; a lone one becomes +0.0
    there and so is the identity.  A diagonal Gram is not skipped: `dtrsm`
    multiplies by reciprocal pivots, so a diagonal shortcut dividing by them
    would change the bits of results such as `korn`.  A result that is a
    view of its argument may pin or alias the caller's array; callers whose
    result escapes copy it.
    """

    def __init__(self, gram):
        G = np.asarray(gram, dtype=np.float64)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise DimensionMismatch("Gram matrix must be square")
        if G.size and not np.allclose(G, G.T, rtol=1e-10, atol=1e-12):
            raise NotSPD("Gram matrix is not symmetric")
        G = 0.5 * (G + G.T)
        self.G = G
        self.is_identity = _is_identity(G)
        if self.is_identity:
            L = np.eye(len(G))  # bitwise the Cholesky factor of I
        else:
            try:
                L = np.linalg.cholesky(G)
            except np.linalg.LinAlgError as exc:
                raise NotSPD("Gram matrix fails Cholesky") from exc
        self.L = L  # G = L L^T

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n))

    @property
    def dim(self):
        return self.G.shape[0]

    def inner(self, x, y):
        return float(self.times_gram(np.asarray(x)) @ np.asarray(y))

    def norm(self, x):
        return float(np.sqrt(max(self.inner(x, x), 0.0)))

    def to_orthonormal(self, M):
        """L^T M: coordinates M in the orthonormal frame."""
        if self.is_identity:
            return np.ascontiguousarray(M)
        return self.L.T @ M

    def from_orthonormal(self, Y):
        """L^{-T} Y: orthonormal coordinates Y back in the space's own."""
        if self.is_identity:
            return np.asfortranarray(Y)
        return solve_triangular(self.L.T, Y, lower=False)

    def transformed(self, A):
        """A L^{-T}: the operator A on this space's orthonormal coordinates."""
        if self.is_identity:
            return np.ascontiguousarray(A)
        return solve_triangular(self.L, A.T, lower=True).T

    def untransformed(self, P):
        """P L^T: a map into orthonormal coordinates, into the space's own."""
        if self.is_identity:
            return np.ascontiguousarray(P)
        return P @ self.L.T

    def times_gram(self, M):
        """M G."""
        if self.is_identity:
            return np.ascontiguousarray(M)
        return M @ self.G

    def apply_gram(self, x):
        """G x."""
        if self.is_identity:
            return np.ascontiguousarray(x)
        return self.G @ x

    def solve_gram(self, B):
        """G^{-1} B."""
        if self.is_identity:
            return np.asfortranarray(B)
        return cho_solve(cho_factor(self.G), B)


def _is_identity(G):
    """Whether the square G has the bit pattern of np.eye, without an n x n
    temporary: the diagonal first, then the entries with any bit set."""
    return bool(
        np.all(np.diagonal(G) == 1.0)
        and np.count_nonzero(G.view(np.uint64)) == len(G)
    )


def random_spd(n, rng):
    """Admissible random weight: B^T B + 0.1 I keeps it SPD."""
    B = rng.uniform(-1.0, 1.0, size=(n, n))
    return B.T @ B + 0.1 * np.eye(n)


class FiniteComplex:
    """Immutable chain H0 -> H1 -> H2 -> H3 with SPD Grams on every level.

    Consecutive operators must compose to at most 1e-12 in every entry.
    """

    def __init__(self, grams, operators):
        if len(grams) != len(operators) + 1:
            raise DimensionMismatch("need one more space than operator")
        self._cache = {}
        self.spaces = [
            g if isinstance(g, InnerProduct) else InnerProduct(g) for g in grams
        ]
        self.operators = [np.asarray(A, dtype=np.float64) for A in operators]
        for i, A in enumerate(self.operators):
            if A.shape != (self.spaces[i + 1].dim, self.spaces[i].dim):
                raise DimensionMismatch(
                    "operator %d has shape %r, expected (%d, %d)"
                    % (i, A.shape, self.spaces[i + 1].dim, self.spaces[i].dim)
                )
        self._composition_norms = []
        for i in range(len(self.operators) - 1):
            comp = self.operators[i + 1] @ self.operators[i]
            m = float(np.max(np.abs(comp))) if comp.size else 0.0
            if m > 1e-12:
                raise DimensionMismatch(
                    "complex property violated at level %d: |A%dA%d|_max = %g"
                    % (i + 1, i + 1, i, m)
                )
            self._composition_norms.append(m)

    @property
    def dims(self):
        return [s.dim for s in self.spaces]

    def gram(self, n):
        return self.spaces[n]

    def op(self, n):
        """A_n, with zero maps beyond the chain ends."""
        if 0 <= n < len(self.operators):
            return self.operators[n]
        if n < 0:
            return np.zeros((self.spaces[0].dim, 0))
        return np.zeros((0, self.spaces[-1].dim))

    def composition_norms(self):
        """max |A_{i+1} A_i| for each consecutive pair, as checked on entry."""
        return list(self._composition_norms)

    def to_json_dict(self):
        return {
            "dims": self.dims,
            "grams": [s.G.tolist() for s in self.spaces],
            "operators": [A.tolist() for A in self.operators],
        }

    @classmethod
    def from_json_dict(cls, data):
        """The complex of a `to_json_dict` document; a NaN or infinite entry
        raises ValueError."""
        dims = data["dims"]
        grams = [np.array(g, dtype=np.float64) for g in data["grams"]]
        ops = [np.array(A, dtype=np.float64) for A in data["operators"]]
        if not all(np.isfinite(M).all() for M in grams + ops):
            raise ValueError("a Gram or operator entry is not finite")
        if len(dims) != len(grams) or any(
            g.shape != (d, d) for d, g in zip(dims, grams)
        ):
            raise DimensionMismatch("gram shape disagrees with dims")
        return cls(grams, ops)


def adjoint(A, g_dom, g_cod):
    """Weighted adjoint: <A x, y>_cod = <x, A* y>_dom for all x, y."""
    A = np.asarray(A, dtype=np.float64)
    if A.shape != (g_cod.dim, g_dom.dim):
        raise DimensionMismatch(
            "A is %r but Grams give (%d, %d)" % (A.shape, g_cod.dim, g_dom.dim)
        )
    if g_dom.dim == 0 or g_cod.dim == 0:
        return A.T.copy()
    # a copy in A.T's order: identity Grams return their argument
    return g_dom.solve_gram(g_cod.times_gram(A.T.copy(order="K")))


def kernel_basis(A, g, tol=None):
    """G-orthonormal basis of N(A), columns of the returned matrix."""
    A = np.asarray(A, dtype=np.float64)
    n = g.dim
    if not A.size:
        A = np.zeros((1, n))
    At = g.transformed(A)
    U, s, Vt = np.linalg.svd(At, full_matrices=True)
    r = int(np.sum(s > _used_tol(At.shape, s, tol)))
    # orthonormal kernel in transformed coordinates; a copy, not a view of Vt
    Y = Vt[r:].T.copy(order="F")
    return g.from_orthonormal(Y)


def rank_of(A, g_dom, g_cod):
    At = g_dom.transformed(np.asarray(A, dtype=np.float64))
    s = np.linalg.svd(At, compute_uv=False) if At.size else np.array([])
    return int(np.sum(s > _used_tol(At.shape, s, None)))


def _harmonic_constraints(cx, n):
    """Rows whose common kernel is N(A_n) ∩ N(A_{n-1}*) at level n."""
    g, A_n, A_prev = cx.gram(n), cx.op(n), cx.op(n - 1)
    empty = np.zeros((1, g.dim))
    # N(A_{n-1}*) = N(A_{n-1}^T G_n): no inverse Gram needed for the kernel
    return np.vstack(
        [A_n if A_n.size else empty, g.times_gram(A_prev.T) if A_prev.size else empty]
    )


class CohomologyReport:
    """The harmonic space N(A_n) ∩ N(A_{n-1}*) at level n of a complex.

    `dimension` is the number of singular values of the stacked constraints
    (in G_n-orthonormal coordinates) that are at most `rank_tol`.  `basis`
    (columns, G_n-orthonormal) is built on first read by `kernel_basis` at
    that same tolerance and kept in the complex's cache; it raises
    SolverFailure if its width disagrees with `dimension`.
    """

    def __init__(self, cx, n, dimension, rank_tol):
        self._cx = cx
        self.n = n
        self.dimension = dimension
        self.rank_tol = rank_tol

    @property
    def basis(self):
        key = ("harmonic_basis", self.n, self.rank_tol)
        B = self._cx._cache.get(key)
        if B is None:
            g = self._cx.gram(self.n)
            B = kernel_basis(
                _harmonic_constraints(self._cx, self.n), g, tol=self.rank_tol
            )
            if B.shape[1] != self.dimension:
                raise SolverFailure(
                    "harmonic basis at level %d has %d columns, not %d"
                    % (self.n, B.shape[1], self.dimension)
                )
            self._cx._cache[key] = B
        return B

    def to_json_dict(self):
        return {
            "n": self.n,
            "dimension": self.dimension,
            "basis": self.basis.tolist(),
            "rank_tol": self.rank_tol,
        }


def cohomology(cx, n, tol=None):
    """Harmonic space N(A_n) ∩ N(A_{n-1}*); its basis is built on first read."""
    key = ("cohomology", n, tol)
    if key not in cx._cache:
        g = cx.gram(n)
        At = g.transformed(_harmonic_constraints(cx, n))
        s = np.linalg.svd(At, compute_uv=False) if At.size else np.array([])
        used_tol = _used_tol(At.shape, s, tol)
        cx._cache[key] = (g.dim - int(np.sum(s > used_tol)), used_tol)
    dimension, used_tol = cx._cache[key]
    return CohomologyReport(cx, n, dimension, used_tol)


def harmonic_projector(cx, n):
    """G_n-orthogonal projector onto the harmonic space at level n."""
    B = cohomology(cx, n).basis
    return cx.gram(n).times_gram(B @ B.T)


@dataclass
class HelmholtzResult:
    x: np.ndarray
    x_range: np.ndarray  # in R(A_{n-1})
    x_harm: np.ndarray
    x_costar: np.ndarray  # in R(A_n*)
    pairings: dict
    residual: float
    kernel_residuals: tuple  # (|A_n x_harm|, |A_{n-1}* x_harm|), op-relative


def _operator_scales(A_prev, A_n, g):
    """max|A_n| and max|A_{n-1}^T G_n|: the scales of Helmholtz's kernel
    residuals."""
    op_a = float(np.max(np.abs(A_n))) if A_n.size else 0.0
    op_b = float(np.max(np.abs(g.times_gram(A_prev.T)))) if A_prev.size else 0.0
    return op_a, op_b


def helmholtz(x, cx, n, tol=1e-10):
    """Split x in H_n into range + harmonic + co-range parts.

    The range parts are G_n-orthogonal projections computed in orthonormal
    coordinates; the harmonic part is the remainder.  Reconstruction and
    pairwise orthogonality are verified at tolerance ``tol`` (relative to
    ``max(1, |x|_G)``).  How well the remainder annihilates A_n and A_{n-1}*
    is reported in ``kernel_residuals`` (relative to the operator scale);
    only a gross inconsistency there raises.  The range bases and operator
    scales are computed once per (complex, level) and cached on ``cx``.
    """
    g = cx.gram(n)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.dim,):
        raise DimensionMismatch("x has wrong dimension")
    A_prev = cx.op(n - 1)
    A_n = cx.op(n)
    xt = g.to_orthonormal(x)

    key = ("helmholtz_bases", n)
    if key not in cx._cache:
        def ortho_range(M):
            # orthonormal basis (in transformed coordinates) of span(L^T M)
            if not M.size:
                return np.zeros((g.dim, 0))
            Mt = g.to_orthonormal(M)
            U, s, _ = np.linalg.svd(Mt, full_matrices=False)
            r = int(np.sum(s > _used_tol(Mt.shape, s, None)))
            return U[:, :r]

        astar = (
            adjoint(A_n, g, cx.gram(n + 1)) if A_n.size else np.zeros((g.dim, 0))
        )
        cx._cache[key] = (
            ortho_range(A_prev),
            ortho_range(astar),
            *_operator_scales(A_prev, A_n, g),
        )
    q_range, q_costar, op_a, op_b = cx._cache[key]

    x_range = g.from_orthonormal(q_range @ (q_range.T @ xt))
    x_costar = g.from_orthonormal(q_costar @ (q_costar.T @ xt))
    x_harm = x - x_range - x_costar
    # Kernel residuals of the remainder, relative to the largest value the
    # operator could produce on an input of x's coordinate size.  They are
    # reported for callers to assert at their own tolerance; only a gross
    # inconsistency (wrong adjoint or Gram) raises here.
    e2 = max(float(np.linalg.norm(x)), 1.0e-300)
    res_a = float(np.max(np.abs(A_n @ x_harm))) if A_n.size else 0.0
    res_b = (
        float(np.max(np.abs(A_prev.T @ g.apply_gram(x_harm)))) if A_prev.size else 0.0
    )
    kernel_residuals = (
        res_a / max(1.0, op_a * e2),
        res_b / max(1.0, op_b * e2),
    )
    if max(kernel_residuals) > 1e-6:
        raise SolverFailure(
            "harmonic remainder fails kernel residuals: %g" % max(res_a, res_b)
        )
    pairings = {
        "range_harm": g.inner(x_range, x_harm),
        "range_costar": g.inner(x_range, x_costar),
        "harm_costar": g.inner(x_harm, x_costar),
    }
    residual = g.norm(x - (x_range + x_harm + x_costar))
    scale = max(1.0, g.norm(x))
    if residual > tol * scale:
        raise SolverFailure("decomposition fails to reconstruct x: %g" % residual)
    worst_pairing = max(abs(v) for v in pairings.values())
    if worst_pairing > tol * scale * scale:
        raise SolverFailure(
            "decomposition parts are not orthogonal: %g" % worst_pairing
        )
    return HelmholtzResult(
        x=x,
        x_range=x_range,
        x_harm=x_harm,
        x_costar=x_costar,
        pairings=pairings,
        residual=residual,
        kernel_residuals=kernel_residuals,
    )


@dataclass
class PoincareReport:
    label: str
    constant: float
    sigma_min: float
    extremal: np.ndarray
    rank_tol: float

    def to_json_dict(self):
        return {
            "label": self.label,
            "constant": self.constant,
            "sigma_min": self.sigma_min,
            "rank_tol": self.rank_tol,
        }


def poincare_constant(A, g_dom, g_cod, label="A", tol=None):
    """c = 1/sigma_min+ of the reduced operator, with its extremal vector.

    sigma are the singular values of L_cod^T A L_dom^{-T}; the constant is
    sharp: the returned extremal x satisfies |x|_dom = c |A x|_cod.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.shape != (g_cod.dim, g_dom.dim):
        raise DimensionMismatch("operator/Gram shapes disagree")
    At = g_cod.to_orthonormal(g_dom.transformed(A))
    U, s, Vt = np.linalg.svd(At)
    used_tol = _used_tol(At.shape, s, tol)
    positive = s[s > used_tol]
    if not positive.size:
        raise ZeroOperator("operator is numerically zero")
    sigma = float(positive[-1])
    k = int(np.sum(s > used_tol)) - 1
    x = g_dom.from_orthonormal(Vt[k].copy())  # not a view of Vt
    return PoincareReport(
        label=label,
        constant=1.0 / sigma,
        sigma_min=sigma,
        extremal=x,
        rank_tol=used_tol,
    )


def complex_constants(cx, tol=None):
    """c0, c1, c2 for the three operators of the chain."""
    out = {}
    for i, name in enumerate(("c0", "c1", "c2")):
        try:
            out[name] = poincare_constant(
                cx.op(i), cx.gram(i), cx.gram(i + 1), label=name, tol=tol
            )
        except ZeroOperator:
            out[name] = None
    return out


def mixed_estimate_check(x, cx, c0, c1):
    """|x|_e^2 <= c1^2 |A1 x|_mu^2 + c0^2 |A0* x|^2 for x perp Harm at n=1."""
    g1 = cx.gram(1)
    x = np.asarray(x, dtype=np.float64)
    H = cohomology(cx, 1).basis
    if H.size:
        coef = H.T @ g1.apply_gram(x)
        if np.linalg.norm(coef) > 1e-8 * max(g1.norm(x), 1e-300):
            raise NotOrthogonalToHarmonics(
                "harmonic component %g" % float(np.linalg.norm(coef))
            )
    a0s = adjoint(cx.op(0), cx.gram(0), g1)
    lhs = g1.inner(x, x)
    t1 = cx.gram(2).inner(cx.op(1) @ x, cx.op(1) @ x) if cx.op(1).size else 0.0
    t2 = cx.gram(0).inner(a0s @ x, a0s @ x) if a0s.size else 0.0
    rhs = c1 * c1 * t1 + c0 * c0 * t2
    slack = rhs - lhs
    holds = lhs <= rhs * (1.0 + 1e-10) + 1e-12
    return holds, slack


def reduced_inverse(A, g_dom, g_cod):
    """Weighted pseudo-inverse P with A P = id on R(A) and R(P) perp N(A)."""
    A = np.asarray(A, dtype=np.float64)
    At = g_cod.to_orthonormal(g_dom.transformed(A))
    U, s, Vt = np.linalg.svd(At, full_matrices=False)
    used_tol = _used_tol(At.shape, s, None)
    inv = np.where(s > used_tol, 1.0 / np.where(s > used_tol, s, 1.0), 0.0)
    Pt = (Vt.T * inv) @ U.T
    # undo the congruence on both sides
    return g_cod.untransformed(g_dom.from_orthonormal(Pt))


@dataclass
class DecompositionOperators:
    n: int
    q1: np.ndarray
    q0: np.ndarray
    complement: np.ndarray  # N = 1 - Q1
    harmonic: np.ndarray  # projector onto Harm composed with N
    potential_n: np.ndarray
    potential_prev: np.ndarray
    harm_dim: int

    def two_term_defect(self, A_prev):
        """max |Q1 + A_{n-1} Q0 - id|; zero iff trivial cohomology at n."""
        n = self.q1.shape[0]
        M = self.q1 + (A_prev @ self.q0 if A_prev.size else 0.0) - np.eye(n)
        return float(np.max(np.abs(M))) if n else 0.0

    def three_term_defect(self, A_prev):
        n = self.q1.shape[0]
        M = (
            self.q1
            + self.harmonic
            + (A_prev @ self.q0 if A_prev.size else 0.0)
            - np.eye(n)
        )
        return float(np.max(np.abs(M))) if n else 0.0


def regular_decomposition(cx, n, p_n=None):
    """Decomposition operators at level n: Q1 = P_n A_n, Q0 = P_{n-1}(1-Q1).

    With trivial cohomology at level n this gives Q1 + A_{n-1} Q0 = id; in
    general the identity needs the harmonic term: Q1 + Qh + A_{n-1} Q0 = id
    where Qh projects the complement onto the harmonic space.  P_n is the
    reduced inverse of A_n unless `p_n` is given; InvalidPotential is raised
    when A_n P_n A_n misses A_n by more than 1e-8 times max(1, max|A_n|).
    """
    A_n = cx.op(n)
    A_prev = cx.op(n - 1)
    g_n = cx.gram(n)
    if p_n is None:
        p_n = reduced_inverse(A_n, g_n, cx.gram(n + 1))
    if A_prev.size:
        p_prev = reduced_inverse(A_prev, cx.gram(n - 1), g_n)
    else:
        p_prev = np.zeros((A_prev.shape[1], g_n.dim))
    if A_n.size:
        defect = float(np.max(np.abs(A_n @ p_n @ A_n - A_n)))
        scale = max(float(np.max(np.abs(A_n))), 1.0)
        if defect > 1e-8 * scale:
            raise InvalidPotential(
                "A_n P_n is not the identity on R(A_n): defect %g" % defect
            )
    dim = g_n.dim
    q1 = p_n @ A_n if A_n.size else np.zeros((dim, dim))
    complement = np.eye(dim) - q1
    pi_h = harmonic_projector(cx, n)
    harmonic = pi_h @ complement
    q0 = p_prev @ complement if A_prev.size else np.zeros((A_prev.shape[1], dim))
    harm_dim = cohomology(cx, n).dimension
    return DecompositionOperators(
        n=n,
        q1=q1,
        q0=q0,
        complement=complement,
        harmonic=harmonic,
        potential_n=p_n,
        potential_prev=p_prev,
        harm_dim=harm_dim,
    )


def operator_norm(M, g_dom, g_cod):
    """Weighted operator norm: largest singular value between the spaces."""
    M = np.asarray(M, dtype=np.float64)
    if not M.size:
        return 0.0
    Mt = g_cod.to_orthonormal(g_dom.transformed(M))
    s = np.linalg.svd(Mt, compute_uv=False)
    return float(s[0]) if s.size else 0.0


def _span_rank(X, g):
    """Rank of the span of the columns of X in the G geometry.

    The inputs here are G-normalized vectors (basis vectors or projections
    of them), so the rank tolerance keeps an O(1) reference scale: a
    matrix of projections that is numerically zero must report rank 0, not
    full rank relative to its own noise level.
    """
    if not X.size:
        return 0
    Y = g.to_orthonormal(X)
    s = np.linalg.svd(Y, compute_uv=False)
    smax = s[0] if s.size else 0.0
    return int(np.sum(s > default_rank_tol(Y.shape, max(smax, 1.0))))


def _same_span(X, Y, g):
    rx = _span_rank(X, g)
    ry = _span_rank(Y, g)
    rj = _span_rank(
        np.hstack([X, Y]) if X.size and Y.size else (X if X.size else Y), g
    )
    return rx == ry == rj


def kernel_projector_images(cx, n=1):
    """Both kernel projector images of the harmonic space, compared.

    pi onto N(A_{n-1}*) applied to N(A_n) and pi onto N(A_n) applied to
    N(A_{n-1}*) both span the harmonic space; the projector onto
    N(A_{n-1}*) annihilates R(A_{n-1}).
    """
    g = cx.gram(n)
    A_n = cx.op(n)
    A_prev = cx.op(n - 1)
    kn = kernel_basis(A_n, g)
    kstar = kernel_basis(g.times_gram(A_prev.T), g)
    pi_star = g.times_gram(kstar @ kstar.T)  # G-orthogonal projector onto N(A*)
    pi_ker = g.times_gram(kn @ kn.T)
    harm = cohomology(cx, n).basis
    img1 = pi_star @ kn
    img2 = pi_ker @ kstar
    range_prev = A_prev if A_prev.size else np.zeros((g.dim, 0))
    on_range = (
        float(np.max(np.abs(pi_star @ range_prev))) if range_prev.size else 0.0
    )
    return {
        "harm_dim": harm.shape[1],
        "image_rank_star": _span_rank(img1, g),
        "image_rank_ker": _span_rank(img2, g),
        "spans_agree": bool(_same_span(img1, harm, g) and _same_span(img2, harm, g))
        if harm.size
        else (_span_rank(img1, g) == 0 and _span_rank(img2, g) == 0),
        "projector_kills_range": on_range,
    }


def pre_basis_check(B, cx, n=1):
    """Validate a candidate pre-basis B (columns) of the harmonic space.

    B must consist of kernel elements of A_n, have exactly harm-dim many
    columns, project onto a basis of the harmonic space, and separate it:
    Harm ∩ B-perp = {0} and N(A_{n-1}*) ∩ B-perp = R(A_n*).
    """
    g = cx.gram(n)
    B = np.asarray(B, dtype=np.float64)
    if B.ndim == 1:
        B = B[:, None]
    B = B.copy()
    for j in range(B.shape[1]):  # scale-invariant rank decisions
        nj = g.norm(B[:, j])
        if nj > 0:
            B[:, j] /= nj
    harm = cohomology(cx, n).basis
    d = harm.shape[1]
    if B.shape[1] != d:
        raise WrongCardinality(
            "pre-basis has %d columns, harmonic dimension is %d"
            % (B.shape[1], d)
        )
    A_prev = cx.op(n - 1)
    kstar = kernel_basis(g.times_gram(A_prev.T), g)
    pi_star = g.times_gram(kstar @ kstar.T)
    projected = pi_star @ B
    proj_rank = _span_rank(projected, g)
    # Harm ∩ B-perp: harmonic combinations annihilated by <B, .>_G
    M = g.times_gram(B.T) @ harm if harm.size else np.zeros((B.shape[1], 0))
    cap_dim = (
        M.shape[1] - np.linalg.matrix_rank(M) if M.size else harm.shape[1]
    )
    # N(A_{n-1}*) ∩ B-perp vs R(A_n*)
    A_n = cx.op(n)
    astar = adjoint(A_n, g, cx.gram(n + 1)) if A_n.size else np.zeros((g.dim, 0))
    if kstar.size:
        W = g.times_gram(B.T) @ kstar
        if W.size:
            _, s, Vt = np.linalg.svd(W, full_matrices=True)
            r = int(np.sum(s > default_rank_tol(W.shape, s[0] if s.size else 0)))
            cap_basis = kstar @ Vt[r:].T
        else:
            cap_basis = kstar
    else:
        cap_basis = np.zeros((g.dim, 0))
    equals_range = _same_span(cap_basis, astar, g)
    ok = proj_rank == d and cap_dim == 0 and equals_range
    return {
        "cardinality": B.shape[1],
        "projected_rank": proj_rank,
        "harm_cap_perp_dim": int(cap_dim),
        "costar_equals_range": bool(equals_range),
        "passed": bool(ok),
    }
