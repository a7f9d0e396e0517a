"""Exact linear algebra over the rationals via multi-modular arithmetic.

The assembly stage and the de Rham oracle need one primitive on rational
row matrices: `select_rows`, which selects a maximal linearly independent
subset of rows in a fixed order (earlier rows win ties) and returns, for
designated dependent rows, the exact rational expansion over the kept rows
that precede them.  The number of kept rows is the certified rank.

Everything runs modulo word-sized primes with float64 BLAS matmuls (a
13-bit limb split keeps every intermediate below 2^53, hence exact), and
dependent-row expansions are lifted to exact rationals by CRT plus
rational reconstruction.  Independence mod any prime already certifies
independence over the rationals; every lifted expansion is then checked
exactly against its rational row before it is returned, and the prime set
grows until the check passes, so a wrong lift can only fail loudly
(`ReconstructionFailure`), never pass.
"""

from math import gcd, isqrt, lcm

import numpy as np

from .rational import Q

# primes just below 2^26; small enough for the limb-split matmul,
# large enough that a random dependency collision is ~2^-26 per prime
PRIMES = (
    67108859,
    67108837,
    67108819,
    67108777,
    67108763,
    67108757,
    67108753,
    67108747,
    67108739,
    67108729,
    67108721,
    67108709,
)

_LIMB = 8192.0  # 2^13


class ReconstructionFailure(RuntimeError):
    """Rational lift could not be certified with the available primes."""


def modmul(A, B, p):
    """Exact (A @ B) mod p for float64 integer matrices with entries in [0, p).

    Splits A into 13-bit limbs so every BLAS accumulation stays below
    2^53.  Requires p < 2^26 and inner dimension <= 2^14.
    """
    if A.shape[1] > 16384:
        raise ValueError("inner dimension too large for exact accumulation")
    hi = np.floor(A / _LIMB)
    lo = A - hi * _LIMB
    return np.remainder(np.remainder(hi @ B, p) * _LIMB + lo @ B, p)


def mod_rows(nums, dens, p):
    """Reduce rational rows nums[i] / dens[i] (int64 numerators) mod p."""
    red = np.remainder(nums, p).astype(np.float64)
    inv = np.array([pow(int(d), -1, p) for d in dens], dtype=np.float64)
    return np.remainder(red * inv[:, None], p)


class _Pass:
    """One prime's sweep: row selection + expansions of flagged rows.

    Maintains R = T K in reduced row echelon form, where K holds the kept
    original rows; the elimination coefficients of a dependent row against
    R, pushed through T, are its expansion over the kept rows.
    """

    def __init__(self, m, p, cap):
        self.m = m
        self.p = p
        self.cap = cap
        self.R = np.zeros((cap, m))
        self.T = np.zeros((cap, cap))
        self.r = 0
        self.pivots = []
        self.kept = []
        self.expansions = {}

    def _append_pivot(self, row_index, residual, lam):
        """Install a new REF row; old rows are cleaned up at block end."""
        p, r = self.p, self.r
        k = len(self.kept)
        lead = int(np.argmax(residual != 0.0))
        inv = float(pow(int(residual[lead]), -1, p))
        rho = np.remainder(residual * inv, p)
        t_new = np.remainder(-lam[: k + 1] * inv, p)
        t_new[k] = inv
        self.R[r] = rho
        self.T[r, : k + 1] = t_new
        self.r += 1
        self.pivots.append(lead)
        self.kept.append(row_index)

    def process_block(self, rows, start, expand_flags):
        """Feed a block of mod-p rows (float64 in [0, p)), in order.

        Rows are first reduced against the standing RREF in one matmul;
        pivots found inside the block eliminate forward over the remaining
        block rows and backward over the block's earlier pivots, and the
        pre-existing rows are cleaned of all new pivot columns in a single
        batched matmul at the end, restoring the RREF invariant.
        """
        p = self.p
        b = rows.shape[0]
        r0 = self.r
        k0 = len(self.kept)
        if r0:
            lam = rows[:, self.pivots].copy()
            rows = np.remainder(rows - modmul(lam, self.R[:r0], p), p)
            lam_k = modmul(lam, self.T[:r0, :k0], p)
        else:
            rows = rows.copy()
            lam_k = np.zeros((b, 0))
        lam_full = np.zeros((b, k0 + b))
        lam_full[:, :k0] = lam_k
        for i in range(b):
            if np.any(rows[i] != 0.0):
                k = len(self.kept)
                self._append_pivot(start + i, rows[i], lam_full[i])
                lead = self.pivots[-1]
                rho = self.R[self.r - 1]
                t_new = self.T[self.r - 1, : k + 1]
                if i + 1 < b:
                    col = rows[i + 1 :, lead].copy()
                    rows[i + 1 :] -= col[:, None] * rho[None, :]
                    np.remainder(rows[i + 1 :], p, out=rows[i + 1 :])
                    seg = lam_full[i + 1 :, : k + 1]
                    seg += col[:, None] * t_new[None, :]
                    np.remainder(seg, p, out=seg)
                if self.r - 1 > r0:  # clean earlier pivots from this block
                    sl = slice(r0, self.r - 1)
                    colb = self.R[sl, lead].copy()
                    if np.any(colb != 0.0):
                        self.R[sl] -= colb[:, None] * rho[None, :]
                        np.remainder(self.R[sl], p, out=self.R[sl])
                        self.T[sl, : k + 1] -= colb[:, None] * t_new[None, :]
                        np.remainder(
                            self.T[sl, : k + 1], p, out=self.T[sl, : k + 1]
                        )
            elif expand_flags[i]:
                self.expansions[start + i] = lam_full[i, : len(self.kept)].copy()
        t = self.r - r0
        if r0 and t:
            k1 = len(self.kept)
            cols = self.R[:r0, :][:, self.pivots[r0:]].copy()
            if np.any(cols != 0.0):
                self.R[:r0] = np.remainder(
                    self.R[:r0] - modmul(cols, self.R[r0 : self.r], p), p
                )
                self.T[:r0, :k1] = np.remainder(
                    self.T[:r0, :k1]
                    - modmul(cols, self.T[r0 : self.r, :k1], p),
                    p,
                )


def _run_pass(nums, dens, expand_flags, p, block):
    n, m = nums.shape
    sweep = _Pass(m, p, min(n, m) + 1)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        sweep.process_block(
            mod_rows(nums[lo:hi], dens[lo:hi], p), lo, expand_flags[lo:hi]
        )
    return sweep


def crt_int(residues, primes):
    """Symmetric-range integer from residues mod pairwise-coprime primes."""
    x, m = 0, 1
    for r, p in zip(residues, primes):
        h = ((int(r) - x) * pow(m % p, -1, p)) % p
        x += m * h
        m *= p
    if 2 * x > m:
        x -= m
    return x, m


def rat_reconstruct(a, m):
    """Wang's rational reconstruction of a mod m; None if no small fraction."""
    a %= m
    if a == 0:
        return Q(0)
    bound = isqrt(m // 2)
    r0, r1 = m, a
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    if gcd(r1, abs(s1)) != 1 or gcd(abs(s1), m) != 1:
        return None
    return Q(r1, s1)


def _select_mod(nums, dens, expand_flags, primes, block):
    """One attempt: a pass per prime, agreeing kept sets, lifted expansions."""
    passes = [_run_pass(nums, dens, expand_flags, p, block) for p in primes]
    kept = passes[0].kept
    for sweep in passes[1:]:
        if sweep.kept != kept:
            raise ReconstructionFailure("prime passes disagree on the kept set")
    expansions = {}
    for idx in passes[0].expansions:
        vecs = [sw.expansions[idx] for sw in passes]
        width = max(v.shape[0] for v in vecs)
        lifted = []
        for j in range(width):
            residues = [int(v[j]) if j < v.shape[0] else 0 for v in vecs]
            a, mod = crt_int(residues, primes)
            q = rat_reconstruct(a % mod, mod)
            if q is None:
                raise ReconstructionFailure(
                    "rational reconstruction failed at row %d" % idx
                )
            lifted.append(q)
        lifted += [Q(0)] * (len(kept) - width)
        expansions[idx] = lifted
    return kept, expansions


def _expansions_hold(nums, dens, kept, expansions):
    """Exact check that each row nums[i]/dens[i] equals its expansion."""
    for idx, coeffs in expansions.items():
        weights = [(k, c / int(dens[k])) for c, k in zip(coeffs, kept) if c != 0]
        den = int(dens[idx])
        scale = lcm(den, *(int(w.denominator) for _, w in weights))
        acc = nums[idx].astype(object) * (scale // den)
        for k, w in weights:
            nz = np.flatnonzero(nums[k])
            acc[nz] -= nums[k, nz].astype(object) * int(w * scale)
        if np.any(acc != 0):
            return False
    return True


def select_rows(nums, dens=None, expand_flags=None, primes=None, block=128):
    """Select a maximal independent row subset, in order, with exact lifts.

    nums: (n, m) int64 numerators; dens: (n,) integer denominators.
    expand_flags: boolean mask of rows whose dependency (if any) must be
    returned as an exact rational expansion over earlier kept rows.

    Returns (kept_indices, expansions, primes_used): expansions maps a
    dependent flagged row index to a list of Q aligned with kept_indices
    (zeros for kept rows that come after it), and primes_used is the number
    of primes of the attempt that succeeded.  Kept rows are certifiably
    independent over Q (independence mod one prime suffices); the kept set
    is cross-checked over every prime of an attempt, and every expansion is
    verified exactly against nums[i] / dens[i].

    With `primes` given, exactly one attempt runs with exactly those primes.
    Otherwise the attempts climb a ladder: the first 3 primes when any row
    is flagged (2 when none is), then 5, 8 and 12.  ReconstructionFailure
    is raised when no attempt yields a verified selection.
    """
    n, m = nums.shape
    nums = np.ascontiguousarray(nums, dtype=np.int64)
    if dens is None:
        dens = np.ones(n, dtype=np.int64)
    if expand_flags is None:
        expand_flags = np.zeros(n, dtype=bool)
    if primes is not None:
        ladder = (tuple(primes),)
    else:
        first = 3 if np.any(expand_flags) else 2
        ladder = tuple(PRIMES[:k] for k in (first, 5, 8, 12))
    for attempt in ladder:
        try:
            kept, expansions = _select_mod(nums, dens, expand_flags, attempt, block)
        except ReconstructionFailure:
            continue
        if _expansions_hold(nums, dens, kept, expansions):
            return kept, expansions, len(attempt)
    raise ReconstructionFailure(
        "no verified selection with up to %d primes" % len(ladder[-1])
    )
