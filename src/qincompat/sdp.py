"""Dense semidefinite programming in equality standard form.

A problem is

    minimize    sum_b <C_b, X_b> + sum_j c_j u_j
    subject to  sum_b <A_kb, X_b> + sum_j a_kj u_j = rhs_k   for every row k,
                X_b >= 0 (Hermitian PSD blocks),  u_j >= 0 (scalars),

with <A, X> = Re tr(AX), solved with a Nesterov-Todd scaled Mehrotra
predictor-corrector interior point method directly on the complex Hermitian
blocks.  The implementation is dense and deterministic: no randomized
pivoting, no threading-dependent reductions, so repeated solves of the same
problem return bit-identical results.

The variables are grouped by side and by kind (complex, or real for the
declared real blocks and the scalars, which are real 1x1 variables), in order
of first appearance.  Each group keeps its iterates in one (nb, n, n) stack,
so the NT scaling (Cholesky, SVD), the directions and the step search are one
batched LAPACK or BLAS call per group and step.  The constraint matrix A is
real: row k holds, group after group, the float view of the stack of the
coefficient matrices A_kv, row-major with a complex entry as its (re, im)
pair, so 2 n^2 floats per complex block and n^2 per real one.  That view
gives flat(A) . flat(X) = Re sum_ij conj(A_ij) X_ij = Re tr(A^H X), which is
<A, X> = Re tr(AX) for Hermitian data, so packing and unpacking are reshapes
with no scale factors.

Each iteration forms the Schur complement M = A W A^T, with the NT scaling
W_v = R_v R_v^H: M_kl = sum_v Re tr(W_v A_kv W_v A_lv).  Rows come in two
forms, with one way to form M each:

* plain rows (``LinearConstraint``, any coefficient matrices): group by
  group, the rows touching a group are copied out of A and viewed as one
  stack, scaled by R with two batched products, and contribute one
  symmetric rank-k product of the copy (``_schur_complement``);
* row families (``families.RowFamily``): the rows of one operator
  equation, whose coefficient on each variable is a ``Lift`` of the basis
  element, I (x) H on some tensor factors of the block or Tr H.  M is a
  partial-trace contraction of W, one batched matrix product per pair of
  lift kinds on a group (``families.LiftSchur``).

A problem whose rows all come from families takes the contraction; any
plain row sends the whole problem to the dense build, which is the
reference the contraction is tested against.  Either way A itself stays
dense, for the presolve and for A x and A^T y.

The search direction is solved in NT-scaled coordinates.  R_v^-1 X_v R_v^-H
= R_v^H S_v R_v = Lambda_v = diag(lam), and the scaled steps are dX^ =
R^-1 dX R^-H and dS^ = R^H dS R.  Linearizing the symmetrized
complementarity (X^ S^ + S^ X^)/2 = sigma mu I at X^ = S^ = Lambda gives, for
D = dX^ + dS^,

    (Lambda D + D Lambda) / 2 = T,   solved by   D_ij = 2 T_ij / (lam_i + lam_j),

and dX = R D R^H - W dS W with W = R R^H.  The predictor takes T = -Lambda^2
(so D = -Lambda, the affine step to mu = 0); the corrector takes
T = sigma mu I - Lambda^2 - (dX^_a dS^_a + dS^_a dX^_a)/2 with the
predictor's scaled steps dX^_a, dS^_a and Mehrotra's sigma = (mu_aff/mu)^3.
Both go through ``_lyap``.

The Schur complement is factored once per step (``_chol``), and both solves
of the step substitute through that factor block by block, with the
diagonal blocks inverted once per step (``_chol_solver``).

Redundant equality rows are removed before the iteration starts: rows are
taken in order, and a row that is a combination of the rows kept before it
(an unpivoted Householder QR of A^T, rank threshold ``RANK_TOL`` relative to
the largest diagonal entry of R) is dropped.  An inconsistent equality
system is reported as infeasible outright.
A strictly feasible starting point can be injected through ``solve`` when the
caller knows one; otherwise a scaled-identity cold start is used.

Only invalid input raises.  Every stop is a status returned with the iterate
it was decided on: ``optimal`` (residuals, gap and mu within tolerance),
``infeasible`` / ``unbounded`` (a Farkas certificate tested against its own
scale), ``stalled`` (three steps in a row shorter than 1e-8, a step that broke
down, or iterates grown 1e14 times past the starting point's scale without
a certificate) or ``max_iter``.  A ``stalled`` or ``max_iter`` solve returns
the iterate closest to the convergence test, not the last one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt
from numbers import Integral

import numpy as np

from .families import LiftSchur, RowFamily, check_families, write_rows
from .linalg import ContractError, DimensionError, hermitian_basis, require_hermitian

DEFAULT_FEAS_TOL = 1e-8
DEFAULT_GAP_TOL = 1e-8
DEFAULT_MAX_ITER = 200
RANK_TOL = 1e-10
SUBST_BLOCK = 64  # largest diagonal block of the Schur substitution
STEP_FRACTION = 0.98


class SolverFailure(RuntimeError):
    """Raised by ``require_optimal`` when a solve did not reach the optimal
    status; ``solution`` is that solve's ``SdpSolution``."""

    def __init__(self, message, solution):
        super().__init__(message)
        self.solution = solution


def require_optimal(sol, what):
    """Raise ``SolverFailure`` unless the solve reached the optimal status."""
    if sol.status != "optimal":
        raise SolverFailure(f"{what} solve ended with status {sol.status}", sol)


@dataclass(frozen=True)
class SolveOptions:
    feas_tol: float = DEFAULT_FEAS_TOL
    gap_tol: float = DEFAULT_GAP_TOL
    max_iter: int = DEFAULT_MAX_ITER


@dataclass
class LinearConstraint:
    """One equality row: sum of block inner products plus scalar terms = rhs."""

    coeffs: dict[int, np.ndarray]
    rhs: float = 0.0
    scalar_coeffs: dict[int, float] = field(default_factory=dict)


@dataclass
class SdpProblem:
    """Equality standard form with Hermitian PSD blocks and nonnegative scalars.

    ``blocks`` lists the side length of each matrix variable.  Blocks are
    complex Hermitian unless their index appears in ``real_blocks``, in which
    case all data touching them must be real symmetric.  ``scalar_costs``
    declares one nonnegative scalar variable per entry.  The rows are the
    plain ``constraints``, then the rows of each of the ``families``.
    """

    blocks: list[int]
    objective: list[np.ndarray]
    constraints: list[LinearConstraint] = field(default_factory=list)
    scalar_costs: list[float] = field(default_factory=list)
    real_blocks: frozenset = frozenset()
    families: list[RowFamily] = field(default_factory=list)

    def validate(self):
        if not self.blocks and not self.scalar_costs:
            raise DimensionError("problem has no variables: no blocks and no scalars")
        if len(self.objective) != len(self.blocks):
            raise DimensionError("objective must have one matrix per block")
        for b in self.real_blocks:
            if b < 0 or b >= len(self.blocks):
                raise DimensionError(f"real block {b} is not in the block list")
        if not np.all(np.isfinite(self.scalar_costs)):
            raise ContractError("scalar_costs has non-finite entries")
        for b, (n, c) in enumerate(zip(self.blocks, self.objective)):
            if n < 1:
                raise DimensionError(f"block {b} has nonpositive dimension {n}")
            if c.shape != (n, n):
                raise DimensionError(f"objective for block {b} has shape {c.shape}, expected {(n, n)}")
            require_hermitian(c, what=f"objective block {b}")
            if b in self.real_blocks and np.abs(c.imag).max() > 1e-12:
                raise ContractError(f"objective for real block {b} has imaginary part")
        for k, con in enumerate(self.constraints):
            if not np.isfinite(con.rhs):
                raise ContractError(f"constraint {k} has non-finite rhs")
            for b, a in con.coeffs.items():
                if b < 0 or b >= len(self.blocks):
                    raise DimensionError(f"constraint {k} references unknown block {b}")
                n = self.blocks[b]
                if a.shape != (n, n):
                    raise DimensionError(f"constraint {k} coefficient on block {b} has shape {a.shape}")
                require_hermitian(a, what=f"constraint {k} coefficient on block {b}")
                if b in self.real_blocks and np.abs(a.imag).max() > 1e-12:
                    raise ContractError(f"constraint {k} has complex data on real block {b}")
            for j, a in con.scalar_coeffs.items():
                if j < 0 or j >= len(self.scalar_costs):
                    raise DimensionError(f"constraint {k} references unknown scalar {j}")
                if not np.isfinite(a):
                    raise ContractError(f"constraint {k} has non-finite coefficient on scalar {j}")
        check_families(self)
        return self


@dataclass
class SdpSolution:
    # optimal | infeasible | unbounded | stalled (short steps, a step that
    # broke down, or divergence) | max_iter: see the module docstring
    status: str
    primal_value: float
    dual_value: float
    block_values: list[np.ndarray]
    scalar_values: list[float]
    y: np.ndarray
    dual_blocks: list[np.ndarray]
    gap: float
    iterations: int
    primal_residual: float
    dual_residual: float


def hermitian_equality(dim, terms, rhs=None, scalar_terms=()) -> list[LinearConstraint]:
    """Expand an operator equality into scalar rows against a Hermitian basis.

    ``terms`` is a list of ``(block_index, fn)`` pairs where ``fn(H)`` is the
    coefficient matrix the block picks up when the equality is tested against
    the basis element ``H``; ``scalar_terms`` likewise maps basis elements to
    scalar-variable coefficients.  The row's right-hand side is Tr[H rhs].
    """
    rows = []
    for h in hermitian_basis(dim):
        coeffs = {}
        for b, fn in terms:
            m = fn(h)
            coeffs[b] = coeffs[b] + m if b in coeffs else m
        sc = {}
        for j, fn in scalar_terms:
            v = np.real(fn(h)).item()
            if v != 0.0:
                sc[j] = sc.get(j, 0.0) + v
        r = 0.0 if rhs is None else float(np.trace(h @ rhs).real)
        rows.append(LinearConstraint(coeffs, r, sc))
    return rows


def _embed_herm(m: np.ndarray) -> np.ndarray:
    x, y = m.real, m.imag
    return np.block([[x, -y], [y, x]])


def real_embed(problem: SdpProblem) -> SdpProblem:
    """Rewrite complex Hermitian blocks over the reals.

    Each complex block of side n becomes a real symmetric block of side 2n;
    its data matrices are embedded and halved so every inner product, and
    with it the primal and dual objective values, is preserved.  Blocks
    already declared real pass through unchanged.  ``solve`` works on the
    complex blocks directly and does not use this transform.
    """
    problem.validate()
    blocks, objective = [], []
    for b, (n, c) in enumerate(zip(problem.blocks, problem.objective)):
        if b in problem.real_blocks:
            blocks.append(n)
            objective.append(c.real.copy())
        else:
            blocks.append(2 * n)
            objective.append(_embed_herm(c) / 2)
    constraints = []
    for con in problem.constraints:
        coeffs = {}
        for b, a in con.coeffs.items():
            coeffs[b] = a.real.copy() if b in problem.real_blocks else _embed_herm(a) / 2
        constraints.append(LinearConstraint(coeffs, con.rhs, dict(con.scalar_coeffs)))
    return SdpProblem(
        blocks=blocks,
        objective=objective,
        constraints=constraints,
        scalar_costs=list(problem.scalar_costs),
        real_blocks=frozenset(range(len(blocks))),
    )


def _ct(a):
    """Conjugate transpose of the last two axes."""
    return np.swapaxes(a, -1, -2).conj()


def _herm(a):
    return (a + _ct(a)) / 2


def _diag(v):
    """The stack of diagonal matrices with the rows of ``v`` on the diagonal."""
    return v[:, :, None] * np.eye(v.shape[1])


def _lyap(lam, t):
    """Solve (Lambda D + D Lambda)/2 = T for D on a stack: D_ij = 2 T_ij / (lam_i + lam_j).

    ``lam`` is an (nb, n) array of positive eigenvalues and ``t`` an (nb, n, n)
    Hermitian stack; D is returned Hermitian.
    """
    return _herm(2 * t / (lam[:, :, None] + lam[:, None, :]))


def _inner(xs, ss):
    """sum_v Re tr(X_v S_v) over lists of stacks."""
    return sum(np.vdot(s, x).real for x, s in zip(xs, ss))


def _block_stack(mats, cplx):
    if cplx:
        return np.array(mats, dtype=complex)
    return np.array([np.real(a) for a in mats], dtype=float)


def _pack(stacks):
    """One vector of the float views of a list of stacks, in order."""
    return np.concatenate([x.ravel().view(np.float64) for x in stacks])


class _Group:
    """The variables of one side and kind (complex or real), stacked.

    Their columns in A hold the float view of the (nb, n, n) stack: row-major,
    a complex entry as its (re, im) pair, so 2 n^2 floats per complex member
    and n^2 per real one.  The iterates live in one such stack, so each step
    of the iteration is one batched call per group.
    """

    def __init__(self, n, cplx, members, lo):
        self.n, self.cplx, self.members = n, cplx, members
        self.nb = len(members)
        self.size = 2 * n * n if cplx else n * n
        self.lo, self.hi = lo, lo + self.nb * self.size

    def stack(self, mats):
        """This group's members of a list indexed by variable."""
        return _block_stack([mats[v] for v in self.members], self.cplx)

    def eye(self):
        return np.repeat(np.eye(self.n, dtype=complex if self.cplx else float)[None], self.nb, axis=0)

    def view(self, f):
        """The (..., nb, n, n) stacks whose float views are the last axis of ``f``."""
        return (f.view(np.complex128) if self.cplx else f).reshape(f.shape[:-1] + (self.nb, self.n, self.n))

    def unpack(self, v):
        """This group's stack in a packed vector, as a view."""
        return self.view(v[self.lo: self.hi])


def _info_columns(groups):
    """Columns of A holding the diagonal and upper triangle of every member,
    and their weights: 1 on the diagonal and sqrt(2) off it, so for
    Hermitian data the weighted columns carry the inner products of the
    whole float view (the lower triangle only repeats them)."""
    cols, weights = [], []
    for g in groups:
        i, j = np.triu_indices(g.n)
        weight = np.where(i == j, 1.0, sqrt(2))
        if g.cplx:
            # (re, im) of the upper triangle; a diagonal entry is real
            off = np.concatenate([2 * (i * g.n + j), 2 * (i * g.n + j)[i < j] + 1])
            weight = np.concatenate([weight, weight[i < j]])
        else:
            off = i * g.n + j
        cols.append((g.lo + g.size * np.arange(g.nb)[:, None] + off).ravel())
        weights.append(np.tile(weight, g.nb))
    return np.concatenate(cols), np.concatenate(weights)


def _schur_plan(amat, groups):
    """Per group with any nonzero coefficient: its index and the rows of
    ``amat`` that touch it."""
    plan = []
    for gi, g in enumerate(groups):
        rows = np.flatnonzero(amat[:, g.lo: g.hi].any(axis=1))
        if rows.size:
            plan.append((gi, g, rows))
    return plan


def _schur_complement(amat, plan, rs):
    """Schur complement M = A W A^T of the NT scaling W_v = R_v R_v^H.

    Row k of ``amat`` holds the float view of A_kv on every variable v, so
    M_kl = sum_v Re tr(W_v A_kv W_v A_lv) = sum_v <R_v^H A_kv R_v, R_v^H A_lv R_v>.
    Each group copies the rows that touch it out of A, views the copy as one
    (k, nb, n, n) stack, scales it with two batched products and adds the
    rank-k product of the copy (Re G G^H, the float view's inner products of
    the Hermitian G = R^H A R) into those rows and columns of M.
    """
    m = amat.shape[0]
    schur = np.zeros((m, m))
    for gi, g, rows in plan:
        r = rs[gi]
        f = amat[rows, g.lo: g.hi]
        stack = g.view(f)
        # the stack is the largest array of the build: scale it in place
        np.matmul(_ct(r), stack @ r, out=stack)
        schur[np.ix_(rows, rows)] += f @ f.T
    return schur


def _svd(m):
    """Batched SVD by LAPACK gesdd; when gesdd fails to converge, the SVD of
    every block comes from the eigenvectors of its Hermitian dilation.

    gesdd can fail on well-conditioned input.  The dilation [[0, B], [B^H, 0]]
    has eigenvalues +-sigma with eigenvectors [u; +-v] / sqrt(2).  Its n
    largest eigenpairs give sigma without squaring it, and sqrt(2) times the
    top and bottom halves of their vectors give U and V.  These are
    orthonormal also where sigma repeats, as long as B is nonsingular.
    """
    try:
        return np.linalg.svd(m)
    except np.linalg.LinAlgError:
        n = m.shape[-1]
        dil = np.zeros(m.shape[:-2] + (2 * n, 2 * n), dtype=m.dtype)
        dil[..., :n, n:] = m
        dil[..., n:, :n] = _ct(m)
        lam, vec = np.linalg.eigh(dil)
        top = slice(2 * n - 1, n - 1, -1)  # the n largest, descending
        vec = sqrt(2) * vec[..., top]
        return vec[..., :n, :], lam[..., top], _ct(vec[..., n:, :])


def _independent_rows(amat, groups):
    """Sorted indices of a maximal set of linearly independent rows.

    Rows are taken in order, and a row is kept unless it is a combination of
    the rows before it: an unpivoted Householder QR of A^T (only R is
    formed) drops row k where |R_kk| <= ``RANK_TOL`` max(1, max_j |R_jj|).
    A^T holds only each block's diagonal and upper-triangle columns
    (``_info_columns``), about half the columns of A.

    A dropped row leaves an arbitrary direction in Q, and a later |R_kk|
    misses the part of its row along it; rows past the side of R get no
    R_kk at all.  So the dropped rows are checked against the kept ones
    alone: in a QR with the kept rows first, a dropped row's column of R
    below them is its residual.  A row found independent is kept, and the
    check repeats.
    """
    cols, weights = _info_columns(groups)
    a = amat[:, cols] * weights
    diag = np.abs(np.diag(np.linalg.qr(a.T, mode="r")))
    tol = RANK_TOL * max(1.0, diag.max(initial=0.0))
    keep = np.zeros(len(a), dtype=bool)
    keep[: diag.size] = diag > tol
    while not keep.all():
        kept, dropped = np.flatnonzero(keep), np.flatnonzero(~keep)
        r = np.linalg.qr(a[np.concatenate([kept, dropped])].T, mode="r")
        resid = np.linalg.norm(r[kept.size:, kept.size:], axis=0)
        if (resid <= tol).all():
            break
        keep[dropped[np.argmax(resid > tol)]] = True
    return np.flatnonzero(keep)


def _chol(stack):
    """Batched Cholesky; when it fails, every member is factored on its own,
    shifted by 0, 1e-14, 1e-10, then 1e-6 times max(1, its mean eigenvalue).
    Raises ``LinAlgError`` if a member fails every shift."""
    try:
        return np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        pass
    n = stack.shape[-1]
    out = np.empty_like(stack)
    for i, m in enumerate(stack):
        base = max(np.trace(m).real / n, 1.0)
        for shift in (0.0, 1e-14, 1e-10, 1e-6):
            try:
                out[i] = np.linalg.cholesky(m + base * shift * np.eye(n))
                break
            except np.linalg.LinAlgError:
                pass
        else:
            raise np.linalg.LinAlgError("Cholesky failed at every shift")
    return out


def _diag_blocks(a, s):
    """Writable view of the (n/s, s, s) stack of diagonal blocks of the
    C-contiguous n x n matrix ``a``; s divides n."""
    n, item = a.shape[0], a.itemsize
    return np.ndarray((n // s, s, s), a.dtype, a, 0, ((n + 1) * s * item, n * item, item))


def _chol_solver(l):
    """The map x -> (L L^T)^-1 x for the lower-triangular Cholesky factor L,
    by forward and back substitution in blocks.

    The block side b is the smallest power of two not below the side of L,
    capped at ``SUBST_BLOCK``; L is padded with an identity to a multiple of
    b.  The diagonal blocks are inverted once here, so every solve is two
    matrix-vector products per block.  They are inverted in place by
    recursive doubling: with A and C inverted, [[A, 0], [B, C]]^-1 =
    [[A^-1, 0], [-C^-1 B A^-1, C^-1]].  The copy of L is negated, so a level
    is the product pair C^-1 (-B) A^-1 alone, and the substitution adds the
    negated blocks off the diagonal; negation is exact, so the result is the
    same as with L.  ``l`` is not modified.
    """
    m = l.shape[0]
    b = min(SUBST_BLOCK, 1 << (m - 1).bit_length())
    n = -(-m // b) * b
    w = np.zeros((n, n))
    np.subtract(0.0, l, out=w[:m, :m])  # -L with +0 above the diagonal
    diag = w.reshape(-1)[:: n + 1]
    diag[m:] = -1.0
    np.divide(-1.0, diag, out=diag)
    h = 1
    while h < b:
        x = _diag_blocks(w, 2 * h)
        np.matmul(x[:, h:, h:] @ x[:, h:, :h], x[:, :h, :h], out=x[:, h:, :h])
        h *= 2

    def solve(rhs):
        x = np.zeros(n)
        x[:m] = rhs
        x[:b] = w[:b, :b] @ x[:b]  # L y = rhs
        for lo in range(b, n, b):
            s = slice(lo, lo + b)
            x[s] = w[s, s] @ (x[s] + w[s, :lo] @ x[:lo])
        x[n - b:] = x[n - b:] @ w[n - b:, n - b:]  # L^T x = y
        for lo in range(n - 2 * b, -1, -b):
            s = slice(lo, lo + b)
            x[s] = (x[s] + x[lo + b:] @ w[lo + b:, s]) @ w[s, s]
        return x[:m]

    return solve


def _certificate(groups, b, cvec, aty, ax, xvec, pobj, dobj, y):
    """``infeasible`` (b.y > 0, A^T y <= 0) or ``unbounded`` (c.x < 0, A x = 0)
    when the iterate is a Farkas certificate, else None.  Each quantity is
    tested against its own scale, so scaling the data keeps the verdict; b.y
    and c.x get a margin, as rounding in c.x = 0 is no certificate."""
    if dobj > 1e-10 * np.linalg.norm(b) * np.linalg.norm(y):
        top = max(np.linalg.eigvalsh(g.unpack(aty))[:, -1].max() for g in groups)
        if top <= 1e-9 * np.linalg.norm(aty):
            return "infeasible"
    xnorm = np.linalg.norm(xvec)
    if pobj < -1e-10 * np.linalg.norm(cvec) * xnorm and np.linalg.norm(ax) <= 1e-9 * xnorm:
        return "unbounded"


def _step(groups, amat, schur, xs, ss, rp, rds, mu, n_tot):
    """One Mehrotra predictor-corrector direction (dX, dy, dS) at the iterate
    and its primal and dual step lengths.  ``schur(rs, ws)`` forms the Schur
    complement from the NT scaling W = R R^H of every group.  Raises
    ``LinAlgError`` when a factorization breaks down."""
    m = amat.shape[0]

    # Nesterov-Todd scaling W = R R^H with R^H S R = R^-1 X R^-H = diag(lam)
    rs, rsh, rinvs, rinvsh, lams, ws = [], [], [], [], [], []
    for x, s in zip(xs, ss):
        lx, ls = _chol(x), _chol(s)
        u, sig, vh = _svd(_ct(ls) @ lx)
        sig = np.maximum(sig, 1e-300)
        root = np.sqrt(sig)
        r = (lx @ _ct(vh)) / root[:, None, :]
        rinv = (_ct(u) @ _ct(ls)) / root[:, :, None]
        rs.append(r)
        rsh.append(_ct(r))
        rinvs.append(rinv)
        rinvsh.append(_ct(rinv))
        lams.append(sig)
        ws.append(r @ rsh[-1])
    roots = [np.sqrt(lam[:, :, None] * lam[:, None, :]) for lam in lams]

    # Schur complement, factored once for both solves
    if m:
        schur_solve = _chol_solver(_chol(schur(rs, ws)[None])[0])

    def direction(dhats):
        rdr = [r @ dh @ rh for r, dh, rh in zip(rs, dhats, rsh)]
        if m:
            rhs = rp + amat @ _pack([w @ rd @ w - q for w, rd, q in zip(ws, rds, rdr)])
            dy = schur_solve(rhs)
        else:
            dy = np.zeros(0)
        ady = amat.T @ dy
        dss = [rd - g.unpack(ady) for g, rd in zip(groups, rds)]
        dxs = [_herm(q - w @ ds @ w) for q, w, ds in zip(rdr, ws, dss)]
        return dxs, dy, dss

    def boundary(dlist, left, right):
        # largest step keeping the scaled blocks positive definite
        a = np.inf
        for d, lm, rm, root in zip(dlist, left, right, roots):
            wmin = np.linalg.eigvalsh(_herm(lm @ d @ rm) / root)[:, 0].min()
            if wmin < -1e-14:
                a = min(a, -1.0 / wmin)
        return a

    # predictor: T = -Lambda^2, so D = -Lambda
    dxa, _, dsa = direction([_lyap(lam, -_diag(lam**2)) for lam in lams])
    ap = min(1.0, boundary(dxa, rinvs, rinvsh))
    ad = min(1.0, boundary(dsa, rsh, rs))
    mu_aff = _inner(
        [x + ap * dx for x, dx in zip(xs, dxa)],
        [s + ad * ds for s, ds in zip(ss, dsa)],
    ) / n_tot
    mu_aff = max(mu_aff, 0.0)
    sigma = min(1.0, max((mu_aff / mu) ** 3 if mu > 0 else 0.0, 1e-12))

    # corrector: T = sigma mu I - Lambda^2 - (dX^ dS^ + dS^ dX^)/2 of the predictor
    dhats = []
    for r, rh, rinv, rinvh, lam, dx, ds in zip(rs, rsh, rinvs, rinvsh, lams, dxa, dsa):
        dxh = rinv @ dx @ rinvh
        dsh = rh @ ds @ r
        dhats.append(_lyap(lam, _diag(sigma * mu - lam**2) - (dxh @ dsh + dsh @ dxh) / 2))
    dxs, dy, dss = direction(dhats)
    ap = min(1.0, STEP_FRACTION * boundary(dxs, rinvs, rinvsh))
    ad = min(1.0, STEP_FRACTION * boundary(dss, rsh, rs))
    return dxs, dy, dss, ap, ad


def _ipm(groups, cs, amat, b, opts, schur, x0=None):
    """Core iteration on the block groups.  ``cs``, ``x0`` and the iterates
    hold one (nb, n, n) stack per group; ``schur`` forms the Schur complement
    (see ``_step``).  Returns the status, the iteration
    count, the iterate the status was decided on (for ``stalled`` and
    ``max_iter``, the one closest to the convergence test) and its
    objectives and residuals."""
    n_tot = sum(g.nb * g.n for g in groups)
    cvec = _pack(cs)
    bnorm = 1.0 + np.linalg.norm(b)
    cnorm = 1.0 + np.linalg.norm(cvec)

    if x0 is not None:
        # lift every block to a smallest eigenvalue of at least 1e-6
        xs = [
            x + np.maximum(1e-6 - np.linalg.eigvalsh(x)[:, 0], 0.0)[:, None, None] * np.eye(g.n)
            for g, x in zip(groups, x0)
        ]
    else:
        scale = 10.0 * max(1.0, float(np.max(np.abs(b), initial=0.0)))
        xs = [scale * g.eye() for g in groups]
    eta = 1.0 + max(np.linalg.norm(c, axis=(1, 2)).max() for c in cs)
    ss = [eta * g.eye() for g in groups]
    y = np.zeros(amat.shape[0])
    # divergence is judged against the starting point's scale: X against
    # its start, y against eta, the start of S (the rows have unit norm)
    xdiverged = 1e14 * np.linalg.norm(_pack(xs))
    ydiverged = 1e14 * eta

    stall = 0
    best = best_score = None
    for it in range(opts.max_iter + 1):
        xvec = _pack(xs)
        ax = amat @ xvec
        aty = amat.T @ y
        rp = b - ax
        rds = [c - s - g.unpack(aty) for g, c, s in zip(groups, cs, ss)]
        pobj = float(cvec @ xvec)
        dobj = float(b @ y)
        mu = _inner(xs, ss) / n_tot
        prel = np.linalg.norm(rp) / bnorm
        drel = sqrt(sum(np.linalg.norm(r) ** 2 for r in rds)) / cnorm
        grel = abs(pobj - dobj) / (1.0 + abs(pobj))
        murel = n_tot * mu / (1.0 + abs(pobj))
        current = (xs, ss, y, pobj, dobj, prel, drel)
        score = max(prel / opts.feas_tol, drel / opts.feas_tol, grel / opts.gap_tol)
        if best is None or score < best_score:
            best, best_score = current, score
        converged = (prel <= opts.feas_tol and drel <= opts.feas_tol
                     and grel <= opts.gap_tol and murel <= opts.gap_tol)
        status = "optimal" if converged else _certificate(groups, b, cvec, aty, ax, xvec, pobj, dobj, y)
        if status:
            break
        if np.linalg.norm(xvec) > xdiverged or np.linalg.norm(y) > ydiverged:
            status = "stalled"  # diverging without a certificate
            break
        if it == opts.max_iter:
            status = "max_iter"
            break
        try:
            dxs, dy, dss, ap, ad = _step(groups, amat, schur, xs, ss, rp, rds, mu, n_tot)
        except np.linalg.LinAlgError:
            status = "stalled"  # a factorization or SVD broke down
            break
        stall = stall + 1 if min(ap, ad) < 1e-8 else 0
        if stall >= 3:
            status = "stalled"
            break
        xs = [_herm(x + ap * dx) for x, dx in zip(xs, dxs)]
        ss = [_herm(s + ad * ds) for s, ds in zip(ss, dss)]
        y = y + ad * dy
    if status in ("stalled", "max_iter"):
        current = best
    return (status, it) + current


def _grouped_form(problem):
    """The problem in block groups, with its constraints as rows of A.

    Variables are grouped by (side, complex or real) in order of first
    appearance; the scalars are real 1x1 variables after the blocks.
    Returns the groups, each variable's (group, member) slot, the objective
    stacks, the constraint matrix A (one row of float views per constraint)
    and the right-hand side.  The per-row coefficient matrices die here, so
    they do not sit next to A while the iteration runs.
    """
    nblocks = len(problem.blocks)
    members = {}
    for v, n in enumerate(list(problem.blocks) + [1] * len(problem.scalar_costs)):
        cplx = v < nblocks and v not in problem.real_blocks
        members.setdefault((n, cplx), []).append(v)
    groups, lo = [], 0
    for (n, cplx), vs in members.items():
        groups.append(_Group(n, cplx, vs, lo))
        lo = groups[-1].hi
    slots = [None] * sum(g.nb for g in groups)
    for gi, g in enumerate(groups):
        for j, v in enumerate(g.members):
            slots[v] = (gi, j)

    def scalar(c):
        return np.array([[float(c)]])

    objective = list(problem.objective) + [scalar(c) for c in problem.scalar_costs]
    cs = [g.stack(objective) for g in groups]

    # every coefficient matrix of a group is written with one scatter,
    # symmetrized first: validation lets it be Hermitian only to 1e-12
    entries = [([], [], []) for _ in groups]  # rows, member indices, matrices
    for k, con in enumerate(problem.constraints):
        terms = list(con.coeffs.items())
        terms += [(nblocks + j, scalar(a)) for j, a in con.scalar_coeffs.items()]
        for v, a in terms:
            gi, j = slots[v]
            rows, idx, mats = entries[gi]
            rows.append(k)
            idx.append(j)
            mats.append(a)
    nplain = len(problem.constraints)
    amat = np.zeros((nplain + sum(f.dim**2 for f in problem.families), lo))
    b = np.zeros(amat.shape[0])
    for g, (rows, idx, mats) in zip(groups, entries):
        if rows:
            cols = g.lo + g.size * np.array(idx)[:, None] + np.arange(g.size)
            flat = _pack([_herm(_block_stack(mats, g.cplx))])
            amat[np.array(rows)[:, None], cols] = flat.reshape(len(mats), g.size)
    b[:nplain] = [con.rhs for con in problem.constraints]

    write_rows(problem, slots, groups, amat, b)
    return groups, slots, cs, amat, b


def solve(problem: SdpProblem, options: SolveOptions | None = None,
          initial_blocks=None, initial_scalars=None) -> SdpSolution:
    """Solve the problem and return primal blocks, scalars, and multipliers.

    ``initial_blocks``/``initial_scalars``, when given, must be a strictly
    feasible (or near-feasible interior) primal point in the problem's own
    complex coordinates; the iteration then starts there instead of the cold
    start.  Multipliers in the returned solution are indexed by the original
    constraint order, with zeros on rows dropped as redundant.
    """
    opts = options or SolveOptions()
    problem.validate()
    for name, tol in (("feas_tol", opts.feas_tol), ("gap_tol", opts.gap_tol)):
        # every stopping test compares against the tolerance, so NaN or a
        # nonpositive value could only end the solve as stalled or max_iter
        if not (np.isfinite(tol) and tol > 0):
            raise ContractError(f"{name} must be a finite number > 0, got {tol}")
    mi = opts.max_iter
    if isinstance(mi, bool) or not isinstance(mi, Integral) or mi < 0:
        raise ContractError(f"max_iter must be an integer >= 0, got {mi!r}")

    nblocks = len(problem.blocks)
    nscalars = len(problem.scalar_costs)
    groups, slots, cs, amat, b = _grouped_form(problem)
    mfull = amat.shape[0]

    x0 = None
    if initial_blocks is not None:
        mats = [np.asarray(v, dtype=complex) for v in initial_blocks]
        if len(mats) != nblocks:
            raise DimensionError("initial_blocks must match the block list")
        scal = list(initial_scalars or [])
        if nscalars and len(scal) != nscalars:
            raise DimensionError("initial_scalars must match the scalar list")
        full = [(v + v.conj().T) / 2 for v in mats] + [np.array([[float(v)]]) for v in scal]
        x0 = [g.stack(full) for g in groups]

    # drop linearly dependent rows; detect inconsistency
    kept = _independent_rows(amat, groups) if mfull else np.zeros(0, dtype=int)
    if kept.size < mfull:
        sol, *_ = np.linalg.lstsq(amat, b, rcond=None)
        resid = np.abs(amat @ sol - b).max()
        if resid > 1e-9 * (1.0 + np.abs(b).max()):
            zero = [np.zeros((n, n), dtype=complex) for n in problem.blocks]
            return SdpSolution(
                status="infeasible", primal_value=np.nan, dual_value=np.nan,
                block_values=zero, scalar_values=[np.nan] * nscalars,
                y=np.zeros(mfull), dual_blocks=zero, gap=np.nan,
                iterations=0, primal_residual=resid, dual_residual=np.nan,
            )
        amat, b = amat[kept], b[kept]
    scales = np.linalg.norm(amat, axis=1)
    scales[scales == 0] = 1.0
    amat /= scales[:, None]
    b = b / scales

    if problem.families and not problem.constraints:
        lifted = LiftSchur(problem, groups, slots)
        cut, outer = np.ix_(kept, kept), np.outer(scales, scales)

        def schur(rs, ws):
            return lifted(ws)[cut] / outer
    else:
        plan = _schur_plan(amat, groups)

        def schur(rs, ws):
            return _schur_complement(amat, plan, rs)

    status, iters, xs, ss, ys, pobj, dobj, prel, drel = _ipm(groups, cs, amat, b, opts, schur, x0=x0)

    y = np.zeros(mfull)
    if kept.size:
        y[kept] = ys / scales

    xs = [xs[gi][j] for gi, j in slots]
    ss = [ss[gi][j] for gi, j in slots]
    return SdpSolution(
        status=status,
        primal_value=pobj,
        dual_value=dobj,
        block_values=[x.astype(complex) for x in xs[:nblocks]],
        scalar_values=[float(x[0, 0]) for x in xs[nblocks:]],
        y=y,
        dual_blocks=[s.astype(complex) for s in ss[:nblocks]],
        gap=abs(pobj - dobj),
        iterations=iters,
        primal_residual=prel,
        dual_residual=drel,
    )
