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
so the NT scaling (one Cholesky call for X and S, then one SVD), the
directions and the step search are batched LAPACK or BLAS calls per group
and step.  The constraint matrix A is real: row k holds, group after group,
the float view of the stack of the coefficient matrices A_kv, row-major
with a complex entry as its (re, im) pair, so 2 n^2 floats per complex
block and n^2 per real one.  That view gives flat(A) . flat(X) = Re sum_ij
conj(A_ij) X_ij = Re tr(A^H X), which is <A, X> = Re tr(AX) for Hermitian
data, so packing and unpacking are reshapes with no scale factors.

Rows come in two forms, plain rows (``LinearConstraint``, any coefficient
matrices) and row families (``families.RowFamily``: the rows of one
operator equation, whose coefficient on each variable is a ``Lift`` of the
basis element, I (x) H on some tensor factors of the block or Tr H).  A
holds the plain rows, which only this module reads, then the family rows,
in coordinate form (``families.CooRows``): one (row, column, value)
triplet per nonzero, so A x and A^T y are sums over the triplets.

Each iteration forms the Schur complement M = A W A^T, with the NT scaling
W_v = R_v R_v^H: M_kl = sum_v Re tr(W_v A_kv W_v A_lv).  The input chooses
its build once per solve.  Any plain row takes the dense build, the
reference the contraction is tested against: the rows touching a group are
copied out of the dense A as one stack, scaled by R with two batched
products, and contribute one rank-k product (``_schur_complement``).  A
problem of families alone takes a partial-trace contraction of W, one
batched matrix product per pair of lift kinds on a group
(``families.LiftSchur``), and never forms the dense A.

The search direction is solved in NT-scaled coordinates.  R_v^-1 X_v R_v^-H
= R_v^H S_v R_v = Lambda_v = diag(lam), and the scaled steps are dX^ =
R^-1 dX R^-H and dS^ = R^H dS R.  Linearizing the symmetrized
complementarity (X^ S^ + S^ X^)/2 = sigma mu I at X^ = S^ = Lambda gives, for
D = dX^ + dS^,

    (Lambda D + D Lambda) / 2 = T,   solved by   D_ij = 2 T_ij / (lam_i + lam_j).

The Schur solve gives dy and dS, then dS^ = R^H dS R and dX^ = D - dS^, so
R^-1 is never formed.  The step lengths and mu_aff = <Lambda + a_p dX^,
Lambda + a_d dS^> / n come from dX^ and dS^: a length keeps Lambda + a dX^
(or Lambda + a dS^) PSD, so it is read off the smallest eigenvalue of
Lambda^-1/2 dX^ Lambda^-1/2, one ``eigvalsh`` call per group for the pair.
dX = R dX^ R^H, which is R D R^H - W dS W without that difference's
late-iteration cancellation, is formed once, for the update.  The predictor
takes D = -Lambda (T = -Lambda^2, the affine step to mu = 0), so its dX^ =
-Lambda - dS^ and one spectrum, of dS^, gives both its lengths
(``_predictor_lengths``); the corrector solves T = sigma mu I - Lambda^2 -
(dX^_a dS^_a + dS^_a dX^_a)/2 with the predictor's scaled steps and
Mehrotra's sigma = (mu_aff/mu)^3 through ``_lyap``.

The Schur complement is factored once per step (``_chol``), and both solves
of the step substitute through that factor block by block, with the
diagonal blocks inverted once per step (``_chol_solver``).

Redundant equality rows are removed before the iteration starts, from the
Gram matrix of the normalized rows: the chosen build at W = I.  It is
Cholesky-factored in row order, and a row whose pivot -- its squared
distance from the span of the rows kept before it -- is at most
``RANK_TOL`` is dropped (``_kept_rows``).  The rhs is eliminated with the
kept rows, which leaves on each dropped row the part of its rhs its
combination of kept rows does not reproduce; a system where that is not
zero is reported as infeasible outright.  Only the compatibility checks,
whose marginal equations are dependent, drop rows; every step then cuts
the kept rows out of the build's M.
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

import numpy as np

from .families import CooRows, LiftSchur, RowFamily, check_families, family_rows
from .linalg import (ContractError, DimensionError, hermitian_basis, hermitize, is_integer, require_hermitian,
                     require_index)

DEFAULT_FEAS_TOL = 1e-8
DEFAULT_GAP_TOL = 1e-8
DEFAULT_MAX_ITER = 200
# largest pivot of a dropped row: the squared distance of a unit row from
# the span of the rows kept before it
RANK_TOL = 1e-12
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

    def __post_init__(self):
        for name, tol in (("feas_tol", self.feas_tol), ("gap_tol", self.gap_tol)):
            # every stopping test compares against the tolerance, so NaN or a
            # nonpositive value could only end the solve as stalled or max_iter
            if not (np.isfinite(tol) and tol > 0):
                raise ContractError(f"{name} must be a finite number > 0, got {tol}")
        if not (is_integer(self.max_iter) and self.max_iter >= 0):
            raise ContractError(f"max_iter must be an integer >= 0, got {self.max_iter!r}")


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
    plain ``constraints``, then the rows of each of the ``families``.  A
    block or scalar is named by its index, an integer (not a bool) counted
    from 0 (``linalg.require_index``).
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
            require_index(b, len(self.blocks), "unknown real block")
        if not np.all(np.isfinite(self.scalar_costs)):
            raise ContractError("scalar_costs has non-finite entries")
        for b, (n, c) in enumerate(zip(self.blocks, self.objective)):
            if not (is_integer(n) and n >= 1):
                raise DimensionError(f"block {b} has dimension {n!r}, not an integer >= 1")
            if c.shape != (n, n):
                raise DimensionError(f"objective for block {b} has shape {c.shape}, expected {(n, n)}")
            require_hermitian(c, what=f"objective block {b}")
            if b in self.real_blocks and np.abs(c.imag).max() > 1e-12:
                raise ContractError(f"objective for real block {b} has imaginary part")
        for k, con in enumerate(self.constraints):
            if not np.isfinite(con.rhs):
                raise ContractError(f"constraint {k} has non-finite rhs")
            for b, a in con.coeffs.items():
                require_index(b, len(self.blocks), f"constraint {k} references unknown block")
                n = self.blocks[b]
                if a.shape != (n, n):
                    raise DimensionError(f"constraint {k} coefficient on block {b} has shape {a.shape}")
                require_hermitian(a, what=f"constraint {k} coefficient on block {b}")
                if b in self.real_blocks and np.abs(a.imag).max() > 1e-12:
                    raise ContractError(f"constraint {k} has complex data on real block {b}")
            for j, a in con.scalar_coeffs.items():
                require_index(j, len(self.scalar_costs), f"constraint {k} references unknown scalar")
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


def _embed_complex(m: np.ndarray) -> np.ndarray:
    x, y = m.real, m.imag
    return np.block([[x, -y], [y, x]])


def real_embed(problem: SdpProblem) -> SdpProblem:
    """Rewrite complex Hermitian blocks over the reals.

    Each complex block of side n becomes a real symmetric block of side 2n;
    its data matrices are embedded and halved so every inner product, and
    with it the primal and dual objective values, is preserved.  Blocks
    already declared real pass through unchanged.  ``solve`` works on the
    complex blocks directly and does not use this transform.  Only plain
    rows are embedded: a problem with row families raises ``ContractError``.
    """
    problem.validate()
    if problem.families:
        raise ContractError("real_embed takes plain rows only, not row families")
    blocks, objective = [], []
    for b, (n, c) in enumerate(zip(problem.blocks, problem.objective)):
        if b in problem.real_blocks:
            blocks.append(n)
            objective.append(c.real.copy())
        else:
            blocks.append(2 * n)
            objective.append(_embed_complex(c) / 2)
    constraints = []
    for con in problem.constraints:
        coeffs = {}
        for b, a in con.coeffs.items():
            coeffs[b] = a.real.copy() if b in problem.real_blocks else _embed_complex(a) / 2
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


def _diag(v):
    """The stack of diagonal matrices with the rows of ``v`` on the diagonal."""
    return v[:, :, None] * np.eye(v.shape[1])


def _lyap(lam, t):
    """Solve (Lambda D + D Lambda)/2 = T for D on a stack: D_ij = 2 T_ij / (lam_i + lam_j).

    ``lam`` is an (nb, n) array of positive eigenvalues and ``t`` an (nb, n, n)
    Hermitian stack; D is returned Hermitian.
    """
    return hermitize(2 * t / (lam[:, :, None] + lam[:, None, :]))


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


def _schur_complement(amat, groups, rs):
    """Schur complement M = A W A^T of the NT scaling W_v = R_v R_v^H.

    Row k of the dense ``amat`` holds the float view of A_kv on every v, so
    M_kl = sum_v Re tr(W_v A_kv W_v A_lv) = sum_v <R_v^H A_kv R_v, R_v^H A_lv R_v>.
    Each group finds the rows that touch it, copies them out of A, views the
    copy as one (k, nb, n, n) stack, scales it with two batched products and
    adds the rank-k product of the copy (Re G G^H, the float view's inner
    products of the Hermitian G = R^H A R) into those rows and columns of M.
    """
    m = amat.shape[0]
    schur = np.zeros((m, m))
    for g, r in zip(groups, rs):
        rows = np.flatnonzero(amat[:, g.lo: g.hi].any(axis=1))
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


def _kept_rows(gram, b):
    """Indices of the rows the iteration runs on, and the largest residual of
    a dropped row (0 when none is dropped).

    ``gram`` is the Gram matrix of the rows normalized to unit length and
    ``b`` their rhs.  It is Cholesky-factored in row order, and row k is
    dropped when its pivot, the squared distance of row k from the span of
    the rows kept before it, is at most ``RANK_TOL``.  b is eliminated as
    one more column, so a dropped row is left holding b_k less the rhs of
    the combination of kept rows that reproduces it: its residual.  When
    every pivot of the plain factorization is above ``RANK_TOL``, all rows
    are kept without the loop.
    """
    try:
        if (np.diagonal(np.linalg.cholesky(gram)) ** 2 > RANK_TOL).all():
            return np.arange(len(b)), 0.0
    except np.linalg.LinAlgError:
        pass
    s, r = gram.copy(), b.copy()
    keep = np.zeros(len(b), dtype=bool)
    for k in range(len(b)):
        if s[k, k] > RANK_TOL:
            keep[k] = True
            root = sqrt(s[k, k])
            col = s[k + 1:, k] / root
            s[k + 1:, k + 1:] -= np.outer(col, col)
            r[k + 1:] -= col * (r[k] / root)
    return np.flatnonzero(keep), np.abs(r[~keep]).max(initial=0.0)


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


def _certificate(groups, bn, cn, aty, ax, xvec, pobj, dobj, y):
    """``infeasible`` (b.y > 0, A^T y <= 0) or ``unbounded`` (c.x < 0, A x = 0)
    when the iterate is a Farkas certificate, else None; ``bn`` and ``cn``
    are |b| and |c|.  Each quantity is tested against its own scale, so
    scaling the data keeps the verdict; b.y and c.x get a margin, as
    rounding in c.x = 0 is no certificate."""
    if dobj > 1e-10 * bn * np.linalg.norm(y):
        tol = 1e-9 * np.linalg.norm(aty)
        stacks = [g.unpack(aty) for g in groups]
        # the largest eigenvalue is at least every diagonal entry
        if max(np.diagonal(s, axis1=1, axis2=2).real.max() for s in stacks) <= tol:
            if max(np.linalg.eigvalsh(s)[:, -1].max() for s in stacks) <= tol:
                return "infeasible"
    xnorm = np.linalg.norm(xvec)
    if pobj < -1e-10 * cn * xnorm and np.linalg.norm(ax) <= 1e-9 * xnorm:
        return "unbounded"


def _largest_step(wmin):
    """Largest a with I + a W >= 0 for a Hermitian W of smallest eigenvalue
    ``wmin``; inf unless wmin is below -1e-14."""
    return -1.0 / wmin if wmin < -1e-14 else np.inf


def _predictor_lengths(roots, dshs):
    """The predictor's primal and dual step lengths from the spectrum of
    Lambda^-1/2 dS^ Lambda^-1/2 alone (``roots`` holds sqrt(lam_i lam_j)):
    its dX^ = -Lambda - dS^ makes Lambda^-1/2 dX^ Lambda^-1/2 = -I -
    Lambda^-1/2 dS^ Lambda^-1/2, whose smallest eigenvalue is -1 less the
    largest of that spectrum."""
    spectra = [np.linalg.eigvalsh(dsh / root) for dsh, root in zip(dshs, roots)]
    ap = _largest_step(-1.0 - max(w[:, -1].max() for w in spectra))
    ad = _largest_step(min(w[:, 0].min() for w in spectra))
    return min(1.0, ap), min(1.0, ad)


def _step(groups, amat, schur, xs, ss, rp, rds, mu, n_tot):
    """One Mehrotra predictor-corrector direction (dX, dy, dS) at the iterate
    and its primal and dual step lengths.  ``schur(rs, ws)`` forms the Schur
    complement from the NT scaling W = R R^H of every group.  Each direction
    is dS^ = R^H dS R and dX^ = D - dS^, the step lengths and mu_aff come
    from them, and dX = R dX^ R^H is formed once, for the update.  X and S
    of a group are factored in one Cholesky call.  ``eigvalsh`` reads the
    lower triangle of a scaled step, so it is not symmetrized first.
    Raises ``LinAlgError`` when a factorization breaks down."""
    # Nesterov-Todd scaling W = R R^H with R^H S R = R^-1 X R^-H = diag(lam)
    rs, rsh, lams, ws = [], [], [], []
    for x, s in zip(xs, ss):
        nb = len(x)
        l = _chol(np.concatenate([x, s]))
        lx, ls = l[:nb], l[nb:]
        _, sig, vh = _svd(_ct(ls) @ lx)
        lams.append(np.maximum(sig, 1e-300))
        rs.append((lx @ _ct(vh)) / np.sqrt(lams[-1])[:, None, :])
        rsh.append(_ct(rs[-1]))
        ws.append(rs[-1] @ rsh[-1])
    roots = [np.sqrt(lam[:, :, None] * lam[:, None, :]) for lam in lams]

    # Schur complement, factored once for both solves, and W Rd W, not a function of D
    schur_solve = _chol_solver(_chol(schur(rs, ws)[None])[0])
    wrdws = [w @ rd @ w for w, rd in zip(ws, rds)]

    def direction(dhats):
        # A dX = rp with dX = R D R^H - W dS W: M dy = rp + A (W Rd W - R D R^H)
        rdr = [r @ dh @ rh for r, dh, rh in zip(rs, dhats, rsh)]
        dy = schur_solve(rp + amat @ _pack([wrdw - q for wrdw, q in zip(wrdws, rdr)]))
        ady = amat.T @ dy
        dss = [rd - g.unpack(ady) for g, rd in zip(groups, rds)]
        dshs = [rh @ ds @ r for rh, ds, r in zip(rsh, dss, rs)]
        return [dh - dsh for dh, dsh in zip(dhats, dshs)], dy, dss, dshs

    # predictor: D = -Lambda, the affine step to mu = 0
    diags = [_diag(lam) for lam in lams]
    dxha, _, _, dsha = direction([-d for d in diags])
    ap, ad = _predictor_lengths(roots, dsha)
    mu_aff = max(_inner([d + ap * dxh for d, dxh in zip(diags, dxha)],
                        [d + ad * dsh for d, dsh in zip(diags, dsha)]) / n_tot, 0.0)
    sigma = min(1.0, max((mu_aff / mu) ** 3 if mu > 0 else 0.0, 1e-12))

    # corrector: T = sigma mu I - Lambda^2 - (dX^ dS^ + dS^ dX^)/2 of the
    # predictor, the last term herm(dX^ dS^) as dX^ and dS^ are Hermitian
    dhats = [_lyap(lam, _diag(sigma * mu - lam**2) - hermitize(dxh @ dsh))
             for lam, dxh, dsh in zip(lams, dxha, dsha)]
    dxhs, dy, dss, dshs = direction(dhats)
    # smallest eigenvalues of the scaled dX^ and dS^, one call per group
    wmins = [np.linalg.eigvalsh(np.stack([dxh, dsh]) / root)[:, :, 0].min(axis=1)
             for dxh, dsh, root in zip(dxhs, dshs, roots)]
    ap = min(1.0, STEP_FRACTION * _largest_step(min(w[0] for w in wmins)))
    ad = min(1.0, STEP_FRACTION * _largest_step(min(w[1] for w in wmins)))
    return [hermitize(r @ dxh @ rh) for r, dxh, rh in zip(rs, dxhs, rsh)], dy, dss, ap, ad


def _ipm(groups, cs, amat, b, opts, schur, x0=None):
    """Core iteration on the block groups.  ``cs``, ``x0`` and the iterates
    hold one (nb, n, n) stack per group; ``schur`` forms the Schur complement
    (see ``_step``).  Returns the status, the iteration
    count, the iterate the status was decided on (for ``stalled`` and
    ``max_iter``, the one closest to the convergence test) and its
    objectives and residuals."""
    n_tot = sum(g.nb * g.n for g in groups)
    cvec = _pack(cs)
    bn, cn = np.linalg.norm(b), np.linalg.norm(cvec)

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
        prel = np.linalg.norm(rp) / (1.0 + bn)
        drel = sqrt(sum(np.linalg.norm(r) ** 2 for r in rds)) / (1.0 + cn)
        grel = abs(pobj - dobj) / (1.0 + abs(pobj))
        murel = n_tot * mu / (1.0 + abs(pobj))
        current = (xs, ss, y, pobj, dobj, prel, drel)
        score = max(prel / opts.feas_tol, drel / opts.feas_tol, grel / opts.gap_tol)
        if best is None or score < best_score:
            best, best_score = current, score
        converged = (prel <= opts.feas_tol and drel <= opts.feas_tol
                     and grel <= opts.gap_tol and murel <= opts.gap_tol)
        status = "optimal" if converged else _certificate(groups, bn, cn, aty, ax, xvec, pobj, dobj, y)
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
        xs = [hermitize(x + ap * dx) for x, dx in zip(xs, dxs)]
        ss = [hermitize(s + ad * ds) for s, ds in zip(ss, dss)]
        y = y + ad * dy
    if status in ("stalled", "max_iter"):
        current = best
    return (status, it) + current


def _grouped_form(problem):
    """The problem in block groups, with its rows as rows of A.

    Variables are grouped by (side, complex or real) in order of first
    appearance; the scalars are real 1x1 variables after the blocks.
    Returns the groups, each variable's (group, member) slot, the objective
    stacks, A as ``CooRows`` and the right-hand side.  A holds the nonzeros
    of the plain rows, written once into a dense array, then the rows of
    ``family_rows``, shifted below them, so it stays sorted by row and
    column.  The coefficient matrices and the dense array die here, so they
    do not sit next to A while the iteration runs.
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

    # the plain rows, dense: each coefficient symmetrized (validation lets it
    # be Hermitian only to 1e-12) into its variable's float view
    plain = np.zeros((len(problem.constraints), groups[-1].hi))
    for row, con in zip(plain, problem.constraints):
        terms = list(con.coeffs.items())
        terms += [(nblocks + j, scalar(a)) for j, a in con.scalar_coeffs.items()]
        for v, a in terms:
            gi, j = slots[v]
            groups[gi].unpack(row)[j] = hermitize(_block_stack([a], groups[gi].cplx)[0])
    rows, cols = np.nonzero(plain)
    fam, bfam = family_rows(problem, slots, groups)
    amat = CooRows(np.concatenate([rows, len(plain) + fam.rows]), np.concatenate([cols, fam.cols]),
                   np.concatenate([plain[rows, cols], fam.vals]), (len(plain) + fam.shape[0], fam.shape[1]))
    b = np.concatenate([[con.rhs for con in problem.constraints], bfam])
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

    nblocks = len(problem.blocks)
    nscalars = len(problem.scalar_costs)
    start = None
    if initial_blocks is None:
        if initial_scalars is not None:
            raise ContractError("initial_scalars were given without initial_blocks")
    else:
        mats = [np.asarray(v, dtype=complex) for v in initial_blocks]
        if len(mats) != nblocks:
            raise DimensionError("initial_blocks must match the block list")
        for i, (v, n) in enumerate(zip(mats, problem.blocks)):
            if v.shape != (n, n):
                raise DimensionError(f"initial block {i} has shape {v.shape}, expected {(n, n)}")
            if not np.isfinite(v).all():
                raise ContractError(f"initial block {i} has non-finite entries")
        scal = np.asarray([] if initial_scalars is None else initial_scalars, dtype=float)
        if len(scal) != nscalars:
            raise DimensionError("initial_scalars must match the scalar list")
        if not np.isfinite(scal).all():
            raise ContractError("initial_scalars has non-finite entries")
        start = [hermitize(v) for v in mats] + [np.array([[v]]) for v in scal]

    groups, slots, cs, amat, b = _grouped_form(problem)
    mfull = len(b)
    x0 = None if start is None else [g.stack(start) for g in groups]

    # normalize the rows, drop the linearly dependent ones, detect inconsistency
    scales = amat.row_norms()
    scales[scales == 0] = 1.0
    b = b / scales
    amat = amat.divide_rows(scales)
    # the Schur complement of every row, from the NT scaling of each group
    if problem.constraints:  # any plain row: the dense reference build
        dense = amat.toarray()

        def build(rs, ws):
            return _schur_complement(dense, groups, rs)
    else:
        lifted, outer = LiftSchur(problem, groups, slots), np.outer(scales, scales)

        def build(rs, ws):
            return lifted(ws) / outer
    eyes = [g.eye() for g in groups]
    kept, resid = _kept_rows(build(eyes, eyes), b)
    if resid > 1e-9 * (1.0 + np.abs(b).max(initial=0.0)):
        zero = [np.zeros((n, n), dtype=complex) for n in problem.blocks]
        return SdpSolution(
            status="infeasible", primal_value=np.nan, dual_value=np.nan,
            block_values=zero, scalar_values=[np.nan] * nscalars,
            y=np.zeros(mfull), dual_blocks=zero, gap=np.nan,
            iterations=0, primal_residual=resid, dual_residual=np.nan,
        )
    cut = slice(None)  # no copy of M
    if kept.size < mfull:
        amat, b, scales = amat[kept], b[kept], scales[kept]
        cut = np.ix_(kept, kept)

    def schur(rs, ws):
        return build(rs, ws)[cut]

    status, iters, xs, ss, ys, pobj, dobj, prel, drel = _ipm(groups, cs, amat, b, opts, schur, x0=x0)

    y = np.zeros(mfull)
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
