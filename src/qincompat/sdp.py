"""Dense semidefinite programming in equality standard form.

A problem is

    minimize    sum_b <C_b, X_b> + sum_j c_j u_j
    subject to  sum_b <A_kb, X_b> + sum_j a_kj u_j = rhs_k   for every row k,
                X_b >= 0 (Hermitian PSD blocks),  u_j >= 0 (scalars),

solved with a Nesterov-Todd scaled Mehrotra predictor-corrector interior
point method on the real symmetric embedding.  The implementation is dense
and deterministic: no randomized pivoting, no threading-dependent reductions,
so repeated solves of the same problem return bit-identical results.

Each iteration forms the Schur complement M = A W A^T block by block.  With
the NT scaling W_b = R_b R_b^T, M_kl = sum_b <R_b^T A_kb R_b, R_b^T A_lb R_b>:
the rows touching a block are unpacked from svec form into one stack with a
single gather, scaled by R_b with two batched products, and contribute one
symmetric rank-k product, so M is symmetric by construction.

Redundant equality rows are removed with a pivoted QR factorization before
the iteration starts (rank threshold ``RANK_TOL`` relative to the largest
pivot); an inconsistent equality system is reported as infeasible outright.
A strictly feasible starting point can be injected through ``solve`` when the
caller knows one; otherwise a scaled-identity cold start is used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import sqrt

import numpy as np
import scipy.linalg

from .linalg import ContractError, DimensionError, hermitian_basis, require_hermitian

DEFAULT_FEAS_TOL = 1e-8
DEFAULT_GAP_TOL = 1e-8
DEFAULT_MAX_ITER = 200
RANK_TOL = 1e-10
STEP_FRACTION = 0.98


class SolverFailure(RuntimeError):
    """Raised by callers when a solve did not reach the optimal status."""

    def __init__(self, message, solution=None):
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
    declares one nonnegative scalar variable per entry.
    """

    blocks: list[int]
    objective: list[np.ndarray]
    constraints: list[LinearConstraint]
    scalar_costs: list[float] = field(default_factory=list)
    real_blocks: frozenset = frozenset()

    def validate(self):
        if len(self.objective) != len(self.blocks):
            raise DimensionError("objective must have one matrix per block")
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
            for j in con.scalar_coeffs:
                if j < 0 or j >= len(self.scalar_costs):
                    raise DimensionError(f"constraint {k} references unknown scalar {j}")
        return self


@dataclass
class SdpSolution:
    status: str  # optimal | infeasible | unbounded | max_iter
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
            if m is None:
                continue
            coeffs[b] = coeffs[b] + m if b in coeffs else m
        sc = {}
        for j, fn in scalar_terms:
            v = float(fn(h))
            if v != 0.0:
                sc[j] = sc.get(j, 0.0) + v
        r = 0.0 if rhs is None else float(np.trace(h @ rhs).real)
        rows.append(LinearConstraint(coeffs, r, sc))
    return rows


def _embed_herm(m: np.ndarray) -> np.ndarray:
    x, y = m.real, m.imag
    return np.block([[x, -y], [y, x]])


def _unembed(m: np.ndarray) -> np.ndarray:
    n = m.shape[0] // 2
    x = (m[:n, :n] + m[n:, n:]) / 2
    y = (m[n:, :n] - m[:n, n:]) / 2
    return x + 1j * y


def real_embed(problem: SdpProblem) -> SdpProblem:
    """Rewrite complex Hermitian blocks over the reals.

    Each complex block of side n becomes a real symmetric block of side 2n;
    its data matrices are embedded and halved so every inner product, and
    with it the primal and dual objective values, is preserved.  Blocks
    already declared real pass through unchanged.
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


def _frozen(a):
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def _svec_indices(n):
    return tuple(_frozen(i) for i in np.triu_indices(n, 1))


@lru_cache(maxsize=None)
def _unpack_map(n):
    """svec position and divisor of each entry of an n x n matrix, row-major,
    so that one gather ``v[..., pos] / scale`` unpacks a whole stack of svec
    vectors into matrices."""
    pos = np.empty((n, n), dtype=np.intp)
    pos[np.diag_indices(n)] = np.arange(n)
    iu = _svec_indices(n)
    off = n + np.arange(iu[0].size)
    pos[iu] = off
    pos[iu[1], iu[0]] = off
    scale = np.full((n, n), sqrt(2.0))
    np.fill_diagonal(scale, 1.0)
    return _frozen(pos.ravel()), _frozen(scale.ravel())


def _svec(m: np.ndarray) -> np.ndarray:
    n = m.shape[0]
    iu = _svec_indices(n)
    return np.concatenate([np.diag(m), sqrt(2.0) * m[iu]])


def _smat(v: np.ndarray, n: int) -> np.ndarray:
    pos, scale = _unpack_map(n)
    return (v[pos] / scale).reshape(n, n)


class _Blocks:
    """svec bookkeeping for a list of real symmetric blocks."""

    def __init__(self, dims):
        self.dims = list(dims)
        self.sizes = [n * (n + 1) // 2 for n in dims]
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)]).astype(int)
        self.total = int(self.offsets[-1])

    def stack(self, mats):
        return np.concatenate([_svec(m) for m in mats]) if mats else np.zeros(0)

    def split(self, v):
        return [
            _smat(v[self.offsets[b]: self.offsets[b + 1]], n)
            for b, n in enumerate(self.dims)
        ]


def _schur_plan(amat, layout):
    """Per block with any nonzero coefficient: its index, side, the rows of
    ``amat`` that touch it, and the svec columns that unpack it row-major."""
    plan = []
    for bidx, n in enumerate(layout.dims):
        lo, hi = layout.offsets[bidx], layout.offsets[bidx + 1]
        rows = np.flatnonzero(amat[:, lo:hi].any(axis=1))
        if rows.size:
            pos, scale = _unpack_map(n)
            plan.append((bidx, n, rows, lo + pos, scale))
    return plan


def _schur_complement(amat, plan, rs):
    """Schur complement M = A W A^T of the NT scaling W_b = R_b R_b^T.

    Row k of ``amat`` holds svec(A_kb) on every block b, so
    M_kl = sum_b tr(W_b A_kb W_b A_lb) = sum_b <R_b^T A_kb R_b, R_b^T A_lb R_b>.
    Each block unpacks the rows that touch it into one (k, n, n) stack,
    scales it with two batched products and adds one symmetric rank-k
    product into those rows and columns of M.
    """
    m = amat.shape[0]
    schur = np.zeros((m, m))
    for bidx, n, rows, cols, scale in plan:
        r = rs[bidx]
        f = amat[rows[:, None], cols]
        f /= scale
        f = f.reshape(rows.size, n, n)
        # the stack is the largest array of the build: scale it in place
        np.matmul(r.T, f @ r, out=f)
        g = f.reshape(rows.size, n * n)
        schur[np.ix_(rows, rows)] += g @ g.T
    return schur


def _svd(m):
    """SVD by LAPACK gesdd, retried with gesvd when gesdd fails to converge.

    gesdd can fail on well-conditioned input; gesvd is slower but robust.
    """
    try:
        return np.linalg.svd(m)
    except np.linalg.LinAlgError:
        return scipy.linalg.svd(m, lapack_driver="gesvd")


def _independent_rows(amat):
    """Sorted indices of a maximal set of linearly independent rows.

    The rank comes from a pivoted QR of A^T: pivots of R above ``RANK_TOL``
    times the largest one.  Only R is formed, and only while ranking.
    """
    r, piv = scipy.linalg.qr(amat.T, mode="r", pivoting=True)
    diag = np.abs(np.diag(r))
    top = diag[0] if diag.size else 0.0
    rank = int(np.sum(diag > RANK_TOL * max(top, 1.0))) if top > 0 else 0
    return np.sort(piv[:rank])


def _chol_psd(m, what):
    """Cholesky with a graduated jitter fallback for nearly singular input."""
    shift = 0.0
    base = max(np.trace(m) / m.shape[0], 1.0) if m.size else 1.0
    for attempt in range(4):
        try:
            return np.linalg.cholesky(m + shift * np.eye(m.shape[0]))
        except np.linalg.LinAlgError:
            shift = base * 10.0 ** (-14 + 4 * attempt)
    raise SolverFailure(f"{what} factorization failed")


def _ipm(dims, cs, amat, b, opts, x0=None):
    """Core iteration on real symmetric blocks.  Returns a result dict."""
    layout = _Blocks(dims)
    n_tot = sum(dims)
    m = amat.shape[0]
    cvec = layout.stack(cs)
    bnorm = 1.0 + np.linalg.norm(b)
    cnorm = 1.0 + np.linalg.norm(cvec)

    if x0 is not None:
        xs = []
        for mtx, n in zip(x0, dims):
            w = np.linalg.eigvalsh(mtx)
            xs.append(mtx + max(1e-6 - w[0], 0.0) * np.eye(n))
    else:
        scale = 10.0 * max(1.0, float(np.max(np.abs(b), initial=0.0)))
        xs = [scale * np.eye(n) for n in dims]
    eta = 1.0 + max((np.linalg.norm(c) for c in cs), default=0.0)
    ss = [eta * np.eye(n) for n in dims]
    y = np.zeros(m)
    plan = _schur_plan(amat, layout)

    status = "max_iter"
    iters = 0
    stall = 0
    prel = drel = grel = np.inf
    pobj = dobj = 0.0

    def certificates():
        # Farkas-style checks on the current iterate, scale-normalized.
        nonlocal status
        t = float(b @ y) if m else 0.0
        if t > 1e-10:
            z = layout.split(amat.T @ y / t)
            q = max((np.linalg.eigvalsh(zb)[-1] for zb in z), default=0.0)
            znorm = sqrt(sum(np.linalg.norm(zb) ** 2 for zb in z))
            if q <= 1e-9 * (1.0 + znorm):
                status = "infeasible"
                return True
        obj = float(cvec @ layout.stack(xs))
        if obj < -1e-10:
            xn = layout.stack(xs) / (-obj)
            if np.linalg.norm(amat @ xn) <= 1e-9 * (1.0 + np.linalg.norm(xn)):
                status = "unbounded"
                return True
        return False

    for it in range(opts.max_iter):
        xvec = layout.stack(xs)
        rp = b - amat @ xvec if m else np.zeros(0)
        aty = layout.split(amat.T @ y) if m else [np.zeros((n, n)) for n in dims]
        rds = [c - s - a for c, s, a in zip(cs, ss, aty)]
        pobj = float(cvec @ xvec)
        dobj = float(b @ y) if m else 0.0
        mu = sum(np.tensordot(x, s) for x, s in zip(xs, ss)) / n_tot
        prel = np.linalg.norm(rp) / bnorm
        drel = sqrt(sum(np.linalg.norm(r) ** 2 for r in rds)) / cnorm
        grel = abs(pobj - dobj) / (1.0 + abs(pobj))
        murel = n_tot * mu / (1.0 + abs(pobj))
        iters = it
        if prel <= opts.feas_tol and drel <= opts.feas_tol and grel <= opts.gap_tol and murel <= opts.gap_tol:
            status = "optimal"
            break
        if certificates():
            break
        if max(np.linalg.norm(xvec), np.linalg.norm(y) if m else 0.0) > 1e14:
            certificates()
            break

        # Nesterov-Todd scaling per block
        rs, rinvs, lams, ws = [], [], [], []
        for x, s in zip(xs, ss):
            lx = _chol_psd(x, "primal block")
            ls = _chol_psd(s, "dual block")
            u, sig, vt = _svd(ls.T @ lx)
            sig = np.maximum(sig, 1e-300)
            r = (lx @ vt.T) / np.sqrt(sig)
            rinv = (u.T @ ls.T) / np.sqrt(sig)[:, None]
            rs.append(r)
            rinvs.append(rinv)
            lams.append(sig)
            ws.append(r @ r.T)

        # Schur complement, shared by both solves
        if m:
            schur_l = _chol_psd(_schur_complement(amat, plan, rs), "Schur complement")

        def direction(dhats):
            rdr = [r @ dh @ r.T for r, dh in zip(rs, dhats)]
            wrw = [w @ rd @ w for w, rd in zip(ws, rds)]
            if m:
                rhs = rp + amat @ layout.stack(wrw) - amat @ layout.stack(rdr)
                dy = scipy.linalg.cho_solve((schur_l, True), rhs)
                atdy = layout.split(amat.T @ dy)
            else:
                dy = np.zeros(0)
                atdy = [np.zeros((n, n)) for n in layout.dims]
            dss = [rd - a for rd, a in zip(rds, atdy)]
            dxs = [
                rd_ - w @ ds @ w
                for rd_, w, ds in zip(rdr, ws, dss)
            ]
            dxs = [(d + d.T) / 2 for d in dxs]
            return dxs, dy, dss

        def boundary(dlist, left, lams_):
            # largest step keeping the scaled block positive definite
            a = np.inf
            for dmat, lmat, lam in zip(dlist, left, lams_):
                g = lmat(dmat)
                g = (g + g.T) / 2 / np.sqrt(np.outer(lam, lam))
                wmin = np.linalg.eigvalsh(g)[0]
                if wmin < -1e-14:
                    a = min(a, -1.0 / wmin)
            return a

        scale_x = [lambda d, ri=ri: ri @ d @ ri.T for ri in rinvs]
        scale_s = [lambda d, r=r: r.T @ d @ r for r in rs]

        # predictor
        dhat_aff = [-np.diag(lam) for lam in lams]
        dxa, dya, dsa = direction(dhat_aff)
        ap = min(1.0, boundary(dxa, scale_x, lams))
        ad = min(1.0, boundary(dsa, scale_s, lams))
        mu_aff = (
            sum(
                np.tensordot(x + ap * dx, s + ad * ds)
                for x, dx, s, ds in zip(xs, dxa, ss, dsa)
            )
            / n_tot
        )
        mu_aff = max(mu_aff, 0.0)
        sigma = min(1.0, max((mu_aff / mu) ** 3 if mu > 0 else 0.0, 1e-12))

        # corrector
        dhats = []
        for r, rinv, lam, dx, ds in zip(rs, rinvs, lams, dxa, dsa):
            dxh = rinv @ dx @ rinv.T
            dsh = r.T @ ds @ r
            cross = (dxh @ dsh + dsh @ dxh) / 2
            t = sigma * mu * np.eye(len(lam)) - np.diag(lam**2) - cross
            denom = (lam[:, None] + lam[None, :]) / 2
            dh = t / (2 * denom)
            dhats.append((dh + dh.T) / 2)
        dxs, dy, dss = direction(dhats)
        ap = min(1.0, STEP_FRACTION * boundary(dxs, scale_x, lams))
        ad = min(1.0, STEP_FRACTION * boundary(dss, scale_s, lams))
        if min(ap, ad) < 1e-8:
            stall += 1
            if stall >= 3:
                break
        else:
            stall = 0
        xs = [(x + ap * dx + (x + ap * dx).T) / 2 for x, dx in zip(xs, dxs)]
        ss = [(s + ad * ds + (s + ad * ds).T) / 2 for s, ds in zip(ss, dss)]
        y = y + ad * dy
        iters = it + 1

    return {
        "status": status,
        "xs": xs,
        "ss": ss,
        "y": y,
        "pobj": pobj,
        "dobj": dobj,
        "gap": abs(pobj - dobj),
        "iterations": iters,
        "prel": prel,
        "drel": drel,
    }


def _svec_form(problem):
    """The problem over the reals, with its constraints as rows of svec data.

    Scalars become 1x1 real blocks at the tail and complex blocks are
    embedded.  Returns the embedded block sides, the objective blocks, the
    constraint matrix A (one svec row per constraint), the right-hand side,
    and the indices of the blocks that were real before the embedding.  The
    per-row coefficient matrices die here, so they do not sit next to A
    while the iteration runs.
    """
    nblocks = len(problem.blocks)
    nscalars = len(problem.scalar_costs)

    # scalars become 1x1 real blocks at the tail
    work = SdpProblem(
        blocks=list(problem.blocks) + [1] * nscalars,
        objective=[c.astype(complex) for c in problem.objective]
        + [np.array([[float(c)]], dtype=complex) for c in problem.scalar_costs],
        constraints=[
            LinearConstraint(
                {**{b: a for b, a in con.coeffs.items()},
                 **{nblocks + j: np.array([[float(v)]], dtype=complex)
                    for j, v in con.scalar_coeffs.items()}},
                con.rhs,
            )
            for con in problem.constraints
        ],
        real_blocks=frozenset(problem.real_blocks) | frozenset(range(nblocks, nblocks + nscalars)),
    )
    emb = real_embed(work)

    dims = emb.blocks
    cs = [c.real for c in emb.objective]
    mfull = len(emb.constraints)
    layout = _Blocks(dims)
    amat = np.zeros((mfull, layout.total))
    b = np.empty(mfull)
    for k, con in enumerate(emb.constraints):
        b[k] = con.rhs
        for bidx, a in con.coeffs.items():
            amat[k, layout.offsets[bidx]: layout.offsets[bidx + 1]] = _svec(a.real)
    return dims, cs, amat, b, work.real_blocks


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
    dims, cs, amat, b, real_blocks = _svec_form(problem)
    mfull = amat.shape[0]

    x0 = None
    if initial_blocks is not None:
        mats = [np.asarray(v, dtype=complex) for v in initial_blocks]
        if len(mats) != nblocks:
            raise DimensionError("initial_blocks must match the block list")
        scal = list(initial_scalars or [])
        if nscalars and len(scal) != nscalars:
            raise DimensionError("initial_scalars must match the scalar list")
        full = mats + [np.array([[float(v)]], dtype=complex) for v in scal]
        x0 = []
        for bidx, v in enumerate(full):
            v = (v + v.conj().T) / 2
            if bidx in real_blocks:
                x0.append(v.real)
            else:
                x0.append(_embed_herm(v))

    # drop linearly dependent rows; detect inconsistency
    kept = _independent_rows(amat) if mfull else np.zeros(0, dtype=int)
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

    res = _ipm(dims, cs, amat, b, opts, x0=x0)

    y = np.zeros(mfull)
    if kept.size:
        y[kept] = res["y"] / scales

    block_values, dual_blocks = [], []
    for bidx in range(nblocks):
        xb, sb = res["xs"][bidx], res["ss"][bidx]
        if bidx in problem.real_blocks:
            block_values.append(((xb + xb.T) / 2).astype(complex))
            dual_blocks.append(((sb + sb.T) / 2).astype(complex))
        else:
            xv = _unembed(xb)
            sv = 2 * _unembed(sb)
            block_values.append((xv + xv.conj().T) / 2)
            dual_blocks.append((sv + sv.conj().T) / 2)
    scalar_values = [float(res["xs"][nblocks + j][0, 0]) for j in range(nscalars)]

    return SdpSolution(
        status=res["status"],
        primal_value=res["pobj"],
        dual_value=res["dobj"],
        block_values=block_values,
        scalar_values=scalar_values,
        y=y,
        dual_blocks=dual_blocks,
        gap=res["gap"],
        iterations=res["iterations"],
        primal_residual=res["prel"],
        dual_residual=res["drel"],
    )
