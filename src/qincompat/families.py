"""Row families: the rows of an operator equation, kept in structured form.

Every program on a joint device -- the robustness primals, their
independently coded duals, the compatibility checks and the games -- is
made of operator equations: a sum of maps of the blocks equals an operator.
A ``RowFamily`` keeps one such equation on C^dim as the ``Lift`` of each
term instead of dim^2 coefficient matrices.  Tested against the element H_k
of the Hermitian basis, it is the row

    sum_b <lift_b(H_k), X_b> + sum_j lift_j(H_k) u_j = Tr[H_k rhs],

the row ``sdp.hermitian_equality`` makes from the same maps.  Every form
of the rows below is read from the two entries of each H_k that
``linalg.hermitian_entries`` lists; no dense basis is built.  The solver
uses the structure three times: ``check_families`` validates each family
once, ``family_rows`` writes the nonzeros of the rows as coordinate
triplets (``CooRows``), a few per row, and ``LiftSchur`` forms their Schur
complement M = A W A^T without touching a coefficient matrix, both with the
family rows numbered from 0.

Lifted by L = (dims, keep, scale), row k holds A_kv = scale * (I (x) c_k) on
variable v, with c_k = H_k, H_k^T or [Tr H_k].  So

    M_kl = sum_v scale_kv scale_lv Re vec(c_k) T_v vec(c_l),

where T_v, a partial-trace contraction of W_v (x) W_v over the factors the
two lifts leave to the identity, is one batched matrix product of two
copies of W (``_contraction``).  For two channels on C^3, the 81 x 81 block
of M between two marginal equations on the 27 x 27 joint block is one
product of an 81 x 9 and a 9 x 81 matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import prod

import numpy as np

from .linalg import (ContractError, DimensionError, Lift, hermitian_entries, is_integer, require_hermitian,
                     require_index)


@dataclass
class RowFamily:
    """One operator equation on C^dim, whose rows are those of the module
    docstring: ``terms`` are ``(block, Lift)`` pairs, ``scalar_terms``
    ``(scalar, Lift)`` pairs whose lift is a trace (``dims`` empty), and
    ``rhs`` is the operator, zero when None."""

    dim: int
    terms: list
    rhs: np.ndarray | None = None
    scalar_terms: list = field(default_factory=list)


def partial(lift):
    """Whether a lift depends on how its block is factored: h on some but not
    all of the factors, or on all of them reordered."""
    return bool(lift.keep) and lift.keep != tuple(range(len(lift.dims)))


def family_terms(fam, nblocks):
    """A family's (variable, lift) pairs; scalar j is variable nblocks + j."""
    return list(fam.terms) + [(nblocks + j, lift) for j, lift in fam.scalar_terms]


def check_families(problem):
    """Validate the row families of an ``SdpProblem``, each family once: its
    rhs, and for every term a ``Lift`` whose sides match the block and the
    family, that is a trace on a real block or a scalar, and that factors
    its block as every other lift of that block does (the contraction needs
    one factorization per block).  Raises ``DimensionError`` or
    ``ContractError``."""
    factored = {}  # block -> the factor dimensions its partial lifts use
    for f, fam in enumerate(problem.families):
        what = f"row family {f}"
        if not (is_integer(fam.dim) and fam.dim >= 1):
            raise DimensionError(f"{what} has dimension {fam.dim!r}, not an integer >= 1")
        if fam.rhs is not None:
            if np.shape(fam.rhs) != (fam.dim, fam.dim):
                raise DimensionError(f"{what} rhs has shape {np.shape(fam.rhs)}")
            require_hermitian(fam.rhs, what=f"{what} rhs")
        for j, lift in fam.scalar_terms:
            if not isinstance(lift, Lift) or lift.dims:
                raise ContractError(f"{what} couples scalar {j} by {lift!r}, not a trace Lift")
            require_index(j, len(problem.scalar_costs), f"{what} references unknown scalar")
        for b, lift in fam.terms:
            if not isinstance(lift, Lift):
                raise ContractError(f"{what} maps block {b} by {lift!r}, not a Lift")
            require_index(b, len(problem.blocks), f"{what} references unknown block")
            if lift.size != problem.blocks[b] or lift.arg_dim not in (None, fam.dim):
                raise DimensionError(f"{what} lifts C^{fam.dim} by {lift} onto block {b} "
                                     f"of side {problem.blocks[b]}")
            if b in problem.real_blocks and lift.keep:
                raise ContractError(f"{what} has complex data on real block {b}")
            if partial(lift):
                dims = factored.setdefault(b, lift.dims)
                if dims != lift.dims:
                    raise DimensionError(f"{what} factors block {b} as {lift.dims}, "
                                         f"another lift as {dims}")


class CooRows:
    """A constraint matrix in coordinate form: A[rows[i], cols[i]] = vals[i],
    one triplet per nonzero, sorted by row and column.  ``a @ x`` and
    ``a.T @ y`` are sums over the triplets (``np.bincount``), so the solver
    multiplies by it as by the dense A."""

    def __init__(self, rows, cols, vals, shape):
        self.rows, self.cols, self.vals, self.shape = rows, cols, vals, shape

    @property
    def T(self):
        return CooRows(self.cols, self.rows, self.vals, self.shape[::-1])

    def __matmul__(self, x):
        return np.bincount(self.rows, self.vals * x[self.cols], self.shape[0])

    def __getitem__(self, kept):
        """The rows ``kept``, an increasing index array, renumbered from 0."""
        new = np.full(self.shape[0], -1)
        new[kept] = np.arange(len(kept))
        rows = new[self.rows]
        on = rows >= 0
        return CooRows(rows[on], self.cols[on], self.vals[on], (len(kept), self.shape[1]))

    def row_norms(self):
        return np.sqrt(np.bincount(self.rows, self.vals**2, self.shape[0]))

    def divide_rows(self, s):
        return CooRows(self.rows, self.cols, self.vals / s[self.rows], self.shape)

    def toarray(self):
        a = np.zeros(self.shape)
        a[self.rows, self.cols] = self.vals
        return a


def family_rows(problem, slots, groups):
    """The rows of every family, numbered from 0, as one ``CooRows``, and
    their rhs.

    A term's nonzeros are found by lifting one matrix of entry codes
    (``_lift_pattern``, once per kind of lift); the values are the scaled
    basis entries, so the rows are those a lift of the basis stack gives,
    entry for entry.  A triplet's column is in the float view of its
    variable (``sdp._Group``).  Triplets that meet on an entry are summed in
    term order, and zeros are dropped.  ``slots[v]`` is the (group, member)
    of variable v."""
    nblocks = len(problem.blocks)
    lo = 0
    ncols = groups[-1].hi
    rows, cols, vals = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0)]
    b = [np.zeros(0)]
    for fam in problem.families:
        for v, lift in family_terms(fam, nblocks):
            gi, j = slots[v]
            g = groups[gi]
            k, col, val = _lift_pattern(lift.dims, lift.keep, lift.transpose, fam.dim, g.n, g.cplx)
            rows.append(lo + k)
            cols.append(g.lo + j * g.size + col)
            vals.append(lift.scale * val)
        b.append(np.zeros(fam.dim**2) if fam.rhs is None else _rhs_rows(fam.dim, fam.rhs))
        lo += fam.dim**2
    key, inv = np.unique(np.concatenate(rows) * ncols + np.concatenate(cols), return_inverse=True)
    val = np.bincount(inv, np.concatenate(vals), len(key))
    key, val = key[val != 0], val[val != 0]
    return CooRows(key // ncols, key % ncols, val, (lo, ncols)), np.concatenate(b)


@lru_cache(maxsize=256)
def _lift_pattern(dims, keep, transpose, dim, n, cplx):
    """The entries of the rows I (x) c_k of a lift (dims, keep, transpose)
    on n x n blocks, c_k = H_k, H_k^T or [Tr H_k], that can be nonzero: rows
    k, columns in the float view of a block (a complex entry is its (re, im)
    pair) and values, some zero.  The arrays are read-only.

    Row k has the value coef[k, e] at entry idx[k, e] of H_k (``_row_map``).
    A lift of the codes 1..dim^2 of the entries puts at each position the
    code of the entry it holds, or 0; a trace is the one entry held by the
    whole diagonal."""
    idx, coef = _row_map(dim, bool(keep), False)[:2]
    if keep:
        codes = np.arange(1, dim * dim + 1).reshape(dim, dim)
        code = Lift(dims, keep, transpose)(codes).real.ravel()
        pos = np.flatnonzero(code)
        at = pos[np.argsort(code[pos], kind="stable")].reshape(dim * dim, -1)
    else:
        at = (np.arange(n) * (n + 1))[None]
    pos = at[idx]
    k = np.broadcast_to(np.arange(len(idx))[:, None, None], pos.shape).ravel()
    val = np.broadcast_to(coef[:, :, None], pos.shape).ravel()
    if cplx:
        k, pos, val = np.repeat(k, 2), 2 * pos.ravel()[:, None] + [0, 1], val.view(np.float64)
    out = k, pos.ravel(), val.real
    for a in out:
        a.flags.writeable = False
    return out


@lru_cache(maxsize=256)
def _contraction(dims, keep_a, keep_b):
    """The map from a stack (J, N, N) of W on the factors ``dims`` to the
    stack (J, Da, Db) of T with Re tr(W (I (x) a) W (I (x) b)) = Re vec(a) T vec(b)
    for a on the factors ``keep_a`` and b on ``keep_b`` (in their own factor
    order, vec row-major, Da and Db their squared sides):

        T[pq, rs] = sum W[i, j] W[k, l],  j = p, k = q on keep_a and j = k off it,
                                          l = r, i = s on keep_b and l = i off it.

    No index is free in both copies of W, so T is one batched matrix product:
    the free axes of each copy against the axes the two share.
    """
    n = len(dims)
    x1, y1, y2, z2, labels = [], [], [], [], []  # axes: row f at 1 + f, column at 1 + n + f
    for f in range(n):
        row, col = 1 + f, 1 + n + f
        if f in keep_b:  # i = s
            x1.append(row)
            labels.append(("s", f))
        else:  # i = l
            y1.append(row)
            y2.append(col)
        if f in keep_a:  # j = p
            x1.append(col)
            labels.append(("p", f))
        else:  # j = k
            y1.append(col)
            y2.append(row)
    for f in range(n):
        if f in keep_a:  # k = q
            z2.append(1 + f)
            labels.append(("q", f))
        if f in keep_b:  # l = r
            z2.append(1 + n + f)
            labels.append(("r", f))
    order = ([("p", f) for f in keep_a] + [("q", f) for f in keep_a]
             + [("r", f) for f in keep_b] + [("s", f) for f in keep_b])
    final = [0] + [1 + labels.index(o) for o in order]
    free = prod(dims[(a - 1) % n] for a in x1)
    shape = [dims[f] for _, f in labels]
    da, db = (prod(dims[f] for f in k) ** 2 for k in (keep_a, keep_b))

    def contract(w):
        nb = len(w)
        t = w.reshape((nb,) + tuple(dims) * 2)
        a = t.transpose([0] + x1 + y1).reshape(nb, free, -1)
        b = t.transpose([0] + y2 + z2).reshape(nb, a.shape[2], -1)
        return (a @ b).reshape([nb] + shape).transpose(final).reshape(nb, da, db)

    return contract


@lru_cache(maxsize=256)
def _row_map(dim, lifted, transpose):
    """The rows of a family on C^dim in terms of vec(c), for c the operator
    its lift puts on the kept factors: H_k, H_k^T, or [Tr H_k] when nothing
    is ``lifted`` (a trace).  Row k is sum_e coef[k, e] vec(c)[idx[k, e]],
    e = 0, 1, read from the basis entries (``hermitian_entries``): H^T is
    the conjugate of a Hermitian H, so a transpose conjugates the
    coefficients, and a trace keeps those on the diagonal, at entry 0.

    The second form is for a vector u whose entries at transposed positions
    are conjugate, as u = vec(Y^T) for Hermitian Y: then Re sum_e coef[k, e]
    u[idx[k, e]] = Re u Re(c1 + c2) - Im u Im(c1 - c2), and one of the two
    terms is zero.  So the row is ``factor[k]`` times entry ``entry[k]`` of
    the float view of u.  The arrays are read-only."""
    idx, coef = hermitian_entries(dim)
    if not lifted:
        idx, coef = np.zeros_like(idx), np.where(idx % (dim + 1) == 0, coef, 0)
    elif transpose:
        coef = coef.conj()
    re, im = (coef[:, 0] + coef[:, 1]).real, -(coef[:, 0] - coef[:, 1]).imag
    maps = idx, coef, 2 * idx[:, 0] + (im != 0), np.where(im != 0, im, re)
    for a in maps:
        a.flags.writeable = False
    return maps


def _rhs_rows(dim, rhs):
    """Tr[H_k rhs] = Re vec(H_k) . vec(rhs^T) for every element H_k of the
    Hermitian basis on C^dim, from its two entries (``_row_map``).  Both
    are read, as rhs may be Hermitian only up to rounding."""
    idx, coef = _row_map(dim, True, False)[:2]
    u = np.asarray(rhs, dtype=complex).T.ravel()
    return (coef * u[idx]).sum(axis=1).real


def _rows_index(rows, cols):
    """Index of the block rows x cols of a matrix: a slice for each run of
    consecutive indices, so that adding into the block is not a scatter."""
    def run(r):
        return slice(r[0], r[-1] + 1) if r[-1] - r[0] + 1 == len(r) else None

    a, b = run(rows), run(cols)
    if a is None and b is None:
        return np.ix_(rows, cols)
    return (rows if a is None else a), (cols if b is None else b)


class LiftSchur:
    """Schur complement M = A W A^T of a program whose rows all come from row
    families, by contraction of W (see the module docstring).

    Lifts of one kind -- group, factorization of the variable, kept factors,
    transpose and family dimension -- differ only in their scale on each
    member.  So for each pair of kinds on a group, T is formed once for the
    members both touch and changed to the two Hermitian bases
    (``_row_map``): on one side by two products, one per entry of c_k, and
    their sum; on the other by one gather from the float view, as
    u_k = T^T vec(c_k) is vec(Y^T) for the Hermitian
    Y = Tr_rest[W (I (x) H_k) W].  One real product with the members' scale
    products then gives the block of every pair of families.

    Built once per solve, and called with the NT scaling W of every group
    once per step (and with W = I for the presolve's Gram matrix), it
    returns M over every family row, unscaled.  M is symmetric up to
    rounding; the factorization reads its lower triangle.
    """

    def __init__(self, problem, groups, slots):
        nblocks = len(problem.blocks)
        sides = list(problem.blocks) + [1] * len(problem.scalar_costs)
        fact = [(n,) for n in sides]  # validation makes the partial lifts agree
        for fam in problem.families:
            for v, lift in family_terms(fam, nblocks):
                if partial(lift):
                    fact[v] = lift.dims
        kinds = {}  # kind -> {family: its scale on each member of the group}
        rows = []
        lo = 0
        for f, fam in enumerate(problem.families):
            rows.append(np.arange(lo, lo + fam.dim**2))
            lo += fam.dim**2
            for v, lift in family_terms(fam, nblocks):
                gi, j = slots[v]
                dims = fact[v]
                keep = lift.keep if partial(lift) else tuple(range(len(dims))) if lift.keep else ()
                kind = (gi, dims, keep, lift.transpose, fam.dim)
                scales = kinds.setdefault(kind, {}).setdefault(f, np.zeros(groups[gi].nb))
                scales[j] += lift.scale
        self.m = lo

        maps = {kind: _row_map(kind[4], bool(kind[2]), kind[3]) for kind in kinds}
        self.pairs = []
        items = list(kinds.items())
        for ai, (ka, fams_a) in enumerate(items):
            for kb, fams_b in items[ai:]:
                if ka[:2] != kb[:2]:  # another group, or members factored otherwise
                    continue
                sa, sb = np.array(list(fams_a.values())), np.array(list(fams_b.values()))
                members = np.flatnonzero((sa != 0).any(axis=0) & (sb != 0).any(axis=0))
                if not members.size:
                    continue
                weights = (sa[:, None, members] * sb[None, :, members]).reshape(-1, members.size)
                (ia, ca), (eb, fb) = maps[ka][:2], maps[kb][2:]
                if weights.size == 1:  # one member and one family a side: a factor
                    fb, weights = fb * weights[0, 0], None
                if members.size == groups[ka[0]].nb:
                    members = slice(None)
                ra = np.concatenate([rows[f] for f in fams_a])
                rb = np.concatenate([rows[f] for f in fams_b])
                self.pairs.append((  # the entry columns copied: numpy copies a strided index per use
                    ka[0], members, _contraction(ka[1], ka[2], kb[2]), ia.T.copy(), ca.T[:, :, None].copy(),
                    eb, fb, weights, (len(fams_a), len(fams_b)), _rows_index(ra, rb),
                    None if ka == kb else _rows_index(rb, ra),
                ))

    def __call__(self, ws):
        schur = np.zeros((self.m, self.m))
        for gi, members, contract, (i0, i1), (c0, c1), eb, fb, weights, (na, nb), cut, mirror in self.pairs:
            t = contract(ws[gi][members])
            u = t[:, i0] * c0 + t[:, i1] * c1
            v = u.view(np.float64)[:, :, eb] * fb
            if weights is None:
                block = v[0]
            else:
                ma, mb = v.shape[1:]
                block = (weights @ v.reshape(len(v), -1)).reshape(na, nb, ma, mb)
                block = block.transpose(0, 2, 1, 3).reshape(na * ma, nb * mb)
            schur[cut] += block
            if mirror is not None:
                schur[mirror] += block.T
        return schur
