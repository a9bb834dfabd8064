import numpy as np
import pytest

from qincompat import families, sdp
from qincompat.linalg import hermitian_basis
from qincompat.sdp import (
    LinearConstraint,
    SdpProblem,
    SolveOptions,
    hermitian_equality,
    real_embed,
    solve,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def random_herm(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def dominate_projector_problem():
    # min Tr X  s.t.  X >= |0><0|, X >= 0   (optimum 1 at X = |0><0|)
    p = np.diag([1.0, 0.0]).astype(complex)
    cons = hermitian_equality(2, [(0, lambda h: h), (1, lambda h: -h)], rhs=p)
    return SdpProblem(
        blocks=[2, 2],
        objective=[np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)],
        constraints=cons,
    )


def test_dominate_projector():
    sol = solve(dominate_projector_problem())
    assert sol.status == "optimal"
    assert abs(sol.primal_value - 1.0) < 1e-7
    assert abs(sol.dual_value - 1.0) < 1e-7
    x = sol.block_values[0]
    assert np.linalg.eigvalsh(x)[0] > -1e-9


def test_smallest_dominating_multiple():
    # min t  s.t.  t I >= sigma_x  (optimum: largest eigenvalue, 1)
    cons = hermitian_equality(
        2,
        [(0, lambda h: h)],
        rhs=-SX,
        scalar_terms=[(0, lambda h: -np.trace(h).real)],
    )
    prob = SdpProblem(
        blocks=[2],
        objective=[np.zeros((2, 2), dtype=complex)],
        constraints=cons,
        scalar_costs=[1.0],
    )
    sol = solve(prob)
    assert sol.status == "optimal"
    assert abs(sol.primal_value - 1.0) < 1e-7
    assert abs(sol.scalar_values[0] - 1.0) < 1e-7


def test_min_eigenvalue_oracle():
    rng = np.random.default_rng(42)
    for _ in range(5):
        c = random_herm(rng, 3)
        # Tr X = 1 written directly
        cons = [LinearConstraint({0: np.eye(3, dtype=complex)}, 1.0)]
        prob = SdpProblem(blocks=[3], objective=[c], constraints=cons)
        sol = solve(prob)
        want = np.linalg.eigvalsh(c)[0]
        assert sol.status == "optimal"
        assert abs(sol.primal_value - want) < 1e-7


def constructed_instance(rng, d=4, m=6, rank=2):
    """Random instance with a known optimum built from complementary X*, S*."""
    basis = [random_herm(rng, d) for _ in range(m)]
    v = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    xs_diag = np.concatenate([rng.uniform(0.5, 2.0, rank), np.zeros(d - rank)])
    ss_diag = np.concatenate([np.zeros(rank), rng.uniform(0.5, 2.0, d - rank)])
    xstar = v @ np.diag(xs_diag) @ v.conj().T
    sstar = v @ np.diag(ss_diag) @ v.conj().T
    ystar = rng.standard_normal(m)
    c = sstar + sum(y * a for y, a in zip(ystar, basis))
    cons = [LinearConstraint({0: a}, float(np.trace(a @ xstar).real)) for a in basis]
    prob = SdpProblem(blocks=[d], objective=[(c + c.conj().T) / 2], constraints=cons)
    value = float(np.trace(c @ xstar).real)
    return prob, value


# Cold-start iteration bound on the seed-7 constructed instances.  Measured:
# 12-15 iterations; a corrector that takes half the Newton step needs 32-34.
CONSTRUCTED_MAX_ITERATIONS = 20


def test_constructed_instances():
    rng = np.random.default_rng(7)
    for _ in range(8):
        prob, value = constructed_instance(rng)
        sol = solve(prob)
        assert sol.status == "optimal"
        assert sol.iterations <= CONSTRUCTED_MAX_ITERATIONS
        assert abs(sol.primal_value - value) < 1e-6 * (1 + abs(value))
        # weak duality on the returned pair
        assert sol.dual_value <= sol.primal_value + 1e-9
        # returned block is feasible
        x = sol.block_values[0]
        assert np.linalg.eigvalsh(x)[0] > -1e-9
        for con in prob.constraints:
            got = np.trace(con.coeffs[0] @ x).real
            assert abs(got - con.rhs) < 1e-6


def test_injected_start_matches_cold_start():
    # strictly feasible start: scaled identity satisfying Tr X = 1
    rng = np.random.default_rng(3)
    c = random_herm(rng, 4)
    cons = [LinearConstraint({0: np.eye(4, dtype=complex)}, 1.0)]
    prob = SdpProblem(blocks=[4], objective=[c], constraints=cons)
    cold = solve(prob)
    warm = solve(prob, initial_blocks=[np.eye(4, dtype=complex) / 4])
    assert cold.status == warm.status == "optimal"
    assert abs(cold.primal_value - warm.primal_value) < 1e-7


def test_determinism():
    rng = np.random.default_rng(11)
    prob, _ = constructed_instance(rng)
    a = solve(prob)
    b = solve(prob)
    assert a.primal_value == b.primal_value
    assert a.dual_value == b.dual_value
    assert a.iterations == b.iterations
    assert np.array_equal(a.block_values[0], b.block_values[0])


def test_redundant_rows_removed():
    prob = dominate_projector_problem()
    prob.constraints = prob.constraints + prob.constraints  # duplicate everything
    sol = solve(prob)
    assert sol.status == "optimal"
    assert abs(sol.primal_value - 1.0) < 1e-7
    assert sol.y.shape == (len(prob.constraints),)


def test_inconsistent_rows_infeasible():
    cons = [
        LinearConstraint({0: np.eye(2, dtype=complex)}, 1.0),
        LinearConstraint({0: np.eye(2, dtype=complex)}, 2.0),
    ]
    prob = SdpProblem(blocks=[2], objective=[np.eye(2, dtype=complex)], constraints=cons)
    sol = solve(prob)
    assert sol.status == "infeasible"


def test_conic_infeasible():
    # Tr X = -1 with X >= 0
    cons = [LinearConstraint({0: np.eye(2, dtype=complex)}, -1.0)]
    prob = SdpProblem(blocks=[2], objective=[np.zeros((2, 2), dtype=complex)], constraints=cons)
    sol = solve(prob)
    assert sol.status == "infeasible"


def test_unbounded():
    c = np.diag([1.0, -1.0]).astype(complex)
    prob = SdpProblem(blocks=[2], objective=[c], constraints=[])
    sol = solve(prob)
    assert sol.status == "unbounded"


def test_real_embed_real_block_unchanged():
    cons = [LinearConstraint({0: np.eye(2, dtype=complex)}, 1.0)]
    prob = SdpProblem(
        blocks=[2],
        objective=[np.diag([1.0, 2.0]).astype(complex)],
        constraints=cons,
        real_blocks=frozenset({0}),
    )
    emb = real_embed(prob)
    assert emb.blocks == [2]
    assert np.abs(emb.objective[0] - np.diag([1.0, 2.0])).max() == 0.0


def test_real_embed_scalar_block():
    # 1x1 complex block becomes a 2x2 scaled identity; optimum unchanged
    cons = [LinearConstraint({0: np.array([[1.0]], dtype=complex)}, 3.0)]
    prob = SdpProblem(blocks=[1], objective=[np.array([[1.0]], dtype=complex)], constraints=cons)
    emb = real_embed(prob)
    assert emb.blocks == [2]
    assert np.abs(emb.objective[0] - np.eye(2) / 2).max() == 0.0
    a = solve(prob)
    assert a.status == "optimal" and abs(a.primal_value - 3.0) < 1e-7


def test_real_embed_preserves_optimum():
    rng = np.random.default_rng(23)
    prob, value = constructed_instance(rng, d=3, m=4, rank=1)
    emb = real_embed(prob)
    sol = solve(emb)
    assert sol.status == "optimal"
    assert abs(sol.primal_value - value) < 1e-6 * (1 + abs(value))


def test_bloch_sphere_bruteforce():
    # min <C, X> over states of a qubit equals a dense grid search on pure states
    rng = np.random.default_rng(5)
    c = random_herm(rng, 2)
    prob = SdpProblem(
        blocks=[2],
        objective=[c],
        constraints=[LinearConstraint({0: np.eye(2, dtype=complex)}, 1.0)],
    )
    sol = solve(prob)
    best = np.inf
    for th in np.linspace(0, np.pi, 400):
        for ph in np.linspace(0, 2 * np.pi, 200, endpoint=False):
            v = np.array([np.cos(th / 2), np.exp(1j * ph) * np.sin(th / 2)])
            best = min(best, float(np.real(v.conj() @ c @ v)))
    assert abs(sol.primal_value - best) < 1e-3


def test_hermitian_equality_rows():
    # the emitted rows hold exactly on a point satisfying the operator equality
    rng = np.random.default_rng(9)
    target = random_herm(rng, 2)
    rows = hermitian_equality(2, [(0, lambda h: h), (1, lambda h: -h)], rhs=target)
    assert len(rows) == 4
    x = random_herm(rng, 2)
    z = x - target
    for row in rows:
        got = sum(np.trace(a @ (x if b == 0 else z)).real for b, a in row.coeffs.items())
        assert abs(got - row.rhs) < 1e-12


def test_validate_rejects_bad_problem():
    from qincompat.linalg import ContractError, DimensionError

    with pytest.raises(DimensionError):
        SdpProblem(blocks=[2], objective=[], constraints=[]).validate()
    bad = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ContractError):
        SdpProblem(blocks=[2], objective=[bad], constraints=[]).validate()
    with pytest.raises(DimensionError, match="no variables"):
        SdpProblem(blocks=[], objective=[], constraints=[]).validate()
    eye = np.eye(2, dtype=complex)
    with pytest.raises(ContractError, match="scalar_costs"):
        SdpProblem(blocks=[2], objective=[eye], constraints=[], scalar_costs=[np.inf]).validate()
    row = LinearConstraint({0: eye}, 1.0, {0: np.nan})
    with pytest.raises(ContractError, match="non-finite coefficient on scalar 0"):
        SdpProblem(blocks=[2], objective=[eye], constraints=[row], scalar_costs=[1.0]).validate()
    with pytest.raises(DimensionError, match="real block 1"):
        SdpProblem(blocks=[2], objective=[eye], constraints=[], real_blocks=frozenset({1})).validate()


def test_tolerances_respected():
    rng = np.random.default_rng(31)
    prob, value = constructed_instance(rng)
    sol = solve(prob, SolveOptions(feas_tol=1e-10, gap_tol=1e-10))
    assert sol.status == "optimal"
    assert sol.gap <= 1e-10 * (1 + abs(sol.primal_value))
    assert abs(sol.primal_value - value) < 1e-7


def test_svd_falls_back_when_gesdd_fails(monkeypatch):
    # gesdd can fail to converge on well-conditioned input; the NT scaling
    # must then retry with gesvd instead of aborting the solve
    rng = np.random.default_rng(11)
    prob, value = constructed_instance(rng)
    want = solve(prob)
    real_svd = np.linalg.svd
    calls = []

    def flaky_svd(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(sdp.np.linalg, "svd", flaky_svd)
    got = solve(prob)
    assert len(calls) > 1
    assert got.status == "optimal"
    assert abs(got.primal_value - want.primal_value) < 1e-9
    assert abs(got.primal_value - value) < 1e-6 * (1 + abs(value))

    # when gesvd fails too, the solve stops at the iterate it has, saying so
    def broken_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(sdp.np.linalg, "svd", broken_svd)
    monkeypatch.setattr(sdp.np.linalg, "eigh", broken_svd)
    assert_breakdown_stalls_at_start(prob)


def assert_breakdown_stalls_at_start(prob):
    """A step computation that breaks down at the first iteration returns
    the cold start as a stalled solve."""
    sol = solve(prob)
    assert sol.status == "stalled"
    assert sol.iterations == 0
    assert np.isfinite([sol.primal_value, sol.dual_value, sol.gap]).all()
    for x in sol.block_values:
        assert np.array_equal(x, x[0, 0] * np.eye(len(x)))


def mixed_rows_problem(rng, blocks, real, nscalars, m):
    """Zero-objective problem whose rows touch random subsets of the
    variables (blocks, then scalars)."""
    nvars = len(blocks) + nscalars
    cons = []
    for k in range(m):
        touched = [v for v in range(nvars) if rng.random() < 0.4] or [k % nvars]
        coeffs, scalars = {}, {}
        for v in touched:
            if v >= len(blocks):
                scalars[v - len(blocks)] = float(rng.standard_normal())
            else:
                a = random_herm(rng, blocks[v])
                coeffs[v] = a.real.astype(complex) if v in real else a
        cons.append(LinearConstraint(coeffs, 0.0, scalars))
    return SdpProblem(
        blocks=blocks,
        objective=[np.zeros((n, n), dtype=complex) for n in blocks],
        constraints=cons,
        scalar_costs=[0.0] * nscalars,
        real_blocks=real,
    )


def test_schur_complement_matches_definition():
    # interleaved sides, some real, and two scalars (which join the real 1x1
    # group), with rows that touch random subsets of the variables
    rng = np.random.default_rng(17)
    blocks = [3, 2, 3, 1, 2, 3]
    prob = mixed_rows_problem(rng, blocks, frozenset({1, 3, 5}), 2, 14)
    groups, slots, _, amat, _ = sdp._grouped_form(prob)
    assert [(g.n, g.cplx, g.members) for g in groups] == [
        (3, True, [0, 2]), (2, False, [1]), (1, False, [3, 6, 7]), (2, True, [4]), (3, False, [5]),
    ]

    # row k, variable v: the complex coefficient matrix, and its unpacking from A
    sides = blocks + [1, 1]
    dense = []
    for k, con in enumerate(prob.constraints):
        row = [np.zeros((n, n), dtype=complex) for n in sides]
        for v, a in con.coeffs.items():
            row[v] = a
        for j, a in con.scalar_coeffs.items():
            row[len(blocks) + j] = np.array([[a]], dtype=complex)
        unpacked = [g.unpack(amat[k]) for g in groups]
        for v, (gi, j) in enumerate(slots):
            assert np.abs(unpacked[gi][j] - row[v]).max() <= 1e-15
        dense.append(row)

    rs = []
    for g in groups:
        r = rng.standard_normal((g.nb, g.n, g.n)) + g.n * np.eye(g.n)
        if g.cplx:
            r = r + 1j * rng.standard_normal((g.nb, g.n, g.n))
        rs.append(r)
    ws = [rs[gi][j] @ rs[gi][j].conj().T for gi, j in slots]

    got = sdp._schur_complement(amat, sdp._schur_plan(amat, groups), rs)
    want = np.array([
        [sum(np.trace(w @ ak @ w @ al).real for w, ak, al in zip(ws, rk, rl)) for rl in dense]
        for rk in dense
    ])
    assert np.array_equal(got, got.T)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # rows sharing no variable do not couple
    touched = [set(c.coeffs) | {len(blocks) + j for j in c.scalar_coeffs} for c in prob.constraints]
    for k, tk in enumerate(touched):
        for l, tl in enumerate(touched):
            if not tk & tl:
                assert got[k, l] == 0.0


@pytest.mark.parametrize("cplx", [True, False])
def test_flat_layout_round_trip_and_inner_product(cplx):
    rng = np.random.default_rng(19)
    for n in (1, 2, 3, 5):
        mats = [random_herm(rng, n) for _ in range(8)]
        x = np.array(mats if cplx else [m.real for m in mats])
        # a leading real 1x1 block puts the stack at an odd float offset
        group = sdp._Group(n, cplx, list(range(8)), 1)
        v = sdp._pack([np.ones((1, 1, 1)), x])
        assert v.shape == (group.hi,) and group.size == (2 if cplx else 1) * n * n
        assert np.array_equal(group.unpack(v), x)
        # <A, X> = Re tr(AX) = flat(A) . flat(X)
        rows = v[1:].reshape(8, group.size)
        want = np.array([[np.trace(a @ b).real for b in x] for a in x])
        assert np.abs(rows @ rows.T - want).max() <= 1e-13 * np.abs(want).max()


def mixed_problem(rng, perm=None):
    """Two complex sides, a real block and two scalars with a unique finite
    optimum: unit-trace blocks, positive scalar costs and coupling rows that
    hold strictly at X_b = I / n, u = 1.  ``perm`` reorders the blocks."""
    blocks = [2, 3, 2, 3]
    real = {2}
    objective = [random_herm(rng, n) for n in blocks]
    objective[2] = objective[2].real.astype(complex)
    coupling = []
    for _ in range(3):
        coeffs = {b: random_herm(rng, n) for b, n in enumerate(blocks)}
        coeffs[2] = coeffs[2].real.astype(complex)
        scalars = {0: float(rng.standard_normal()), 1: float(rng.standard_normal())}
        rhs = sum(np.trace(a).real / blocks[b] for b, a in coeffs.items()) + sum(scalars.values())
        coupling.append((coeffs, scalars, rhs))
    perm = list(range(len(blocks))) if perm is None else perm
    where = {b: i for i, b in enumerate(perm)}
    cons = [LinearConstraint({where[b]: np.eye(n, dtype=complex)}, 1.0) for b, n in enumerate(blocks)]
    cons += [LinearConstraint({where[b]: a for b, a in coeffs.items()}, rhs, scalars)
             for coeffs, scalars, rhs in coupling]
    return SdpProblem(
        blocks=[blocks[b] for b in perm],
        objective=[objective[b] for b in perm],
        constraints=cons,
        scalar_costs=[1.0, 0.5],
        real_blocks=frozenset(where[b] for b in real),
    )


def test_block_order_does_not_change_the_solution():
    perm = [3, 0, 2, 1]
    base = solve(mixed_problem(np.random.default_rng(29)))
    moved = solve(mixed_problem(np.random.default_rng(29), perm))
    assert base.status == moved.status == "optimal"
    assert abs(base.primal_value - moved.primal_value) <= 1e-8
    assert abs(base.dual_value - moved.dual_value) <= 1e-8
    for i, b in enumerate(perm):
        assert np.abs(moved.block_values[i] - base.block_values[b]).max() <= 1e-8
    assert np.abs(np.subtract(moved.scalar_values, base.scalar_values)).max() <= 1e-8


def test_cholesky_falls_back_per_block(monkeypatch):
    # a failed batched Cholesky must not abort the solve: every block of the
    # stack is factored on its own, and the failing one with a jitter
    prob = mixed_problem(np.random.default_rng(31))
    want = solve(prob)
    real_cholesky = np.linalg.cholesky
    failed = []

    def flaky_cholesky(a, *args, **kwargs):
        if not failed and a.ndim == 3 and len(a) > 1:
            failed.append("stack")
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        if failed == ["stack"]:
            # the first block of that stack fails on its own, too
            failed.append("block")
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return real_cholesky(a, *args, **kwargs)

    monkeypatch.setattr(sdp.np.linalg, "cholesky", flaky_cholesky)
    got = solve(prob)
    assert failed == ["stack", "block"]
    assert got.status == "optimal"
    assert abs(got.primal_value - want.primal_value) < 1e-7

    # a block that fails every shift ends the solve as stalled, not raised
    def broken_cholesky(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(sdp.np.linalg, "cholesky", broken_cholesky)
    assert_breakdown_stalls_at_start(prob)


@pytest.mark.parametrize("cplx", [True, False])
def test_lyap_solves_the_scaled_complementarity_equation(cplx):
    # (Lambda D + D Lambda)/2 = T on a stack, and the predictor's T = -Lambda^2
    # gives D = -Lambda
    rng = np.random.default_rng(37)
    for n in (1, 2, 5):
        lam = rng.uniform(0.01, 10.0, (4, n))
        t = np.array([random_herm(rng, n) for _ in range(4)])
        if not cplx:
            t = t.real
        d = sdp._lyap(lam, t)
        assert d.dtype == t.dtype
        assert np.array_equal(d, np.swapaxes(d, -1, -2).conj())
        lhs = (lam[:, :, None] * d + d * lam[:, None, :]) / 2
        assert np.abs(lhs - t).max() <= 1e-13 * np.abs(t).max()
        got = sdp._lyap(lam, -sdp._diag(lam**2))
        assert np.abs(got + sdp._diag(lam)).max() <= 1e-13 * lam.max()


def test_stall_exit_is_reported():
    # a gap tolerance no iterate can reach: the steps shrink below 1e-8 and
    # the solve stops early, saying so
    prob = mixed_problem(np.random.default_rng(29))
    opts = SolveOptions(gap_tol=1e-30)
    sol = solve(prob, opts)
    assert sol.status == "stalled"
    assert sol.iterations < opts.max_iter


def test_factorization_breakdown_is_reported():
    # the same unreachable tolerance drives this instance's primal block
    # singular; the solve reports the last accepted iterate as stalled
    prob, value = constructed_instance(np.random.default_rng(7))
    opts = SolveOptions(gap_tol=1e-30)
    sol = solve(prob, opts)
    assert sol.status == "stalled"
    assert sol.iterations < opts.max_iter
    assert np.isfinite([sol.primal_value, sol.dual_value, sol.gap]).all()
    assert abs(sol.primal_value - value) < 1e-4 * (1 + abs(value))

    # it returns the iterate closest to the convergence test, so it is no
    # worse than the one the same run holds when cut at iteration 16
    def score(s):
        grel = s.gap / (1 + abs(s.primal_value))
        return max(s.primal_residual / opts.feas_tol, s.dual_residual / opts.feas_tol,
                   grel / opts.gap_tol)

    cut = solve(prob, SolveOptions(gap_tol=opts.gap_tol, max_iter=16))
    assert cut.status == "max_iter" and cut.iterations == 16 < sol.iterations
    assert score(sol) <= score(cut)


Z = np.diag([1.0, -1.0]).astype(complex)


@pytest.mark.parametrize("s", [1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12, 3e13, 1e14])
def test_certificates_do_not_depend_on_scale(s):
    eye = np.eye(2, dtype=complex)

    def problem(c, rows):
        return SdpProblem(blocks=[2], objective=[c], constraints=rows)

    # min Tr X s.t. Tr X = s, and min -s X_11 s.t. Tr X = 1: optimal at any scale
    sol = solve(problem(eye, [LinearConstraint({0: eye}, s)]))
    assert sol.status == "optimal"
    assert abs(sol.primal_value - s) <= 1e-8 * (1 + s)
    sol = solve(problem(-s * np.diag([1.0, 0.0]).astype(complex), [LinearConstraint({0: eye}, 1.0)]))
    assert sol.status == "optimal"
    assert abs(sol.primal_value + s) <= 1e-8 * (1 + s)
    # min Tr(sZ X) s.t. Tr(sZ X) = 0 is bounded (optimum 0): rounding in
    # c.x = 0 is no certificate
    sol = solve(problem(s * Z, [LinearConstraint({0: s * Z}, 0.0)]))
    assert sol.status == "optimal"
    assert abs(sol.primal_value) <= 1e-7
    # Tr X = -s is infeasible, and s Z without constraints is unbounded
    assert solve(problem(eye, [LinearConstraint({0: eye}, -s)])).status == "infeasible"
    assert solve(problem(s * Z, [])).status == "unbounded"


def test_iteration_limit_is_reported():
    prob = mixed_problem(np.random.default_rng(29))
    sol = solve(prob, SolveOptions(max_iter=3))
    assert sol.status == "max_iter"
    assert sol.iterations == 3
    sol = solve(prob, SolveOptions(max_iter=0))
    assert sol.status == "max_iter" and sol.iterations == 0
    assert np.isfinite([sol.primal_value, sol.dual_value, sol.primal_residual]).all()
    from qincompat.linalg import ContractError

    with pytest.raises(ContractError, match="max_iter"):
        solve(prob, SolveOptions(max_iter=-1))


@pytest.mark.parametrize("field, value", [
    ("gap_tol", float("nan")), ("gap_tol", float("inf")), ("feas_tol", -1.0),
    ("feas_tol", 0.0), ("max_iter", 2.5), ("max_iter", True),
])
def test_invalid_solve_options_are_rejected_naming_the_field(field, value):
    from qincompat.linalg import ContractError

    prob = mixed_problem(np.random.default_rng(29))
    with pytest.raises(ContractError, match=field):
        solve(prob, SolveOptions(**{field: value}))


def test_presolve_keeps_the_rows_that_add_rank():
    # six random rows, then a duplicate, the sum of two earlier rows, a
    # scaled copy and a zero row
    rng = np.random.default_rng(41)
    prob = mixed_rows_problem(rng, [3, 2, 3], frozenset({1}), 2, 6)
    rows = prob.constraints

    def combine(terms):
        coeffs, scalars = {}, {}
        for f, k in terms:
            for v, a in rows[k].coeffs.items():
                coeffs[v] = coeffs.get(v, 0) + f * a
            for j, a in rows[k].scalar_coeffs.items():
                scalars[j] = scalars.get(j, 0.0) + f * a
        return LinearConstraint(coeffs, 0.0, scalars)

    rows += [combine([(1.0, 1)]), combine([(1.0, 0), (1.0, 2)]), combine([(-3.7, 3)]),
             LinearConstraint({}, 0.0)]
    groups, _, _, amat, _ = sdp._grouped_form(prob)
    assert np.array_equal(sdp._independent_rows(amat, groups), np.arange(6))
    assert np.linalg.matrix_rank(amat) == 6

    # the diagonal and weighted upper-triangle columns carry every inner
    # product of the rows, so the rank too
    cols, weights = sdp._info_columns(groups)
    half = amat[:, cols] * weights
    assert half.shape[1] < amat.shape[1]
    gram = amat @ amat.T
    assert np.abs(half @ half.T - gram).max() <= 1e-13 * np.abs(gram).max()
    for _ in range(5):
        prob = mixed_rows_problem(rng, [2, 3, 1], frozenset({2}), 1, 12)
        groups, _, _, amat, _ = sdp._grouped_form(prob)
        cols, weights = sdp._info_columns(groups)
        assert np.linalg.matrix_rank(amat[:, cols] * weights) == np.linalg.matrix_rank(amat)

    # more rows than columns: R has no diagonal entry for the last rows, and
    # the scaled copy of row 0 tilts what follows; the check against the
    # kept rows restores row 2
    scalars = [{0: 0.1, 1: 0.3}, {0: 0.3, 1: 0.9}, {1: 1.0}, {0: 0.2, 1: 0.6}, {0: 1.0, 1: -1.0}]
    prob = SdpProblem(blocks=[], objective=[], scalar_costs=[0.0, 0.0],
                      constraints=[LinearConstraint({}, 0.0, sc) for sc in scalars])
    groups, _, _, amat, _ = sdp._grouped_form(prob)
    assert np.array_equal(sdp._independent_rows(amat, groups), [0, 2])


@pytest.mark.parametrize("m", [1, sdp.SUBST_BLOCK - 1, sdp.SUBST_BLOCK, sdp.SUBST_BLOCK + 1,
                               3 * sdp.SUBST_BLOCK + 2])
def test_schur_substitution_matches_a_dense_solve(m):
    rng = np.random.default_rng(43)
    g = rng.standard_normal((m, m))
    schur = g @ g.T + m * np.eye(m)
    solve_schur = sdp._chol_solver(np.linalg.cholesky(schur))
    # one factor serves both solves of a step
    for _ in range(2):
        rhs = rng.standard_normal(m)
        want = np.linalg.solve(schur, rhs)
        assert np.abs(solve_schur(rhs) - want).max() <= 1e-12 * np.abs(want).max()


def test_svd_fallback_rebuilds_the_blocks(monkeypatch):
    rng = np.random.default_rng(47)
    n = 4
    cplx = np.array([rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 2.5 * np.eye(n)])
    real = np.array([rng.standard_normal((n, n)), 0.3 * np.eye(n)])
    want = [np.linalg.svd(b)[1] for b in (cplx, real)]

    def broken_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(sdp.np.linalg, "svd", broken_svd)
    for b, sigma in zip((cplx, real), want):
        u, s, vh = sdp._svd(b)
        assert u.dtype == vh.dtype == b.dtype
        # a repeated sigma (B = c I) still gives orthonormal U and V
        assert np.abs(s - sigma).max() <= 1e-13 * sigma.max()
        assert np.abs((u * s[:, None, :]) @ vh - b).max() <= 1e-13 * np.abs(b).max()
        for q in (u, vh):
            assert np.abs(sdp._ct(q) @ q - np.eye(n)).max() <= 1e-13


# -- row families: the programs of the joint devices and their duals ----------


@pytest.fixture(scope="module")
def device_programs():
    """Every program the robustness, compatibility and game routines solve,
    on small random inputs, with the arguments it was solved with."""
    from qincompat import compat, games, robustness
    from qincompat.qobjects import PovmCollection, random_channel, random_povm

    rng = np.random.default_rng(71)
    programs = []

    def record(what):
        def solve_and_record(prob, *args, **kwargs):
            programs.append((what, prob, args, kwargs))
            return solve(prob, *args, **kwargs)
        return solve_and_record

    def channels(n, d, dp):
        return [random_channel(d, dp, 2, rng) for _ in range(n)]

    coll = PovmCollection([random_povm(2, 3, rng), random_povm(2, 3, rng)])
    runs = [
        ("channels n=2 2->3", lambda: robustness.robustness_channels_primal(channels(2, 2, 3))),
        ("channels n=3 3->2", lambda: robustness.robustness_channels_primal(channels(3, 3, 2))),
        ("channel check", lambda: compat.check_channels(channels(2, 2, 3))),
        ("measurements", lambda: robustness.robustness_measurements(coll)),
        ("measurement check", lambda: compat.check_measurements(coll)),
        ("pair 2->3", lambda: robustness.robustness_pair_primal(random_povm(2, 3, rng),
                                                                 random_channel(2, 3, 2, rng))),
        ("pair check", lambda: compat.check_pair(random_povm(2, 2, rng), random_channel(2, 3, 2, rng))),
        ("channel game", lambda: games.best_compatible_success(
            games.random_game(2, 2, 2, rng), PovmCollection([random_povm(2, 2, rng) for _ in range(2)]))),
    ]
    saved = {mod: mod.solve for mod in (compat, games, robustness)}
    try:
        for what, run in runs:
            for mod in saved:
                mod.solve = record(what)
            run()
    finally:
        for mod, fn in saved.items():
            mod.solve = fn
    return programs


def as_plain_rows(prob):
    """The same problem with every family expanded by ``hermitian_equality``."""
    rows = list(prob.constraints)
    for fam in prob.families:
        rows += hermitian_equality(fam.dim, fam.terms, fam.rhs, fam.scalar_terms)
    return SdpProblem(prob.blocks, prob.objective, rows, prob.scalar_costs, prob.real_blocks)


def test_device_programs_cover_every_kind(device_programs):
    # primal and dual of each robustness, and each check and game program
    kinds = {}
    for what, prob, _, _ in device_programs:
        assert prob.families and not prob.constraints
        kinds[what] = kinds.get(what, 0) + 1
    assert kinds == {"channels n=2 2->3": 2, "channels n=3 3->2": 2, "channel check": 1,
                     "measurements": 2, "measurement check": 1, "pair 2->3": 2, "pair check": 1,
                     "channel game": 1}
    transposed = [lift for _, prob, _, _ in device_programs
                  for fam in prob.families for _, lift in fam.terms if lift.transpose]
    assert transposed


def test_family_rows_equal_hermitian_equality_rows(device_programs):
    for what, prob, _, _ in device_programs:
        prob.validate()
        _, _, _, amat, b = sdp._grouped_form(prob)
        _, _, _, want_a, want_b = sdp._grouped_form(as_plain_rows(prob))
        assert np.array_equal(amat, want_a), what
        assert np.array_equal(b, want_b), what


def test_lift_schur_matches_the_dense_schur_complement(device_programs):
    rng = np.random.default_rng(73)
    for what, prob, _, _ in device_programs:
        groups, slots, _, amat, _ = sdp._grouped_form(prob)
        rs = []
        for g in groups:
            r = rng.standard_normal((g.nb, g.n, g.n)) + g.n * np.eye(g.n)
            if g.cplx:
                r = r + 1j * rng.standard_normal((g.nb, g.n, g.n))
            rs.append(r)
        ws = [r @ sdp._ct(r) for r in rs]
        want = sdp._schur_complement(amat, sdp._schur_plan(amat, groups), rs)
        got = families.LiftSchur(prob, groups, slots)(ws)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-12 * scale, what
        assert np.abs(got - got.T).max() <= 1e-13 * scale, what


def test_structured_solve_matches_the_plain_rows(device_programs):
    # the contraction changes only the rounding of M: same status and
    # iteration count, values to well within the tolerance
    for what, prob, args, kwargs in device_programs[:4]:
        got = solve(prob, *args, **kwargs)
        want = solve(as_plain_rows(prob), *args, **kwargs)
        assert got.status == want.status == "optimal", what
        assert got.iterations == want.iterations, what
        for a, b in ((got.primal_value, want.primal_value), (got.dual_value, want.dual_value)):
            assert abs(a - b) <= 1e-9 * (1 + abs(b)), what


def test_validate_rejects_bad_families():
    from qincompat.linalg import ContractError, DimensionError, Lift
    from qincompat.families import RowFamily

    eye = np.eye(4, dtype=complex)

    def problem(*families, real=frozenset()):
        return SdpProblem(blocks=[4, 1], objective=[eye, np.eye(1, dtype=complex)],
                          constraints=[], scalar_costs=[1.0], real_blocks=real,
                          families=list(families))

    problem(RowFamily(2, [(0, Lift((2, 2), (1,))), (1, Lift.trace())], np.eye(2),
                      [(0, Lift.trace(-1.0))])).validate()
    bad = [
        (DimensionError, "block 0", RowFamily(2, [(0, Lift((2, 3), (1,)))])),
        (DimensionError, "block 0", RowFamily(3, [(0, Lift((2, 2), (1,)))])),
        (ContractError, "not a Lift", RowFamily(2, [(0, lambda h: h)])),
        (DimensionError, "unknown block", RowFamily(2, [(2, Lift.identity(2))])),
        (ContractError, "not a trace", RowFamily(2, [], scalar_terms=[(0, Lift.identity(2))])),
        (DimensionError, "unknown scalar", RowFamily(2, [], scalar_terms=[(1, Lift.trace())])),
        (DimensionError, "rhs", RowFamily(2, [], np.eye(3))),
        (ContractError, "Hermitian", RowFamily(2, [], np.array([[0, 1], [0, 0]]))),
    ]
    for err, match, fam in bad:
        with pytest.raises(err, match=match):
            problem(fam).validate()
    with pytest.raises(ContractError, match="complex data on real block 1"):
        problem(RowFamily(1, [(1, Lift.identity(1))]), real=frozenset({1})).validate()
    # two lifts that factor one block differently have no common contraction
    with pytest.raises(DimensionError, match="factors block 0"):
        problem(RowFamily(2, [(0, Lift((2, 2), (0,)))]),
                RowFamily(1, [(0, Lift((1, 4), (0,)))])).validate()


@pytest.mark.parametrize("dims, keep_a, keep_b", [
    ((2, 3, 2), (0, 2), (1, 2)), ((2, 3, 2), (2, 0), (1,)), ((3, 2), (), (0, 1)),
    ((2, 2, 2), (1,), (1,)), ((4,), (0,), ()), ((), (), ()),
])
def test_contraction_is_the_trace_form(dims, keep_a, keep_b):
    # Re tr(W (I (x) a) W (I (x) b)) = Re vec(a) T vec(b), member by member
    from qincompat.linalg import Lift

    rng = np.random.default_rng(79)
    n = int(np.prod(dims))
    g = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    w = g @ sdp._ct(g)
    t = families._contraction(dims, keep_a, keep_b)(w)
    sides = [int(np.prod([dims[k] for k in keep])) if keep else 1 for keep in (keep_a, keep_b)]
    assert t.shape == (3, sides[0] ** 2, sides[1] ** 2)
    for _ in range(3):
        a, b = (random_herm(rng, s) for s in sides)
        la, lb = Lift(dims, keep_a)(a), Lift(dims, keep_b)(b)  # a trace: [Tr a] I
        want = [np.trace(wv @ la @ wv @ lb).real for wv in w]
        got = (a.ravel() @ t @ b.ravel()).real
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
