"""Discrimination games: success probabilities, compatible-best SDPs,
witness-built games, and the unassisted bound."""

import re

import numpy as np
import pytest

from qincompat.games import (
    DegenerateWitnessError,
    DiscriminationGame,
    PovmCollection,
    Strategy,
    _kernel,
    advantage_ratio,
    best_compatible_success,
    game_from_channel_witness,
    game_from_measurement_witness,
    game_from_pair_witness,
    random_game,
    success_prob,
    unassisted_bound_check,
)
from qincompat.linalg import ContractError, DimensionError, kron, matrix_to_json
from qincompat.qobjects import (
    ChoiMatrix,
    Povm,
    apply_channel,
    apply_channel_extended,
    basis_povm,
    identity_channel,
    marginal,
    projective_from_hermitian,
    qc_channel,
    random_channel,
    random_joint_channel,
    random_povm,
    random_state,
    random_unitary,
    unitary_channel,
)
from qincompat.robustness import (
    WitnessSet,
    robustness_channels_dual,
    robustness_channels_primal,
    robustness_measurements,
    robustness_pair_dual,
    robustness_pair_primal,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def pad_choi(choi: ChoiMatrix, dim_out: int) -> ChoiMatrix:
    """Isometrically enlarge the output space to ``dim_out``.  The oracles
    below pad because a game's final measurements share one space."""
    if dim_out < choi.dim_out:
        raise DimensionError("padding cannot shrink the output space")
    if dim_out == choi.dim_out:
        return choi
    v = np.zeros((dim_out, choi.dim_out), dtype=complex)
    v[: choi.dim_out] = np.eye(choi.dim_out)
    iso = kron(v, np.eye(choi.dim_in))
    return ChoiMatrix(choi.dim_in, dim_out, iso @ choi.matrix @ iso.conj().T)


def test_pad_choi():
    rng = np.random.default_rng(11)
    ch = random_channel(2, 2, 2, rng)
    padded = pad_choi(ch, 4).validate()
    rho = random_state(2, rng)
    out = apply_channel(padded, rho)
    assert np.abs(out[:2, :2] - apply_channel(ch, rho)).max() < 1e-12
    assert np.abs(out[2:, :]).max() < 1e-12
    with pytest.raises(DimensionError):
        pad_choi(ch, 1)


def test_mixed_output_dimensions_match_the_padded_channels():
    # X and a 5-outcome qubit measurement, which MAX_OUTCOMES keeps from the
    # measurement route: measure-and-record channels into C^2 and C^5
    five = Povm([np.diag([1.0, 0.0])] + [np.diag([0.0, 0.25])] * 4)
    chans = [qc_channel(p) for p in (projective_from_hermitian(SX), five)]
    rep = robustness_channels_primal(chans)
    oracle = robustness_channels_primal([pad_choi(c, 5) for c in chans])
    assert rep.mixture_joint.dims_out == (2, 5)
    assert abs(rep.primal_value - oracle.primal_value) < 1e-6
    assert rep.gap <= 1e-6 * (1 + rep.primal_value)
    # the channel game's final measurements share one space: no game here
    with pytest.raises(DimensionError, match="witness operators of shapes"):
        game_from_channel_witness(rep.witness, 2, 5)


def bb84_game():
    z0 = np.diag([1.0, 0.0]).astype(complex)
    z1 = np.diag([0.0, 1.0]).astype(complex)
    plus = np.ones((2, 2), dtype=complex) / 2
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    return DiscriminationGame(
        prior=[0.5, 0.5],
        ensembles=[[(0.5, z0), (0.5, z1)], [(0.5, plus), (0.5, minus)]],
    )


def test_bb84_game_perfect_discrimination():
    game = bb84_game().validate()
    plus = np.ones((2, 2), dtype=complex) / 2
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    meas = PovmCollection([basis_povm(2), Povm([plus, minus])])
    assert abs(success_prob(game, Strategy(measurements=meas)) - 1.0) < 1e-12
    # effect order matters: the x-basis projectors swapped give total failure
    swapped = PovmCollection([basis_povm(2), Povm([minus, plus])])
    assert abs(success_prob(game, Strategy(measurements=swapped)) - 0.5) < 1e-12


def test_trivial_measurement_success():
    rng = np.random.default_rng(3)
    game = random_game(3, 2, 2, rng)
    half = Povm([np.eye(3) / 2, np.eye(3) / 2])
    got = success_prob(game, Strategy(measurements=PovmCollection([half, half])))
    assert abs(got - 0.5) < 1e-12


def test_success_prob_matches_monte_carlo():
    rng = np.random.default_rng(17)
    game = random_game(2, 2, 3, rng)
    chans = [random_channel(2, 2, 2, rng) for _ in range(2)]
    meas = PovmCollection([random_povm(2, 3, rng) for _ in range(2)])
    strat = Strategy(preprocess=chans, measurements=meas)
    exact = success_prob(game, strat)

    # resample the game at the pure-state level: pick (x, i), draw an
    # eigenstate of rho_{i|x}, push it through the channel, then draw the
    # measurement outcome
    n_samples = 1_000_000
    cell_p = []
    cell_succ = []
    for x in range(2):
        for i, (p, rho) in enumerate(game.ensembles[x]):
            w, v = np.linalg.eigh(rho)
            w = np.clip(w, 0.0, None)
            w = w / w.sum()
            for k in range(2):
                pure = np.outer(v[:, k], v[:, k].conj())
                out = apply_channel(chans[x], pure)
                q = np.trace(out @ meas.povms[x].elements[i]).real
                cell_p.append(game.prior[x] * p * w[k])
                cell_succ.append(min(max(q, 0.0), 1.0))
    cell_p = np.array(cell_p)
    cell_p = cell_p / cell_p.sum()
    counts = rng.multinomial(n_samples, cell_p)
    hits = sum(rng.binomial(c, q) for c, q in zip(counts, cell_succ))
    est = hits / n_samples
    sigma = np.sqrt(max(exact * (1 - exact), 1e-12) / n_samples)
    assert abs(est - exact) < 3 * sigma + 1e-9


@pytest.mark.parametrize("d, dp, db", [(2, 3, 2), (3, 2, 3), (2, 3, 1), (3, 2, 1)])
def test_assisted_coeff_is_adjoint_of_extended_application(d, dp, db):
    rng = np.random.default_rng(5)
    choi = random_channel(d, dp, 2, rng)
    rho = random_state(d * db, rng)
    h = rng.standard_normal((dp * db, dp * db)) + 1j * rng.standard_normal((dp * db, dp * db))
    m = h @ h.conj().T
    # with no reference (db = 1) the channel acts on the state alone
    push = apply_channel if db == 1 else apply_channel_extended
    lhs = np.trace(push(choi, rho) @ m).real
    rhs = np.trace(choi.matrix @ _kernel(rho, m, d, dp, db)).real
    assert abs(lhs - rhs) < 1e-10


def _pushed_through(game, strat):
    """sum_x prior(x) sum_i p(i|x) Tr[M_i|x Phi_x(rho_i|x)], each state pushed
    through its channel: the operational definition of the success
    probability."""
    if strat.pair_mode is not None:
        povm, channel, final = strat.pair_mode
        db = game.state_dim // povm.dim
        first = sum(p * np.trace(rho @ kron(m, np.eye(db))).real
                    for (p, rho), m in zip(game.ensembles[0], povm.elements))
        second = sum(p * np.trace(apply_channel_extended(channel, rho) @ m).real
                     for (p, rho), m in zip(game.ensembles[1], final.elements))
        return game.prior[0] * first + game.prior[1] * second
    total = 0.0
    for x, povm in enumerate(strat.measurements.povms):
        for (p, rho), m in zip(game.ensembles[x], povm.elements):
            if strat.preprocess is not None:
                push = apply_channel_extended if game.assisted else apply_channel
                rho = push(strat.preprocess[x], rho)
            total += game.prior[x] * p * np.trace(rho @ m).real
    return total


def _strategy_forms():
    rng = np.random.default_rng(67)

    def measured(d, assisted, outcomes=2):
        game = random_game(d, 2, outcomes, rng, assisted=assisted)
        sd = game.state_dim
        return game, Strategy(measurements=PovmCollection(
            [random_povm(sd, outcomes, rng) for _ in range(2)]))

    def preprocessed(assisted):
        game = random_game(2, 2, 2, rng, assisted=assisted)
        md = 6 if assisted else 3
        return game, Strategy(preprocess=[random_channel(2, 3, 2, rng) for _ in range(2)],
                              measurements=PovmCollection([random_povm(md, 2, rng)
                                                           for _ in range(2)]))

    pair_game = random_game(2, 2, 2, rng, assisted=True)
    pair = Strategy(pair_mode=(random_povm(2, 2, rng), random_channel(2, 3, 2, rng),
                               random_povm(6, 2, rng)))
    return {
        "measured, unassisted, d=1": measured(1, False),
        "measured, unassisted, d=2": measured(2, False),
        "measured, assisted": measured(2, True, 3),
        "preprocessed, unassisted": preprocessed(False),
        "preprocessed, assisted": preprocessed(True),
        "pair": (pair_game, pair),
    }


@pytest.mark.parametrize("form", list(_strategy_forms()))
def test_success_prob_matches_pushing_states_through_channels(form):
    game, strat = _strategy_forms()[form]
    want = _pushed_through(game.validate(), strat)
    assert 0.0 < want < 1.0
    assert abs(success_prob(game, strat) - want) < 1e-12


def test_identity_pair_game_hits_closed_form_ratio():
    for d, want in ((2, 4 / 3), (3, 3 / 2)):
        ids = [identity_channel(d), identity_channel(d)]
        w = robustness_channels_dual(ids)
        game, meas = game_from_channel_witness(w, d, d)
        strat = Strategy(preprocess=ids, measurements=meas)
        ratio = advantage_ratio(game, meas, strat, "channels")
        assert abs(ratio - want) < 1e-5


def test_witness_game_ratio_equals_one_plus_robustness():
    rng = np.random.default_rng(29)
    for _ in range(2):
        pair = [unitary_channel(random_unitary(2, rng)) for _ in range(2)]
        rep = robustness_channels_primal(pair)
        game, meas = game_from_channel_witness(rep.witness, 2, 2)
        strat = Strategy(preprocess=pair, measurements=meas)
        ratio = advantage_ratio(game, meas, strat, "channels")
        assert abs(ratio - (1 + rep.primal_value)) < 1e-5
        assert ratio >= 1 + rep.dual_value - 1e-5


def test_advantage_ratio_needs_the_strategy_to_measure_with_meas():
    # both scores are read from the kernels of meas, so a strategy that
    # measures otherwise, or is of the other kind, is refused
    ids = [identity_channel(2), identity_channel(2)]
    game, meas = game_from_channel_witness(robustness_channels_dual(ids), 2, 2)
    copy = PovmCollection([Povm(list(p.elements)) for p in meas.povms])
    assert advantage_ratio(game, meas, Strategy(preprocess=ids, measurements=copy)) > 1.3
    swapped = PovmCollection([Povm(p.elements[::-1]) for p in meas.povms])
    pair = Strategy(pair_mode=(basis_povm(2), identity_channel(2), meas.povms[0]))
    for strat, kind in ((Strategy(preprocess=ids, measurements=swapped), "channels"),
                        (Strategy(preprocess=ids, measurements=meas), "pair"),
                        (pair, "channels")):
        with pytest.raises(ContractError, match="measures with meas"):
            advantage_ratio(game, meas, strat, kind)


def test_compatible_resource_never_beats_denominator():
    rng = np.random.default_rng(37)
    w = robustness_channels_dual([identity_channel(2), identity_channel(2)])
    game, meas = game_from_channel_witness(w, 2, 2)
    j = random_joint_channel(2, 2, 2, rng)
    compat_pair = [marginal(j, 1), marginal(j, 2)]
    strat = Strategy(preprocess=compat_pair, measurements=meas)
    ratio = advantage_ratio(game, meas, strat, "channels")
    assert ratio <= 1 + 1e-6


def test_denominator_at_least_any_feasible_strategy():
    rng = np.random.default_rng(41)
    game = random_game(2, 2, 2, rng, assisted=True)
    meas = PovmCollection([random_povm(4, 2, rng) for _ in range(2)])
    from qincompat.qobjects import cloning_channel
    clone = cloning_channel(2)
    clones = [marginal(clone, 1), marginal(clone, 2)]
    achieved = success_prob(game, Strategy(preprocess=clones, measurements=meas))
    best = best_compatible_success(game, meas, "channels")
    assert best >= achieved - 1e-7


def test_symmetric_witness_gives_uniform_prior():
    p = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    w = WitnessSet("channels", 0.0, channel_ops=[p, p])
    game, _ = game_from_channel_witness(w, 2, 2)
    assert np.abs(game.prior - 0.5).max() < 1e-12


def test_a_dropped_witness_member_leaves_a_valid_prior():
    # a member below WITNESS_DROP_TOL gets prior 0; the others used to keep
    # their share of a total that counted it, and the prior failed validation
    p = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    w = WitnessSet("channels", 0.0, channel_ops=[5e-11 * p, p])
    game, _ = game_from_channel_witness(w, 2, 2)
    assert game.prior.tolist() == [0.0, 1.0]
    # and so, within a measurement, did the distribution of its states when the
    # witness of one effect has a trace below it
    wp = WitnessSet("pair", 0.0, pair_measure_ops=[p[:2, :2], 5e-11 * p[:2, :2]], pair_channel_op=p)
    game, _ = game_from_pair_witness(wp, 2, 2)
    assert [q for q, _ in game.ensembles[0]] == [1.0, 0.0]
    # a measurement whose witness is zero gets prior 0 and some valid ensemble
    wm = WitnessSet("measurements", 0.0, measurement_ops=[[p[:2, :2], np.eye(2) - p[:2, :2]],
                                                       [0 * p[:2, :2]] * 2])
    game = game_from_measurement_witness(wm, 2).validate()
    assert game.prior.tolist() == [1.0, 0.0]


def test_zero_witness_raises():
    z = np.zeros((4, 4))
    w = WitnessSet("channels", 0.0, channel_ops=[z, z])
    with pytest.raises(DegenerateWitnessError):
        game_from_channel_witness(w, 2, 2)
    wp = WitnessSet("pair", 0.0, pair_measure_ops=[np.zeros((2, 2))] * 2,
                    pair_channel_op=z)
    with pytest.raises(DegenerateWitnessError):
        game_from_pair_witness(wp, 2, 2)
    wm = WitnessSet("measurements", 0.0, measurement_ops=[[np.zeros((2, 2))] * 2] * 2)
    with pytest.raises(DegenerateWitnessError):
        game_from_measurement_witness(wm, 2)


def test_pair_witness_game_ratio():
    povm = basis_povm(2)
    chan = identity_channel(2)
    rep = robustness_pair_primal(povm, chan)
    game, template = game_from_pair_witness(rep.witness, 2, 2)
    assert abs(game.prior.sum() - 1) < 1e-12
    strat = template.with_pair(povm, chan)
    final = template.pair_mode[2]
    ratio = advantage_ratio(game, PovmCollection([final]), strat, "pair")
    assert abs(ratio - (1 + rep.primal_value)) < 1e-5


def test_pair_witness_game_with_three_outcomes():
    # the witness game has 2 outcomes on setting 2 whatever the POVM's count
    rng = np.random.default_rng(83)
    for _ in range(2):
        povm, chan = random_povm(2, 3, rng), random_channel(2, 3, 2, rng)
        rep = robustness_pair_primal(povm, chan)
        game, template = game_from_pair_witness(rep.witness, 2, 3)
        assert [len(ens) for ens in game.ensembles] == [3, 2]
        ratio = advantage_ratio(game, PovmCollection([template.pair_mode[2]]),
                                template.with_pair(povm, chan), "pair")
        assert rep.primal_value > 1e-3
        assert abs(ratio - (1 + rep.primal_value)) < 1e-5


@pytest.mark.parametrize("d, dp", [(3, 3), (2, 3)])
@pytest.mark.parametrize("kind", ["channels", "pair"])
def test_witness_game_checks_the_operator_sides(kind, d, dp):
    # qubit witnesses against a game on other sides used to leak numpy's
    # broadcasting ValueError
    if kind == "channels":
        w, build = robustness_channels_dual([identity_channel(2)] * 2), game_from_channel_witness
    else:
        w, build = robustness_pair_dual(basis_povm(2), identity_channel(2)), game_from_pair_witness
    with pytest.raises(DimensionError, match=r"witness operators of shapes .*\(4, 4\).*"
                                             rf"the game needs .*\({d * dp}, {d * dp}\)"):
        build(w, d, dp)


def _qutrit_mubs(k):
    """The computational basis and k - 1 further mutually unbiased qutrit bases."""
    w = np.exp(2j * np.pi / 3)
    bases = [np.eye(3)] + [np.array([[w ** (j * m + a * m * m) for j in range(3)] for m in range(3)])
                           / np.sqrt(3) for a in range(k - 1)]
    return PovmCollection([Povm([np.outer(b[:, i], b[:, i].conj()) for i in range(3)]) for b in bases])


def _measurement_cases():
    rng = np.random.default_rng(89)
    w = np.exp(2j * np.pi / 3)
    f = [np.outer(v, v.conj()) for v in np.array([[w ** (j * m) for m in range(3)]
                                                  for j in range(3)]) / np.sqrt(3)]
    sy = np.array([[0, -1j], [1j, 0]])
    return {
        "Z/X": PovmCollection([basis_povm(2), projective_from_hermitian(SX)]),
        "XYZ": PovmCollection([basis_povm(2), projective_from_hermitian(SX),
                               projective_from_hermitian(sy)]),
        "two qutrit MUBs": _qutrit_mubs(2),
        "three qutrit MUBs": _qutrit_mubs(3),
        "qutrit Z and coarse Fourier": PovmCollection([basis_povm(3), Povm([f[0], f[1] + f[2]])]),
        "random 3-outcome qubit": PovmCollection([random_povm(2, 3, rng) for _ in range(2)]),
        "random qutrit": PovmCollection([random_povm(3, 3, rng), random_povm(3, 2, rng)]),
    }


@pytest.mark.parametrize("case", list(_measurement_cases()))
def test_measurement_witness_game_ratio_equals_one_plus_robustness(case):
    coll = _measurement_cases()[case]
    rep = robustness_measurements(coll)
    game = game_from_measurement_witness(rep.witness, coll.dim)
    assert not game.assisted
    strat = Strategy(measurements=coll)
    ratio = advantage_ratio(game, coll, strat, "measurements")
    assert rep.primal_value > 1e-3
    assert abs(ratio - (1 + rep.primal_value)) < 1e-5
    # the game scores the witness functional over the total witness weight
    total = sum(np.trace(a).real for row in rep.witness.measurement_ops for a in row)
    assert abs(success_prob(game, strat) - rep.witness.evaluate(coll) / total) < 1e-12
    if case == "three qutrit MUBs":
        assert abs(rep.primal_value - 0.4037333) < 1e-6
    # oracle: the witness game of the measure-and-record channels, padded to
    # one output dimension
    o = max(p.outcomes for p in coll.povms)
    chans = [pad_choi(qc_channel(p), o) for p in coll.povms]
    cgame, cmeas = game_from_channel_witness(robustness_channels_primal(chans).witness, coll.dim, o)
    oracle = advantage_ratio(cgame, cmeas, Strategy(preprocess=chans, measurements=cmeas))
    # each route meets 1 + R only to the solves' tolerance, 1e-8: on the random
    # 3-outcome qubit collection they sit 1.2e-8 and 1.1e-8 from it, on either side
    assert abs(ratio - oracle) < (3e-8 if case.startswith("random") else 1e-8)


@pytest.mark.parametrize("visibility", [0.65, 0.7])
def test_compatible_measurements_do_not_beat_the_witness_game(visibility):
    # Z/X stays compatible up to visibility 1/sqrt(2)
    zx = _measurement_cases()["Z/X"]
    game = game_from_measurement_witness(robustness_measurements(zx).witness, 2)
    noisy = PovmCollection([Povm([visibility * e + (1 - visibility) * np.eye(2) / 2
                                  for e in p.elements]) for p in zx.povms])
    assert advantage_ratio(game, noisy, Strategy(measurements=noisy), "measurements") <= 1 + 1e-7


def test_complete_qutrit_mub_set():
    # the computational basis and the three bases sum_m w^(jm + km^2) |m> / sqrt(3)
    values = []
    for k in (2, 3, 4):
        coll = _qutrit_mubs(k)
        rep = robustness_measurements(coll)
        r = rep.primal_value
        assert abs(r - rep.dual_value) <= 1e-6 * r
        game = game_from_measurement_witness(rep.witness, 3)
        assert abs(advantage_ratio(game, coll, Strategy(measurements=coll), "measurements") - (1 + r)) < 1e-5
        values.append(r)
    # each added basis makes the collection more incompatible
    assert values[0] < values[1] < values[2]
    # two bases: 2 - sqrt(3) = (sqrt(3) - 1) / (sqrt(3) + 1), of the same form
    # in d as the qubit pair's 3 - 2 sqrt(2)
    assert abs(values[0] - (2 - np.sqrt(3))) < 1e-7
    # all four: a measured regression value, not derived here; it matches
    # 5 - 2 sqrt(5), that is 1 / (1 + R) = (3 + sqrt(5)) / 8, to 1.2e-8
    assert abs(values[2] - (5 - 2 * np.sqrt(5))) < 1e-7


def test_measurement_game_refuses_other_strategies_and_witnesses():
    zx = _measurement_cases()["Z/X"]
    w = robustness_measurements(zx).witness
    game = game_from_measurement_witness(w, 2)
    with pytest.raises(ContractError, match="measures with meas"):
        advantage_ratio(game, zx, Strategy(preprocess=[identity_channel(2)] * 2, measurements=zx),
                        "measurements")
    with pytest.raises(DimensionError, match="one measurement per setting required"):
        one = PovmCollection(zx.povms[:1])
        advantage_ratio(game, one, Strategy(measurements=one), "measurements")
    with pytest.raises(ContractError, match="need a measurement-kind witness"):
        game_from_measurement_witness(robustness_channels_dual([identity_channel(2)] * 2), 2)
    with pytest.raises(DimensionError, match="the game needs"):
        game_from_measurement_witness(w, 3)


def test_pair_template_must_be_filled():
    w = WitnessSet("pair", 0.0, pair_measure_ops=[np.eye(2) / 2] * 2,
                   pair_channel_op=np.eye(4) / 4)
    game, template = game_from_pair_witness(w, 2, 2)
    from qincompat.linalg import ContractError
    with pytest.raises(ContractError):
        success_prob(game, template)


def _qutrit_two_outcome():
    return Povm([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])])


def _rejection_cases():
    rng = np.random.default_rng(61)
    game = bb84_game().validate()
    meas = PovmCollection([basis_povm(2), basis_povm(2)])
    assisted = random_game(2, 2, 2, rng, assisted=True).validate()
    final = random_povm(4, 2, rng)
    pair = Strategy(pair_mode=(basis_povm(2), identity_channel(2), final))
    qutrit = PovmCollection([_qutrit_two_outcome()] * 2)
    three = PovmCollection([random_povm(2, 3, rng)] * 2)
    wide = DiscriminationGame(prior=[1.0], ensembles=[[(1.0, np.eye(3) / 3)]], assisted=True)
    # C^3 -> C^2 channels against a game on C^2 measured on C^3: the kernel
    # side (C^2 -> C^3) has the same size, 6, as these Choi matrices
    backwards = [random_channel(3, 2, 2, rng) for _ in range(2)]
    # unvalidated, a "POVM" with a negative effect scored 1.5 on two settings of
    # the Z eigenstates, and three times the identity's Choi matrix scored 3
    zz = DiscriminationGame(prior=[0.5, 0.5], ensembles=[[(0.5, np.diag([1.0, 0.0])),
                                                          (0.5, np.diag([0.0, 1.0]))]] * 2)
    negative = PovmCollection([Povm([np.diag([2.0, 0.0]), np.diag([-1.0, 1.0])])] * 2)
    tripled = Strategy(preprocess=[ChoiMatrix(2, 2, 3 * identity_channel(2).matrix)] * 2,
                       measurements=meas)
    swapped = Strategy(pair_mode=(None, None, final)).with_pair(identity_channel(2), basis_povm(2))
    sp, best = success_prob, best_compatible_success
    return {
        "no measurements": (
            lambda: sp(game, Strategy()),
            ContractError, "strategy carries no measurements"),
        "one measurement per setting": (
            lambda: sp(game, Strategy(measurements=PovmCollection([basis_povm(2)]))),
            DimensionError, "one final measurement per channel required"),
        "one measurement per setting, best": (
            lambda: best(game, PovmCollection([basis_povm(2)])),
            DimensionError, "one final measurement per channel required"),
        "one channel per setting": (
            lambda: sp(game, Strategy(preprocess=[identity_channel(2)], measurements=meas)),
            DimensionError, "one preprocessing channel per setting required"),
        "outcomes differ": (
            lambda: sp(game, Strategy(measurements=three)),
            DimensionError, "ensemble size and measurement outcomes differ"),
        "outcomes differ, best": (
            lambda: best(game, three),
            DimensionError, "ensemble size and measurement outcomes differ"),
        "state and effect dimensions differ": (
            lambda: sp(game, Strategy(measurements=qutrit)),
            DimensionError, "state and effect dimensions differ"),
        "pair template not filled": (
            lambda: sp(assisted, Strategy(pair_mode=(None, None, final))),
            ContractError, "pair-mode strategy template is not filled in"),
        "pair on an unassisted game": (
            lambda: sp(game, pair),
            ContractError, "pair games have two ensembles of assisted states"),
        "pair on an unassisted game, best": (
            lambda: best(game, PovmCollection([final]), "pair"),
            ContractError, "pair games have two ensembles of assisted states"),
        "non-square assisted space": (
            lambda: best(wide, PovmCollection([Povm([np.eye(3)])])),
            DimensionError, "assisted games need states on a square space"),
        "measurement not output x base": (
            lambda: best(assisted, qutrit),
            DimensionError, "measurement space must factor as output x base"),
        "unknown kind": (
            lambda: best(game, meas, "bogus"),
            ContractError, "unknown strategy kind 'bogus'"),
        "channels the wrong way round": (
            lambda: sp(game, Strategy(preprocess=backwards, measurements=qutrit)),
            DimensionError, "state and effect dimensions differ: channel 0 maps C^3 to C^2, "
                            "the game needs C^2 to C^3"),
        "a measurement that is not a POVM": (
            lambda: sp(zz, Strategy(measurements=negative)),
            ContractError, "effect 1 is not PSD"),
        "a channel that is not trace preserving": (
            lambda: sp(zz, tripled),
            ContractError, "Choi matrix trace is"),
        "a channel that is not trace preserving, ratio": (
            lambda: advantage_ratio(zz, meas, tripled, "channels"),
            ContractError, "Choi matrix trace is"),
        "a measurement where a channel goes": (
            lambda: sp(game, Strategy(preprocess=[basis_povm(2)] * 2, measurements=meas)),
            ContractError, "setting 0 needs a ChoiMatrix, got Povm"),
        "a pair filled in the wrong order": (
            lambda: advantage_ratio(assisted, PovmCollection([final]), swapped, "pair"),
            ContractError, "setting 0 needs a Povm, got ChoiMatrix"),
    }


@pytest.mark.parametrize("case", list(_rejection_cases()))
def test_scorers_name_each_rejection(case):
    call, kind, message = _rejection_cases()[case]
    with pytest.raises(kind, match=re.escape(message)) as err:
        call()
    assert type(err.value) is kind


@pytest.mark.parametrize("ensembles, match", [
    # unvalidated, this game "succeeds" with probability 7
    ([[(1.0, np.diag([2.0, 0.0])), (1.0, np.diag([0.0, 5.0]))]], "conditional distribution"),
    # the kernels read the game's dimension off its first state
    ([[]], "every setting needs at least one state"),
])
def test_success_prob_rejects_an_invalid_game(ensembles, match):
    game = DiscriminationGame(prior=[1.0], ensembles=ensembles)
    with pytest.raises(ContractError, match=match):
        success_prob(game, Strategy(measurements=PovmCollection([basis_povm(2)])))


def test_single_ensemble_game_ratio_one():
    # with one ensemble, compatibility costs nothing
    z0 = np.diag([1.0, 0.0]).astype(complex)
    z1 = np.diag([0.0, 1.0]).astype(complex)
    game = DiscriminationGame(prior=[1.0], ensembles=[[(0.5, z0), (0.5, z1)]])
    meas = PovmCollection([basis_povm(2)])
    best = best_compatible_success(game, meas, "channels")
    assert abs(best - 1.0) < 1e-7
    ratio = advantage_ratio(game, meas,
                            Strategy(preprocess=[identity_channel(2)],
                                     measurements=meas), "channels")
    assert abs(ratio - 1.0) < 1e-7


def test_scalar_monotonicity_of_ratio_map():
    # x -> x/(ax+b) is increasing for a, b > 0, the step that lets operator
    # norms replace expectation values in the unassisted bound
    for a, b in ((0.3, 1.2), (2.0, 0.1), (1.0, 1.0)):
        xs = np.linspace(0.0, 5.0, 200)
        ys = xs / (a * xs + b)
        assert np.all(np.diff(ys) > 0)


def test_unassisted_bound_sampled():
    res = unassisted_bound_check(2, trials=25, rng_seed=5)
    assert res["bound"] == pytest.approx(1.2)
    assert res["max_ratio"] <= res["bound"] + 1e-6
    assert res["gap"] > 0
    assert res["assisted_value"] == pytest.approx(4 / 3)


@pytest.mark.parametrize("trials", [0, -3])
def test_unassisted_bound_needs_a_sampled_game(trials):
    from qincompat.linalg import ContractError
    with pytest.raises(ContractError):
        unassisted_bound_check(2, trials=trials)


def test_game_json_roundtrip():
    rng = np.random.default_rng(53)
    game = random_game(2, 2, 2, rng, assisted=True).validate()
    back = DiscriminationGame.from_json(game.to_json())
    assert back.assisted
    assert np.abs(back.prior - game.prior).max() < 1e-15
    for ens_a, ens_b in zip(game.ensembles, back.ensembles):
        for (pa, ra), (pb, rb) in zip(ens_a, ens_b):
            assert pa == pb
            assert np.abs(ra - rb).max() < 1e-15


@pytest.mark.parametrize("change, match", [
    ({"ensembles": [[]]}, "at least one state"),
    ({"assisted": "no"}, "assisted"),
    ({"assisted": 0}, "assisted"),
])
def test_game_json_rejects_empty_ensembles_and_non_boolean_flags(change, match):
    z0 = matrix_to_json(np.diag([1.0, 0.0]))
    obj = {"prior": [1.0], "ensembles": [[{"p": 1.0, "state": z0}]], "assisted": False}
    DiscriminationGame.from_json(obj)
    with pytest.raises(ContractError, match=match):
        DiscriminationGame.from_json({**obj, **change})


@pytest.mark.parametrize("change, match", [
    ({"prior": ["a"]}, "'prior' entry 0"),
    ({"prior": [True]}, "'prior' entry 0"),
    ({"prior": [None]}, "'prior' entry 0"),
    ({"ensembles": [[{"p": "x", "state": "unread"}]]}, "setting 0 entry 0 field 'p'"),
    ({"ensembles": [[{"p": False, "state": "unread"}]]}, "setting 0 entry 0 field 'p'"),
    # an integer too large for a float used to escape as an OverflowError
    ({"prior": [10**400]}, "'prior' entry 0 is too large for a float"),
    ({"ensembles": [[{"p": 10**400, "state": "unread"}]]},
     "setting 0 entry 0 field 'p' is too large for a float"),
    ({"prior": [float("nan")]}, "'prior' entry 0 is non-finite"),
])
def test_game_json_rejects_non_numeric_probabilities(change, match):
    z0 = matrix_to_json(np.diag([1.0, 0.0]))
    obj = {"prior": [1], "ensembles": [[{"p": 1, "state": z0}]], "assisted": False}
    DiscriminationGame.from_json(obj)
    with pytest.raises(ContractError, match=match):
        DiscriminationGame.from_json({**obj, **change})


@pytest.mark.parametrize("change, match", [
    ({"ensembles": ["ab"]}, "game setting 0 must be a list, got str"),
    ({"ensembles": [["x"]]}, "game setting 0 entry 0 must be a JSON object, got str"),
    ({"ensembles": {"a": 1}}, "game field 'ensembles' must be a list, got dict"),
    ({"prior": {"a": 1}}, "game field 'prior' must be a list, got dict"),
    ({"prior": 1.0}, "game field 'prior' must be a list, got float"),
    ({"ensembles": [[{"p": 1}]]}, "game setting 0 entry 0 has no field 'state'"),
])
def test_game_json_names_a_non_object_or_non_list(change, match):
    # a string ensemble used to leak Python's TypeError text, and a dict
    # prior was read as the list of its keys
    z0 = matrix_to_json(np.diag([1.0, 0.0]))
    obj = {"prior": [1], "ensembles": [[{"p": 1, "state": z0}]], "assisted": False}
    DiscriminationGame.from_json(obj)
    with pytest.raises(ContractError, match=match):
        DiscriminationGame.from_json({**obj, **change})
    with pytest.raises(ContractError, match="game must be a JSON object, got list"):
        DiscriminationGame.from_json([obj])


def test_game_validation_rejects_bad_inputs():
    from qincompat.linalg import ContractError
    z0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ContractError):
        DiscriminationGame(prior=[0.7, 0.7],
                           ensembles=[[(1.0, z0)], [(1.0, z0)]]).validate()
    with pytest.raises(ContractError):
        DiscriminationGame(prior=[1.0], ensembles=[[(0.5, z0)]]).validate()
    with pytest.raises(ContractError):
        DiscriminationGame(prior=[1.0], ensembles=[[(1.0, 2 * z0)]]).validate()
    nan = float("nan")
    with pytest.raises(ContractError):
        DiscriminationGame(prior=[nan, 1.0],
                           ensembles=[[(1.0, z0)], [(1.0, z0)]]).validate()
    with pytest.raises(ContractError):
        DiscriminationGame(prior=[1.0], ensembles=[[(1.0, z0), (nan, z0)]]).validate()
    with pytest.raises(ContractError):
        DiscriminationGame(prior=[1.0], ensembles=[[(1.0, z0 + nan * np.eye(2))]]).validate()
    with pytest.raises(ContractError, match=r"state 1\|0 is not PSD"):
        DiscriminationGame(prior=[1.0], ensembles=[[(0.5, z0), (0.5, np.diag([1.5, -0.5]))]]).validate()
