"""Discrimination games: success probabilities, compatible-best SDPs,
witness-built games, and the unassisted bound."""

import numpy as np
import pytest

from qincompat.games import (
    DegenerateWitnessError,
    DiscriminationGame,
    PovmCollection,
    Strategy,
    _assisted_coeff,
    advantage_ratio,
    best_compatible_success,
    game_from_channel_witness,
    game_from_pair_witness,
    random_game,
    success_prob,
    unassisted_bound_check,
)
from qincompat.linalg import ContractError, matrix_to_json
from qincompat.qobjects import (
    Povm,
    apply_channel,
    basis_povm,
    identity_channel,
    marginal,
    projective_from_hermitian,
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
    robustness_pair_primal,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


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


def test_assisted_coeff_is_adjoint_of_extended_application():
    rng = np.random.default_rng(5)
    d, dp, db = 2, 3, 2
    choi = random_channel(d, dp, 2, rng)
    rho = random_state(d * db, rng)
    h = rng.standard_normal((dp * db, dp * db)) + 1j * rng.standard_normal((dp * db, dp * db))
    m = h @ h.conj().T
    from qincompat.qobjects import apply_channel_extended
    lhs = np.trace(apply_channel_extended(choi, rho) @ m).real
    rhs = np.trace(choi.matrix @ _assisted_coeff(rho, m, d, dp, db)).real
    assert abs(lhs - rhs) < 1e-10


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


def test_zero_witness_raises():
    z = np.zeros((4, 4))
    w = WitnessSet("channels", 0.0, channel_ops=[z, z])
    with pytest.raises(DegenerateWitnessError):
        game_from_channel_witness(w, 2, 2)
    wp = WitnessSet("pair", 0.0, pair_measure_ops=[np.zeros((2, 2))] * 2,
                    pair_channel_op=z)
    with pytest.raises(DegenerateWitnessError):
        game_from_pair_witness(wp, 2, 2)


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


def test_pair_template_must_be_filled():
    w = WitnessSet("pair", 0.0, pair_measure_ops=[np.eye(2) / 2] * 2,
                   pair_channel_op=np.eye(4) / 4)
    game, template = game_from_pair_witness(w, 2, 2)
    from qincompat.linalg import ContractError
    with pytest.raises(ContractError):
        success_prob(game, template)


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
