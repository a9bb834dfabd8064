"""Relations the robustness satisfies on every input, checked by hypothesis
on seeded random qubit devices.  Each tolerance is the reported primal-dual
gaps plus ten times the solver's feasibility tolerance."""

import numpy as np
from hypothesis import given, settings, strategies as st

from qincompat.compat import check_channels, check_measurements, check_pair
from qincompat.games import DiscriminationGame, Strategy, advantage_ratio, random_game
from qincompat.qobjects import (
    ChoiMatrix,
    Instrument,
    Povm,
    PovmCollection,
    instrument_povm,
    instrument_total,
    marginal,
    qc_channel,
    random_channel,
    random_joint_channel,
    random_povm,
    random_state,
    random_unitary,
    unitary_channel,
)
from qincompat.robustness import (
    robustness_channels_primal,
    robustness_measurements,
    robustness_pair_primal,
    verify_prop1,
    verify_prop2,
)
from qincompat.sdp import SolveOptions

SEEDS = st.integers(0, 2**32 - 1)
PROPERTY = settings(derandomize=True, max_examples=8, deadline=None, database=None)


def tolerance(*reports) -> float:
    # the gaps must be small themselves, or they would hide any relation
    assert all(rep.gap <= 1e-6 * max(1.0, rep.primal_value) for rep in reports)
    return sum(rep.gap for rep in reports) + 10 * SolveOptions().feas_tol


def devices(rng):
    """Two qubit measurements, of 2 and 3 outcomes, and two qubit channels."""
    return [random_povm(2, o, rng) for o in (2, 3)], [random_channel(2, 2, 2, rng) for _ in range(2)]


def robustness_of_each_kind(povms, chans) -> list:
    return [robustness_measurements(PovmCollection(povms)), robustness_channels_primal(chans),
            robustness_pair_primal(povms[1], chans[0])]


@PROPERTY
@given(seed=SEEDS)
def test_robustness_is_invariant_under_an_input_unitary_member_order_and_output_labels(seed):
    # one unitary U before every member; each measurement's outcomes permuted
    # and each channel followed by its own unitary; the collections reversed
    # (a pair keeps its order)
    rng = np.random.default_rng(seed)
    povms, chans = devices(rng)
    u = random_unitary(2, rng)
    moved_povms = [Povm([u.conj().T @ p.elements[i] @ u for i in rng.permutation(p.outcomes)]) for p in povms]
    lifts = [np.kron(random_unitary(2, rng), u.T) for _ in chans]
    moved_chans = [ChoiMatrix(2, 2, w @ c.matrix @ w.conj().T) for w, c in zip(lifts, chans)]
    before = robustness_of_each_kind(povms, chans)
    after = [robustness_measurements(PovmCollection(moved_povms[::-1])),
             robustness_channels_primal(moved_chans[::-1]), robustness_pair_primal(moved_povms[1], moved_chans[0])]
    for a, b in zip(before, after):
        assert abs(a.primal_value - b.primal_value) <= tolerance(a, b)


@PROPERTY
@given(seed=SEEDS, visibility=st.floats(0.0, 1.0))
def test_white_noise_never_raises_the_robustness(seed, visibility):
    rng = np.random.default_rng(seed)
    povms, chans = devices(rng)
    noisy_povms = [Povm([visibility * e + (1 - visibility) * np.trace(e).real * np.eye(2) / 2
                         for e in p.elements]) for p in povms]
    noisy_chans = [ChoiMatrix(2, 2, visibility * c.matrix + (1 - visibility) * np.eye(4) / 4) for c in chans]
    for a, b in zip(robustness_of_each_kind(povms, chans), robustness_of_each_kind(noisy_povms, noisy_chans)):
        assert b.primal_value <= a.primal_value + tolerance(a, b)


@PROPERTY
@given(seed=SEEDS)
def test_a_channel_pair_wins_an_assisted_game_by_at_most_one_plus_its_robustness(seed):
    # Theorem 1's inequality on a random entanglement-assisted game with
    # random final measurements on (output) (x) (reference)
    rng = np.random.default_rng(seed)
    chans = [random_channel(2, 2, 2, rng) for _ in range(2)]
    rep = robustness_channels_primal(chans)
    game = random_game(2, 2, 2, rng, assisted=True)
    meas = PovmCollection([random_povm(4, 2, rng) for _ in range(2)])
    ratio = advantage_ratio(game, meas, Strategy(preprocess=chans, measurements=meas))
    assert ratio <= 1 + rep.primal_value + tolerance(rep)


def white_noise(povms, chans, visibility):
    """Each effect E mixed with Tr(E) I / 2, each channel with the completely depolarizing one."""
    return ([Povm([visibility * e + (1 - visibility) * np.trace(e).real * np.eye(2) / 2 for e in p.elements])
             for p in povms], [ChoiMatrix(2, 2, visibility * c.matrix + (1 - visibility) * np.eye(4) / 4)
                               for c in chans])


@PROPERTY
@given(seed=SEEDS, visibility=st.floats(0.0, 1.0))
def test_the_robustness_is_zero_exactly_when_the_check_says_compatible(seed, visibility):
    povms, chans = white_noise(*devices(np.random.default_rng(seed)), visibility)
    verdicts = [check_measurements(PovmCollection(povms)), check_channels(chans), check_pair(povms[1], chans[0])]
    for rep, verdict in zip(robustness_of_each_kind(povms, chans), verdicts):
        if verdict.compatible:
            assert abs(rep.primal_value) <= tolerance(rep)
        if rep.primal_value > tolerance(rep):
            assert not verdict.compatible


@PROPERTY
@given(seed=SEEDS)
def test_declaring_a_classical_output_quantum_leaves_the_robustness_unchanged(seed):
    # verify_prop1 on a random collection, verify_prop2 on a random pair; the
    # tolerance reads the gaps of the two robustness solves of each
    povms, chans = devices(np.random.default_rng(seed))
    collection = PovmCollection(povms)
    prop1 = tolerance(robustness_measurements(collection), robustness_channels_primal(list(map(qc_channel, povms))))
    assert verify_prop1(collection)["delta"] <= prop1
    prop2 = tolerance(robustness_pair_primal(povms[1], chans[0]),
                      robustness_channels_primal([qc_channel(povms[1]), chans[0]]))
    assert verify_prop2(povms[1], chans[0])["delta"] <= prop2


def incompatible_devices(rng):
    """A projective qubit measurement and a random 3-outcome one, and two
    unitary qubit channels: every kind of collection of them is incompatible
    but for a set of measure zero."""
    u = random_unitary(2, rng)
    projective = Povm([u @ np.diag(e) @ u.conj().T for e in np.eye(2)])
    return [projective, random_povm(2, 3, rng)], [unitary_channel(random_unitary(2, rng)) for _ in range(2)]


def compatible_devices(rng):
    """Compatible devices of the same shapes: two post-processings of one
    random parent POVM, the marginals of a random joint channel, and a random
    instrument's measurement and total channel."""
    parent = random_povm(2, 6, rng)
    povms = [Povm([sum(p * g for p, g in zip(row, parent.elements)) for row in rng.dirichlet(np.ones(o), 6).T])
             for o in (2, 3)]
    joint = random_joint_channel(2, 2, 2, rng)
    # outcome i of the instrument: the block of a random channel into C^3 (x) C^2
    big = random_channel(2, 6, 2, rng).matrix.reshape(3, 4, 3, 4)
    instrument = Instrument(2, 2, [big[i, :, i, :] for i in range(3)])
    return povms, [marginal(joint, 1), marginal(joint, 2)], instrument


@PROPERTY
@given(seed=SEEDS)
def test_a_witness_scores_at_most_one_on_compatible_devices(seed):
    rng = np.random.default_rng(seed)
    reports = robustness_of_each_kind(*incompatible_devices(rng))
    povms, chans, instrument = compatible_devices(rng)
    compatible = [(PovmCollection(povms),), (chans,), (instrument_povm(instrument), instrument_total(instrument))]
    for rep, devices_of_its_kind in zip(reports, compatible):
        assert rep.primal_value > tolerance(rep)
        assert rep.witness.evaluate(*devices_of_its_kind) <= 1 + tolerance(rep)


def game_of_sizes(sizes, side, rng, assisted=False) -> DiscriminationGame:
    """A random game with one ensemble of each size, of states on C^side."""
    return DiscriminationGame(prior=rng.dirichlet(np.ones(len(sizes))), assisted=assisted,
                              ensembles=[[(p, random_state(side, rng)) for p in rng.dirichlet(np.ones(o))]
                                         for o in sizes])


@PROPERTY
@given(seed=SEEDS)
def test_a_compatible_strategy_never_beats_the_compatible_optimum(seed):
    # each kind on its own game: the channels on an assisted game before random
    # final measurements, the measurements directly on an unassisted game, and
    # the pair's measurement and channel on an assisted two-ensemble game
    rng = np.random.default_rng(seed)
    povms, chans, instrument = compatible_devices(rng)
    finals = PovmCollection([random_povm(4, 2, rng) for _ in range(2)])
    final = PovmCollection(finals.povms[:1])
    cases = [(game_of_sizes([2, 2], 4, rng, True), finals, Strategy(preprocess=chans, measurements=finals),
              "channels"),
             (game_of_sizes([2, 3], 2, rng), PovmCollection(povms), Strategy(measurements=PovmCollection(povms)),
              "measurements"),
             (game_of_sizes([3, 2], 4, rng, True), final,
              Strategy(pair_mode=(instrument_povm(instrument), instrument_total(instrument), final.povms[0])), "pair")]
    for game, meas, strategy, kind in cases:
        assert advantage_ratio(game, meas, strategy, kind) <= 1 + 1e-7
