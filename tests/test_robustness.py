"""Robustness programs: closed forms, duality, reconstructions, witnesses."""

import tracemalloc

import numpy as np
import pytest

from qincompat import compat, robustness
from qincompat.compat import check_channels, check_measurements, check_pair
from qincompat.games import unassisted_bound_check
from qincompat.linalg import ContractError, DimensionError
from qincompat.qobjects import (
    ChoiMatrix,
    Povm,
    PovmCollection,
    basis_povm,
    depolarizing_channel,
    identity_channel,
    instrument_total,
    lueders_instrument,
    marginal,
    projective_from_hermitian,
    qc_channel,
    random_channel,
    random_joint_channel,
    random_povm,
    random_unitary,
    unitary_channel,
)
from qincompat.robustness import (
    identity_pair_closed_form,
    robustness_channels_dual,
    robustness_channels_primal,
    robustness_measurements,
    robustness_measurements_dual,
    robustness_pair_dual,
    robustness_pair_primal,
    verify_prop1,
    verify_prop2,
)

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def mub_pair(visibility: float) -> PovmCollection:
    half = np.eye(2) / 2
    pz = Povm([visibility * (np.eye(2) + SZ) / 2 + (1 - visibility) * half,
               visibility * (np.eye(2) - SZ) / 2 + (1 - visibility) * half])
    px = Povm([visibility * (np.eye(2) + SX) / 2 + (1 - visibility) * half,
               visibility * (np.eye(2) - SX) / 2 + (1 - visibility) * half])
    return PovmCollection([pz, px])


def compatible_channel_pair(rng, d=2):
    j = random_joint_channel(d, 2, d, rng)
    return [marginal(j, 1), marginal(j, 2)]


def coarse_grained_pair(rng, d=2):
    # marginals of a common 4-outcome parent, compatible by construction
    parent = random_povm(d, 4, rng)
    q = parent.elements
    first = Povm([q[0] + q[1], q[2] + q[3]])
    second = Povm([q[0] + q[2], q[1] + q[3]])
    return PovmCollection([first, second])


def qutrit_z_and_coarse_fourier(pad=False) -> PovmCollection:
    """Qutrit Z and the Fourier basis with its last two outcomes merged, or
    with a zero third effect added when ``pad``."""
    w = np.exp(2j * np.pi / 3)
    f = [np.outer(v, v.conj()) for v in np.array([[w ** (j * m) for m in range(3)]
                                                  for j in range(3)]) / np.sqrt(3)]
    return PovmCollection([basis_povm(3), Povm([f[0], f[1] + f[2]] + [np.zeros((3, 3))] * pad)])


def random_projective_pair(rng, d=2):
    ms = []
    for _ in range(2):
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        ms.append(projective_from_hermitian(h + h.conj().T))
    return PovmCollection(ms)


# Cold-start iteration bound on the identity pairs.  Measured: 7 primal and 8
# dual iterations on C^2, 8 and 8 on C^3; a corrector that takes half the
# Newton step needs 31 and 31 on C^2.
IDENTITY_PAIR_MAX_ITERATIONS = 12


def test_identity_pair_matches_closed_form():
    for d in (2, 3):
        rep = robustness_channels_primal([identity_channel(d), identity_channel(d)])
        want = identity_pair_closed_form(d)
        assert abs(rep.primal_value - want) < 1e-6
        assert abs(rep.dual_value - want) < 1e-6
        assert rep.gap < 1e-6 * (1 + rep.primal_value)
        assert rep.solver["primal_iterations"] <= IDENTITY_PAIR_MAX_ITERATIONS
        assert rep.solver["dual_iterations"] <= IDENTITY_PAIR_MAX_ITERATIONS


@pytest.mark.parametrize("n", [5, 6])
def test_many_qubit_identity_channels(n):
    rep = robustness_channels_primal([identity_channel(2)] * n)
    assert rep.mixture_joint.dims_out == (2,) * n
    assert rep.gap <= 1e-6 * rep.primal_value


_ID10, _TWELVE = [identity_channel(10)] * 2, PovmCollection([Povm([np.eye(2) / 4] * 4)] * 12)
# small equations, but one joint block on (C^2)^15 of 16 GiB
_QUBITS14 = [identity_channel(2)] * 14
# the check solves without the zero effects, a device of 2^12 blocks, but would report the joint of all 4^12
_ZEROS = PovmCollection([Povm([np.eye(2) / 2] * 2 + [np.zeros((2, 2))] * 2)] * 12)


@pytest.mark.parametrize("call, members", [
    (robustness_channels_primal, _ID10), (robustness_channels_dual, _ID10), (check_channels, _ID10),
    (robustness_measurements, _TWELVE), (robustness_measurements_dual, _TWELVE), (check_measurements, _TWELVE),
    (check_measurements, _ZEROS), (robustness_channels_primal, _QUBITS14), (check_channels, _QUBITS14),
    (lambda d: unassisted_bound_check(d, 1), 10),  # the cloner on C^10, a joint channel of the identity pair
], ids=["channels-primal", "channels-dual", "channels-check",
        "measurements-primal", "measurements-dual", "measurements-check", "measurements-check-zero-effects",
        "fourteen-qubit-channels-primal", "fourteen-qubit-channels-check", "unassisted-bound-cloner"])
def test_devices_too_large_are_refused_before_they_are_built(monkeypatch, call, members):
    # the identity pair on C^10, twelve 4-outcome qubit measurements and fourteen
    # qubit identity channels: no outcome tuple is enumerated and no array of the
    # device's size allocated
    def enumerate_outcomes(counts):
        raise AssertionError("assignments ran")

    monkeypatch.setattr(compat, "assignments", enumerate_outcomes)
    monkeypatch.setattr(robustness, "assignments", enumerate_outcomes)
    tracemalloc.start()
    try:
        with pytest.raises(ContractError, match=r"device too large: a solve on it needs "
                                                r"(5,218\.6|352,384\.3|655,360\.4) MiB .* limit of 936\.0 MiB"):
            call(members)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_identity_pair_reconstruction():
    rep = robustness_channels_primal([identity_channel(2), identity_channel(2)])
    r = rep.primal_value
    rep.mixture_joint.validate()
    assert rep.noise is not None and len(rep.noise) == 2
    for x in range(2):
        rep.noise[x].validate()
        mixed = (identity_channel(2).matrix + r * rep.noise[x].matrix) / (1 + r)
        got = marginal(rep.mixture_joint, x + 1).matrix
        assert np.abs(got - mixed).max() < 1e-5


def test_channel_witness_scores_its_own_collection():
    chois = [identity_channel(2), identity_channel(2)]
    w = robustness_channels_dual(chois)
    assert abs(w.evaluate(chois) - (1 + w.value)) < 1e-5
    for a in w.channel_ops:
        assert np.linalg.eigvalsh(a)[0] > -1e-7


def test_witness_rejects_a_collection_of_another_shape():
    # every member operator needs its witness operator, of its shape
    w = robustness_channels_dual([identity_channel(2), identity_channel(2)])
    wm = robustness_measurements(mub_pair(1.0)).witness
    wp = robustness_pair_dual(basis_povm(2), identity_channel(2))
    for witness, objects in ((w, ([identity_channel(2)],)),
                             (w, ([identity_channel(2)] * 3,)),
                             (w, ([identity_channel(3)] * 2,)),
                             (w, ([random_channel(2, 3, 2, np.random.default_rng(3))] * 2,)),
                             (wm, (PovmCollection([basis_povm(2)]),)),
                             (wm, (PovmCollection([basis_povm(2), Povm([np.eye(2)])]),)),
                             (wm, (PovmCollection([basis_povm(3)] * 2),)),
                             (wp, (basis_povm(3), identity_channel(3))),
                             (wp, (Povm([np.eye(2)]), identity_channel(2)))):
        with pytest.raises(DimensionError):
            witness.evaluate(*objects)
    # and each takes one collection, or a pair's measurement and channel
    zx = mub_pair(1.0)
    for witness, objects, takes in ((wm, (zx, zx), "one collection, got 2"),
                                    (wm, (), "one collection, got 0"),
                                    (wp, (basis_povm(2), identity_channel(2), 3),
                                     "a measurement and a channel, got 3")):
        with pytest.raises(ContractError, match=takes):
            witness.evaluate(*objects)
    # of valid devices: a member that is not one, or a "POVM" with a negative effect
    negative = Povm([np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])])
    for witness, objects, message in ((wp, (basis_povm(2), 3), "member 1 of type int"),
                                      (wm, (PovmCollection([negative, basis_povm(2)]),), "effect 1 is not PSD")):
        with pytest.raises(ContractError, match=message):
            witness.evaluate(*objects)


@pytest.mark.parametrize("call, message", [
    (lambda: robustness_channels_primal([projective_from_hermitian(np.array([[0, 1], [1, 0]])),
                                         identity_channel(2)]),
     "need channels, got pair: members of types Povm, ChoiMatrix"),
    (lambda: robustness_pair_primal(identity_channel(2), basis_povm(2)),
     "need pair, got mixed: members of types ChoiMatrix, Povm"),
    (lambda: robustness_pair_primal(identity_channel(2), identity_channel(2)),
     "need pair, got channels: members of types ChoiMatrix, ChoiMatrix"),
    (lambda: check_channels([basis_povm(2), identity_channel(2)]),
     "need channels, got pair: members of types Povm, ChoiMatrix"),
    (lambda: robustness_channels_dual([identity_channel(2)] * 2).evaluate([basis_povm(2),
                                                                           identity_channel(2)]),
     "need channels, got pair: members of types Povm, ChoiMatrix"),
    (lambda: robustness_channels_primal(None), "members must be a list or tuple, got NoneType"),
    (lambda: robustness_channels_dual([identity_channel(2)] * 2).evaluate(None),
     "members must be a list or tuple, got NoneType"),
], ids=["channels-given-a-pair", "pair-in-the-wrong-order", "pair-given-channels", "check-channels-given-a-pair",
        "channel-witness-given-a-pair", "channels-given-none", "channel-witness-given-none"])
def test_each_kind_refuses_the_members_of_another(call, message):
    # a pair is exactly a measurement and then a channel
    with pytest.raises(ContractError, match=message):
        call()


def test_channel_witness_normalization_on_compatible_samples():
    # the defining property: at most 1 on every compatible collection
    w = robustness_channels_dual([identity_channel(2), identity_channel(2)])
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        pair = compatible_channel_pair(rng)
        worst = max(worst, w.evaluate(pair))
    assert worst <= 1 + 1e-7


def test_channel_robustness_zero_iff_compatible():
    rng = np.random.default_rng(11)
    for _ in range(5):
        pair = compatible_channel_pair(rng)
        assert check_channels(pair).compatible
        rep = robustness_channels_primal(pair)
        assert rep.primal_value < 1e-6
        assert rep.noise is None
    for _ in range(5):
        pair = [unitary_channel(random_unitary(2, rng)) for _ in range(2)]
        assert not check_channels(pair).compatible
        rep = robustness_channels_primal(pair)
        assert rep.primal_value > 1e-4
        assert rep.gap < 1e-6 * (1 + rep.primal_value)


def test_channel_duality_on_random_pairs():
    rng = np.random.default_rng(23)
    for _ in range(3):
        pair = [random_channel(2, 2, 2, rng) for _ in range(2)]
        rep = robustness_channels_primal(pair)
        assert rep.gap < 1e-6 * (1 + rep.primal_value)


def test_depolarizing_self_pair_robustness():
    # self-compatibility boundary for a qubit sits at visibility 2/3
    lo = depolarizing_channel(2, 0.6)
    rep = robustness_channels_primal([lo, lo])
    assert rep.primal_value < 1e-7
    hi = depolarizing_channel(2, 0.9)
    rep = robustness_channels_primal([hi, hi])
    assert rep.primal_value > 1e-3


@pytest.mark.parametrize("case", ["2->3 pair", "3->2 pair", "three channels", "povm and 2->3"])
def test_dual_factor_layout_agrees_with_the_primal(case):
    # joint blocks whose factors differ in size, and three quantum outputs
    rng = np.random.default_rng(73)
    if case == "povm and 2->3":
        # random_povm(2, 3) has rank-one effects: mixed with I/3, all three are full rank
        povm = Povm([0.8 * m + 0.2 * np.eye(2) / 3 for m in random_povm(2, 3, rng).elements])
        rep = robustness_pair_primal(povm, random_channel(2, 3, 2, rng))
    else:
        d, dp, n = {"2->3 pair": (2, 3, 2), "3->2 pair": (3, 2, 2), "three channels": (2, 2, 3)}[case]
        rep = robustness_channels_primal([random_channel(d, dp, 2, rng) for _ in range(n)])
    assert rep.primal_value > 1e-3
    assert rep.gap < 1e-6 * (1 + rep.primal_value)


def test_measurement_robustness_mub_thresholds():
    rep = robustness_measurements(mub_pair(0.70))
    assert rep.primal_value < 1e-7
    rep = robustness_measurements(mub_pair(0.75))
    assert rep.primal_value > 1e-4
    assert rep.gap < 1e-6 * (1 + rep.primal_value)


def test_measurement_reconstruction():
    coll = mub_pair(1.0)
    rep = robustness_measurements(coll)
    r = rep.primal_value
    parent = rep.mixture_joint.validate()
    assert rep.noise is not None
    rep.noise.validate()
    lam_parent = parent.elements
    # parent coarse-grainings reproduce the noisy mixtures
    for x in range(2):
        for i in range(2):
            members = [k for k in range(4) if (k // 2, k % 2)[x] == i]
            got = sum(lam_parent[k] for k in members)
            want = (coll.povms[x].elements[i]
                    + r * rep.noise.povms[x].elements[i]) / (1 + r)
            assert np.abs(got - want).max() < 1e-5


def test_mixed_outcome_counts_are_not_padded():
    # 3 and 2 outcomes: 6 parent effects, not 9.  Padding the 2-outcome
    # measurement with a zero effect poses the same robustness program over
    # more blocks, so it is the oracle for the value and the witness.
    coll, padded = qutrit_z_and_coarse_fourier(), qutrit_z_and_coarse_fourier(pad=True)
    rep, oracle = robustness_measurements(coll), robustness_measurements(padded)
    assert [p.outcomes for p in rep.noise.povms] == [3, 2]
    assert [len(row) for row in rep.witness.measurement_ops] == [3, 2]
    assert len(rep.mixture_joint.elements) == 6
    assert abs(rep.primal_value - oracle.primal_value) < 1e-8
    assert abs(rep.dual_value - oracle.dual_value) < 1e-8
    assert abs(rep.primal_value - 0.1715728771) < 1e-8
    # The check leaves the zero effect out, so the padded margin is the true
    # one, that of the members swapped and their outcomes relabelled.  Kept,
    # its blocks would have to be t * I: a relaxation below 0, a cap at 0.
    margin = check_measurements(coll).margin
    assert abs(check_measurements(padded).margin - margin) < 1e-8
    swapped = PovmCollection([Povm(p.elements[::-1]) for p in coll.povms[::-1]])
    assert abs(check_measurements(swapped).margin - margin) < 1e-8
    noisy, noisy_padded = (PovmCollection([Povm([0.3 * m + 0.7 * np.trace(m).real * np.eye(3) / 3
                                                 for m in p.elements]) for p in c.povms])
                           for c in (coll, padded))
    verdict, padded_verdict = check_measurements(noisy), check_measurements(noisy_padded)
    assert verdict.margin > 1e-2
    assert abs(padded_verdict.margin - verdict.margin) < 1e-8
    # the 9-effect parent: zero effects at the labels of the dropped outcome
    parent = padded_verdict.joint.validate()
    assert len(parent.elements) == 9
    assert all(np.abs(parent.elements[k]).max() == 0 for k in (2, 5, 8))
    assert np.abs(parent.elements[0] + parent.elements[3] + parent.elements[6]
                  - noisy.povms[1].elements[0]).max() < 1e-6


def test_measurement_robustness_zero_iff_compatible():
    rng = np.random.default_rng(31)
    for _ in range(5):
        coll = coarse_grained_pair(rng)
        assert check_measurements(coll).compatible
        rep = robustness_measurements(coll)
        assert rep.primal_value < 1e-6
    for _ in range(5):
        coll = random_projective_pair(rng)
        assert not check_measurements(coll).compatible
        rep = robustness_measurements(coll)
        assert rep.primal_value > 1e-4
        assert rep.gap < 1e-6 * (1 + rep.primal_value)


def test_measurement_witness_normalization():
    w = robustness_measurements(mub_pair(1.0)).witness
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(100):
        worst = max(worst, w.evaluate(coarse_grained_pair(rng)))
    assert worst <= 1 + 1e-7


def test_pair_robustness_basic():
    rep = robustness_pair_primal(basis_povm(2), identity_channel(2))
    assert rep.primal_value > 1e-3
    assert rep.gap < 1e-6 * (1 + rep.primal_value)
    rep.mixture_joint.validate()
    r = rep.primal_value
    noise_povm, noise_choi = rep.noise
    noise_povm.validate()
    noise_choi.validate()
    # instrument marginals reproduce the noisy mixtures
    from qincompat.qobjects import instrument_povm
    got_povm = instrument_povm(rep.mixture_joint)
    for i in range(2):
        want = (basis_povm(2).elements[i] + r * noise_povm.elements[i]) / (1 + r)
        assert np.abs(got_povm.elements[i] - want).max() < 1e-5
    got_total = instrument_total(rep.mixture_joint)
    want = (identity_channel(2).matrix + r * noise_choi.matrix) / (1 + r)
    assert np.abs(got_total.matrix - want).max() < 1e-5


def test_pair_robustness_zero_iff_compatible():
    rng = np.random.default_rng(59)
    for _ in range(5):
        povm = random_povm(2, 2, rng)
        total = instrument_total(lueders_instrument(povm))
        assert check_pair(povm, total).compatible
        rep = robustness_pair_primal(povm, total)
        assert rep.primal_value < 1e-6
    for _ in range(5):
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        povm = projective_from_hermitian(h + h.conj().T)
        ch = unitary_channel(random_unitary(2, rng))
        assert not check_pair(povm, ch).compatible
        rep = robustness_pair_primal(povm, ch)
        assert rep.primal_value > 1e-4
        assert rep.gap < 1e-6 * (1 + rep.primal_value)


def test_pair_witness_normalization():
    w = robustness_pair_dual(basis_povm(2), identity_channel(2))
    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(100):
        povm = random_povm(2, 2, rng)
        total = instrument_total(lueders_instrument(povm))
        worst = max(worst, w.evaluate(povm, total))
    assert worst <= 1 + 1e-7
    assert abs(w.evaluate(basis_povm(2), identity_channel(2)) - (1 + w.value)) < 1e-5


def test_prop1_agreement():
    res = verify_prop1(mub_pair(1.0))
    assert res["delta"] < 1e-6
    res = verify_prop1(PovmCollection([basis_povm(2), Povm([np.eye(2)])]))
    assert res["measurement_robustness"] < 1e-6
    assert res["delta"] < 1e-6
    res = verify_prop1(qutrit_z_and_coarse_fourier())
    assert res["delta"] < 1e-6
    rng = np.random.default_rng(67)
    res = verify_prop1(random_projective_pair(rng))
    assert res["delta"] < 1e-6


def test_prop2_agreement():
    res = verify_prop2(basis_povm(2), identity_channel(2))
    assert res["delta"] < 1e-6
    rng = np.random.default_rng(71)
    res = verify_prop2(random_povm(2, 2, rng), random_channel(2, 2, 2, rng))
    assert res["delta"] < 1e-6


def test_qc_channel_robustness_matches_measurement_value():
    # same number through two different programs
    coll = mub_pair(1.0)
    rm = robustness_measurements(coll).primal_value
    rc = robustness_channels_primal([qc_channel(p) for p in coll.povms]).primal_value
    assert abs(rm - rc) < 1e-6


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["3x2", "2x3"])
def test_mixed_output_dimensions_are_not_padded(order):
    # the measure-and-record channels of qutrit Z and the coarse Fourier
    # measurement output C^3 and C^2: one joint block on C^3 (x) C^2 (x) C^3
    coll = qutrit_z_and_coarse_fourier()
    coll = PovmCollection([coll.povms[i] for i in order])
    dims = tuple(p.outcomes for p in coll.povms)
    rm = robustness_measurements(coll).primal_value
    rep = robustness_channels_primal([qc_channel(p) for p in coll.povms])
    assert rep.mixture_joint.validate().dims_out == dims
    assert tuple(c.validate().dim_out for c in rep.noise) == dims
    assert abs(rep.primal_value - rm) < 1e-6
    assert rep.gap <= 1e-6 * (1 + rep.primal_value)


def test_reports_are_deterministic():
    a = robustness_channels_primal([identity_channel(2), identity_channel(2)])
    b = robustness_channels_primal([identity_channel(2), identity_channel(2)])
    assert a.primal_value == b.primal_value
    assert a.dual_value == b.dual_value


def test_report_json_roundtrip_fields():
    rep = robustness_pair_primal(basis_povm(2), identity_channel(2))
    blob = rep.to_json()
    assert blob["kind"] == "pair"
    assert abs(blob["robustness"] - rep.primal_value) < 1e-15
    assert "witness" in blob and blob["witness"]["kind"] == "pair"
    assert blob["noise"] is not None and "povm" in blob["noise"]
    w = rep.witness.to_json()
    assert len(w["pair_measure_ops"]) == 2


def test_dimension_mismatch_rejected():
    from qincompat.linalg import ContractError
    with pytest.raises(ContractError):
        robustness_channels_primal([identity_channel(2), identity_channel(3)])
    with pytest.raises(ContractError):
        robustness_pair_primal(basis_povm(3), identity_channel(2))
