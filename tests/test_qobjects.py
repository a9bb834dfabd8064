import numpy as np
import pytest

from qincompat.linalg import ContractError, DimensionError, kron, partial_trace
from qincompat.qobjects import (
    ChoiMatrix,
    Instrument,
    JointChannel,
    Povm,
    PovmCollection,
    apply_channel,
    apply_channel_extended,
    basis_povm,
    choi_from_kraus,
    cloning_channel,
    constant_channel,
    depolarizing_channel,
    identity_channel,
    instrument_povm,
    instrument_total,
    lueders_instrument,
    marginal,
    max_entangled_state,
    object_from_json,
    projective_from_hermitian,
    qc_channel,
    random_channel,
    random_joint_channel,
    random_povm,
    random_state,
    random_unitary,
    snap_choi_matrix,
    snap_instrument,
    snap_povm,
    symmetric_projector,
    unitary_channel,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def test_max_entangled_state():
    psi = max_entangled_state(2)
    want = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            want[i, j] = 0.5
    assert np.abs(psi - want).max() < 1e-15
    for d in (2, 3):
        p = max_entangled_state(d)
        assert abs(np.trace(p) - 1) < 1e-14
        assert np.abs(partial_trace(p, (d, d), (1,)) - np.eye(d) / d).max() < 1e-14
    with pytest.raises(DimensionError):
        max_entangled_state(1)


def test_identity_channel():
    rng = np.random.default_rng(0)
    for d in (2, 3):
        ch = identity_channel(d).validate()
        rho = random_state(d, rng)
        assert np.abs(apply_channel(ch, rho) - rho).max() < 1e-12


def test_choi_from_kraus_matches_direct_action():
    rng = np.random.default_rng(1)
    for d_in, d_out in ((2, 3), (3, 2)):
        ch = random_channel(d_in, d_out, 2, rng).validate()
        # recover Kraus by eigendecomposition and compare channel action
        w, v = np.linalg.eigh(ch.matrix)
        rho = random_state(d_in, rng)
        out = np.zeros((d_out, d_out), dtype=complex)
        for k in range(len(w)):
            if w[k] < 1e-12:
                continue
            a = np.sqrt(d_in * w[k]) * v[:, k].reshape(d_out, d_in)
            out += a @ rho @ a.conj().T
        assert np.abs(out - apply_channel(ch, rho)).max() < 1e-10


def test_unitary_channel():
    rng = np.random.default_rng(2)
    u = random_unitary(3, rng)
    ch = unitary_channel(u).validate()
    rho = random_state(3, rng)
    assert np.abs(apply_channel(ch, rho) - u @ rho @ u.conj().T).max() < 1e-12


def test_kraus_not_trace_preserving():
    with pytest.raises(ContractError):
        choi_from_kraus([np.eye(2) * 0.5])


def test_apply_channel_extended_recovers_choi():
    rng = np.random.default_rng(3)
    ch = random_channel(2, 2, 2, rng)
    got = apply_channel_extended(ch, max_entangled_state(2))
    assert np.abs(got - ch.matrix).max() < 1e-12


def test_apply_channel_extended_product_state():
    rng = np.random.default_rng(4)
    ch = random_channel(2, 3, 2, rng)
    a, b = random_state(2, rng), random_state(2, rng)
    got = apply_channel_extended(ch, kron(a, b))
    want = kron(apply_channel(ch, a), b)
    assert np.abs(got - want).max() < 1e-12


def test_depolarizing_channel():
    rng = np.random.default_rng(5)
    for d, c in ((2, 0.3), (3, 0.8)):
        ch = depolarizing_channel(d, c).validate()
        rho = random_state(d, rng)
        want = c * rho + (1 - c) * np.eye(d) / d
        assert np.abs(apply_channel(ch, rho) - want).max() < 1e-12
    with pytest.raises(ContractError):
        depolarizing_channel(2, 1.5)


def test_constant_channel():
    rng = np.random.default_rng(6)
    sigma = random_state(3, rng)
    ch = constant_channel(2, sigma).validate()
    rho = random_state(2, rng)
    assert np.abs(apply_channel(ch, rho) - sigma).max() < 1e-12
    with pytest.raises(ContractError, match="prepared state is not PSD"):
        constant_channel(2, np.diag([1.5, -0.5]))


def test_qc_channel_z_basis():
    j = qc_channel(basis_povm(2))
    want = np.zeros((4, 4), dtype=complex)
    want[0, 0] = want[3, 3] = 0.5
    assert np.abs(j.matrix - want).max() < 1e-15
    j.validate()


def test_qc_channel_matches_kraus_construction():
    rng = np.random.default_rng(7)
    m = random_povm(3, 3, rng)
    got = qc_channel(m)
    kraus = []
    for i, e in enumerate(m.elements):
        w, v = np.linalg.eigh(e)
        for k in range(3):
            if w[k] > 1e-12:
                out = np.zeros((3, 1), dtype=complex)
                out[i, 0] = 1.0
                kraus.append(np.sqrt(w[k]) * out @ v[:, k].conj()[None, :])
    want = choi_from_kraus(kraus)
    assert np.abs(got.matrix - want.matrix).max() < 1e-12


def test_qc_channel_trivial_povm():
    j = qc_channel(Povm([np.eye(3, dtype=complex)]))
    assert j.dim_out == 1
    assert np.abs(j.matrix - np.eye(3) / 3).max() < 1e-15


def test_qc_channel_classical_statistics():
    rng = np.random.default_rng(8)
    m = random_povm(2, 2, rng)
    rho = random_state(2, rng)
    out = apply_channel(qc_channel(m), rho)
    for i, e in enumerate(m.elements):
        assert abs(out[i, i].real - np.trace(rho @ e).real) < 1e-12
    off = np.abs(out - np.diag(np.diag(out))).max()
    assert off < 1e-12


def test_povm_validation():
    Povm([SZ * 0 + np.eye(2) / 2, np.eye(2) / 2]).validate()
    with pytest.raises(ContractError):
        Povm([np.eye(2), np.eye(2)]).validate()
    with pytest.raises(ContractError, match="effect 0 is not PSD"):
        Povm([SZ, np.eye(2) - SZ]).validate()
    with pytest.raises(ContractError):
        Povm([[[np.nan, 0], [0, 0]], np.eye(2)]).validate()


def test_projective_from_hermitian():
    p = projective_from_hermitian(SX).validate()
    for e in p.elements:
        assert np.abs(e @ e - e).max() < 1e-12
        assert abs(e[0, 1]) > 0.4  # x-basis, not z-basis


def test_instrument_roundtrip():
    ins = lueders_instrument(basis_povm(2)).validate()
    total = instrument_total(ins)
    want = np.zeros((4, 4), dtype=complex)
    want[0, 0] = want[3, 3] = 0.5
    assert np.abs(total.matrix - want).max() < 1e-14
    back = instrument_povm(ins).validate()
    for got, orig in zip(back.elements, basis_povm(2).elements):
        assert np.abs(got - orig).max() < 1e-12


def test_instrument_povm_general():
    rng = np.random.default_rng(9)
    m = random_povm(3, 2, rng)
    ins = lueders_instrument(m).validate()
    back = instrument_povm(ins)
    for got, orig in zip(back.elements, m.elements):
        assert np.abs(got - orig).max() < 1e-10
    # total channel applied to a state preserves trace
    rho = random_state(3, rng)
    out = apply_channel(instrument_total(ins), rho)
    assert abs(np.trace(out) - 1) < 1e-10


def test_joint_channel_marginal():
    rng = np.random.default_rng(10)
    joint = random_joint_channel(2, 2, 2, rng, kraus_rank=3).validate()
    for x in (1, 2):
        marginal(joint, x).validate()
    # the output index is an integer in 1..n_outputs, a bool is not one
    for x in (3, 0, True, 1.0):
        with pytest.raises(DimensionError, match=f"output index {x!r}"):
            marginal(joint, x)
    # marginals act consistently with the joint on states
    rho = random_state(2, rng)
    big = apply_channel(ChoiMatrix(2, 4, joint.choi), rho)
    first = partial_trace(big, (2, 2), (0,))
    assert np.abs(first - apply_channel(marginal(joint, 1), rho)).max() < 1e-10


def test_symmetric_projector():
    for d in (2, 3):
        s = symmetric_projector(d)
        assert np.abs(s @ s - s).max() < 1e-12
        assert abs(np.trace(s) - d * (d + 1) / 2) < 1e-12
        assert np.abs(partial_trace(s, (d, d), (0,)) - (d + 1) / 2 * np.eye(d)).max() < 1e-12


def test_cloning_channel_marginals_are_depolarizing():
    for d in (2, 3):
        cl = cloning_channel(d).validate()
        want = depolarizing_channel(d, (d + 2) / (2 * (d + 1)))
        for x in (1, 2):
            got = marginal(cl, x)
            assert np.abs(got.matrix - want.matrix).max() < 1e-12


def test_samplers_produce_valid_objects():
    rng = np.random.default_rng(12)
    for d in (2, 3):
        rho = random_state(d, rng)
        assert abs(np.trace(rho) - 1) < 1e-12
        assert np.linalg.eigvalsh(rho)[0] > -1e-12
        random_povm(d, 2, rng).validate()
        random_channel(d, d, 2, rng).validate()
        u = random_unitary(d, rng)
        assert np.abs(u @ u.conj().T - np.eye(d)).max() < 1e-12


@pytest.mark.parametrize("outcomes", [3, 4])
def test_random_povm_with_more_outcomes_than_dimension_has_no_zero_effect(outcomes):
    # grouping a qubit's two projectors round-robin left outcomes - 2 zero effects
    povm = random_povm(2, outcomes, np.random.default_rng(19)).validate()
    assert povm.outcomes == outcomes
    assert min(np.trace(e).real for e in povm.elements) > 1e-3
    for e in povm.elements:
        assert np.linalg.matrix_rank(e, tol=1e-9) == 1


def _random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def test_snap_povm():
    rng = np.random.default_rng(13)
    m = random_povm(2, 2, rng)
    dirty = [e + 1e-8 * np.eye(2) for e in m.elements]
    snapped = snap_povm(dirty)
    snapped.validate()
    assert np.abs(snapped.elements[0] - m.elements[0]).max() < 1e-7
    # the effects are clipped to PSD and conjugated by S^-1/2, S their sum,
    # exactly as written here
    for seed in range(10):
        rng = np.random.default_rng(seed)
        d = 2 + seed % 2
        dirty = [e + 1e-8 * _random_hermitian(rng, d) for e in random_povm(d, d, rng).elements]
        clipped = []
        for e in dirty:
            w, v = np.linalg.eigh((e + e.conj().T) / 2)
            clipped.append(v @ np.diag(np.clip(w, 0.0, None)) @ v.conj().T)
        w, v = np.linalg.eigh((sum(clipped) + sum(clipped).conj().T) / 2)
        inv_root = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
        for got, c in zip(snap_povm(dirty).elements, clipped):
            assert got.tobytes() == (inv_root @ c @ inv_root).tobytes()


def test_snaps_are_valid_on_boundary_inputs():
    # rank-deficient devices plus noise of the solver's tolerance: clipping
    # and renormalizing leaves PSD blocks with exact marginals
    for seed in range(20):
        rng = np.random.default_rng(seed)
        d = 2 + seed % 2
        choi = unitary_channel(random_unitary(d, rng)).matrix
        lueders = lueders_instrument(random_povm(d, d, rng))
        for eps in (1e-8, 1e-7, 1e-6):
            snapped = snap_choi_matrix(choi + eps * _random_hermitian(rng, d * d), d)
            ChoiMatrix(d, d, snapped).validate()
            assert np.linalg.eigvalsh(snapped)[0] >= -1e-12
            ins = snap_instrument([m + eps * _random_hermitian(rng, d * d) for m in lueders.elements], d)
            ins.validate()
            assert min(np.linalg.eigvalsh(m)[0] for m in ins.elements) >= -1e-12


def test_snap_choi_matrix():
    rng = np.random.default_rng(14)
    ch = random_channel(2, 2, 2, rng)
    dirty = ch.matrix + 1e-8 * np.eye(4)
    snapped = snap_choi_matrix(dirty, 2)
    ChoiMatrix(2, 2, snapped).validate()
    assert np.abs(snapped - ch.matrix).max() < 1e-7
    # no renormalization makes a zero input marginal I / d
    with pytest.raises(ContractError, match="singular"):
        snap_choi_matrix(np.diag([1.0, 0.0, 0.0, 0.0]), 2)


def test_snap_instrument():
    ins = lueders_instrument(basis_povm(2))
    dirty = [m + 1e-8 * np.eye(4) for m in ins.elements]
    snapped = snap_instrument(dirty, 2)
    snapped.validate()


def test_json_roundtrips():
    rng = np.random.default_rng(15)
    ch = random_channel(2, 3, 2, rng)
    back = ChoiMatrix.from_json(ch.to_json())
    assert np.abs(back.matrix - ch.matrix).max() < 1e-15
    m = random_povm(2, 2, rng)
    back = Povm.from_json(m.to_json())
    assert np.abs(back.elements[1] - m.elements[1]).max() < 1e-15
    coll = PovmCollection([m, basis_povm(2)])
    back = PovmCollection.from_json(coll.to_json())
    assert back.n == 2
    ins = lueders_instrument(m)
    back = Instrument.from_json(ins.to_json())
    assert back.outcomes == 2
    joint = random_joint_channel(2, 2, 2, rng)
    back = JointChannel.from_json(joint.to_json())
    assert np.abs(back.choi - joint.choi).max() < 1e-15
    # one output dimension per member
    joint = JointChannel(2, (2, 3), random_channel(2, 6, 2, rng).matrix)
    assert joint.to_json()["dims_out"] == [2, 3]
    back = JointChannel.from_json(joint.to_json())
    assert back.dims_out == (2, 3)
    assert np.abs(back.choi - joint.choi).max() < 1e-15
    # dispatch by kind
    assert isinstance(object_from_json(ch.to_json()), ChoiMatrix)
    with pytest.raises(ContractError):
        object_from_json({"kind": "nonsense"})


@pytest.mark.parametrize("effects, match", [
    ([1.0], r"expected a square matrix, got shape \(\)"),  # it raised IndexError
    ([], "a measurement needs at least one outcome"),
    ([np.eye(2), np.eye(3)], "all effects must be square with a common dimension"),
], ids=["scalar", "none", "mixed"])
def test_a_povm_needs_square_effects_of_one_dimension(effects, match):
    with pytest.raises(DimensionError, match=match):
        Povm(effects)


def test_a_collection_refuses_a_member_that_is_not_a_povm():
    # before the size checks, which read a POVM's dimension
    with pytest.raises(ContractError, match="measurement 0 needs a Povm, got ChoiMatrix"):
        PovmCollection([identity_channel(2)])


@pytest.mark.parametrize("field, value", [("dim_in", 2.0), ("dim_out", 1.5), ("dim_in", False)])
def test_json_sizes_must_be_integers(field, value):
    rng = np.random.default_rng(16)
    objs = [random_channel(2, 2, 2, rng).to_json(), lueders_instrument(basis_povm(2)).to_json(),
            random_joint_channel(2, 2, 2, rng).to_json()]
    for obj in objs:
        if field not in obj:  # a joint channel has dims_out, tested below
            continue
        obj[field] = value
        with pytest.raises(ContractError, match=f"'{field}' must be an integer"):
            object_from_json(obj)


@pytest.mark.parametrize("dims, error, match", [
    (2, ContractError, "joint channel field 'dims_out' must be a list, got int"),
    ([2, 2.0], ContractError, r"joint channel field 'dims_out' must list integers, got \[2, 2.0\]"),
    ([2, True], ContractError, "joint channel field 'dims_out' must list integers"),
    ([4, 0], DimensionError, "JointChannel field 'dims_out' must be a nonempty list of integers >= 1"),
    ([], DimensionError, "JointChannel field 'dims_out' must be a nonempty list of integers >= 1"),
], ids=["not-list", "float", "bool", "zero", "empty"])
def test_json_dims_out_must_list_positive_integers(dims, error, match):
    # each product is 4 = 4 * 1 * 1, so only the entries are wrong
    obj = random_joint_channel(2, 2, 2, np.random.default_rng(16)).to_json()
    obj["dims_out"] = dims
    with pytest.raises(error, match=match):
        object_from_json(obj)


@pytest.mark.parametrize("decode, obj, match", [
    (ChoiMatrix.from_json, "x", "channel must be a JSON object, got str"),
    (Povm.from_json, ["x"], "measurement must be a JSON object, got list"),
    (Povm.from_json, {"elements": {"a": 1}}, "measurement field 'elements' must be a list, got dict"),
    (PovmCollection.from_json, {"povms": {"a": 1}},
     "measurement collection field 'povms' must be a list, got dict"),
    (PovmCollection.from_json, {"povms": ["x"]}, "measurement 0 must be a JSON object, got str"),
    (Instrument.from_json, 3, "instrument must be a JSON object, got int"),
    (Instrument.from_json, {"dim_in": 1, "dim_out": 1, "elements": "ab"},
     "instrument field 'elements' must be a list, got str"),
    (JointChannel.from_json, None, "joint channel must be a JSON object, got NoneType"),
    (object_from_json, "x", "object must be a JSON object, got str"),
    (object_from_json, {"kind": ["choi"]}, "unknown object kind"),
    (ChoiMatrix.from_json, {"dim_in": 2, "dim_out": 2}, "channel has no field 'matrix'"),
    (JointChannel.from_json, {"dim_in": 2, "dim_out": 2}, "joint channel has no field 'dims_out'"),
    (object_from_json, {"dim": 2}, "object has no field 'kind'"),
], ids=["channel", "povm", "povm-elements", "collection-povms", "collection-entry", "instrument",
        "instrument-elements", "joint-channel", "object", "unhashable-kind", "channel-missing",
        "joint-missing", "object-missing"])
def test_json_decoders_name_a_non_object_or_non_list(decode, obj, match):
    # Python's own TypeError text used to leak into the message, and a dict
    # in place of a list was read as the list of its keys
    with pytest.raises(ContractError, match=match):
        decode(obj)


@pytest.mark.parametrize("make, field", [
    (lambda: JointChannel(2, (-1, -1), np.eye(2)), "dims_out"),  # (-1) * (-1) * 2 == 2
    (lambda: JointChannel(1, (True, 1), np.eye(1)), "dims_out"),
    (lambda: JointChannel(1, (1, 0), np.zeros((0, 0))), "dims_out"),
    (lambda: JointChannel(2, 2, np.eye(4)), "dims_out"),
    (lambda: ChoiMatrix(0, 2, np.zeros((0, 0))).validate(), "dim_in"),
    (lambda: ChoiMatrix(2.0, 2, np.eye(4) / 4).validate(), "dim_in"),
    (lambda: ChoiMatrix(True, True, np.eye(1)).validate(), "dim_in"),
    (lambda: ChoiMatrix(1, np.int64(-1), -np.eye(1)), "dim_out"),
    (lambda: Instrument(2, 1.0, [np.eye(4) / 4]).validate(), "dim_out"),
    (lambda: Instrument(-2, -2, [np.eye(4) / 4]).validate(), "dim_in"),
], ids=["joint-negative", "joint-bool", "joint-zero", "joint-not-list", "choi-zero", "choi-float", "choi-bool", "choi-numpy-negative",
        "instrument-float", "instrument-negative"])
def test_sizes_must_be_positive_integers(make, field):
    # each of these used to construct because the matrix shape matched, and
    # then validated or failed later with another error
    rule = "a nonempty list of integers >= 1" if field == "dims_out" else "an integer >= 1"
    with pytest.raises(DimensionError, match=f"'{field}' must be {rule}"):
        make()


def test_json_sizes_must_be_positive():
    obj = ChoiMatrix(2, 2, np.eye(4) / 4).to_json()
    obj["dim_in"], obj["dim_out"] = -1, -4
    # it used to fail in the partial trace, naming no field
    with pytest.raises(DimensionError, match="'dim_in' must be an integer >= 1, got -1"):
        ChoiMatrix.from_json(obj)


def test_validation_rejects_bad_choi():
    with pytest.raises(ContractError):
        # input marginal off from I/d
        ChoiMatrix(2, 2, np.eye(4) / 4 + 0.1 * kron(np.eye(2), SZ) / 2).validate()
    with pytest.raises(ContractError):
        ChoiMatrix(2, 2, np.eye(4) / 2).validate()  # trace 2
    with pytest.raises(ContractError):
        m = np.eye(4) / 4
        m[0, 1] = np.nan
        ChoiMatrix(2, 2, m).validate()
    # unit trace and input marginal I/2, but eigenvalues 1/4 +- 1/2
    with pytest.raises(ContractError, match="Choi matrix is not PSD"):
        ChoiMatrix(2, 2, np.eye(4) / 4 + kron(SZ, SZ) / 2).validate()
    # the elements sum to the channel I/4, but the second is not PSD
    zz = kron(SZ, SZ) / 8
    with pytest.raises(ContractError, match="instrument element 1 is not PSD"):
        Instrument(2, 2, [np.eye(4) / 4 + zz, -zz]).validate()
