from functools import partial

import numpy as np
import pytest

from qincompat.linalg import ContractError, hermitian_basis, partial_trace
from qincompat.compat import (
    assignments,
    check_channels,
    check_measurements,
    check_pair,
    device_family,
    joint_device,
    unit_marginal,
)
from qincompat.qobjects import (
    ChoiMatrix,
    Instrument,
    JointChannel,
    PovmCollection,
    Povm,
    basis_povm,
    choi_from_kraus,
    constant_channel,
    depolarizing_channel,
    identity_channel,
    instrument_povm,
    instrument_total,
    lueders_instrument,
    marginal,
    projective_from_hermitian,
    qc_channel,
    random_channel,
    random_joint_channel,
    random_povm,
    random_state,
)
from qincompat.sdp import SolveOptions

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def z_povm():
    return basis_povm(2)


def x_povm():
    return projective_from_hermitian(SX)


def noisy(povm, c):
    d, o = povm.dim, povm.outcomes
    return Povm([c * m + (1 - c) * np.trace(m).real * np.eye(d) / d for m in povm.elements])


def test_assignments():
    lam = assignments([2, 2])
    assert lam == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert assignments([3, 2]) == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
    # the enumeration of a measurement collection is capped
    with pytest.raises(ContractError):
        device_family(PovmCollection([basis_povm(2)] * 5).povms, "measurements")
    with pytest.raises(ContractError):
        device_family(PovmCollection([basis_povm(5)] * 2).povms, "measurements")


def test_identical_measurements_compatible():
    v = check_measurements(PovmCollection([z_povm(), z_povm()]))
    assert v.compatible
    assert abs(v.margin) < 1e-6
    v.joint.validate()


def test_mub_pair_incompatible():
    v = check_measurements(PovmCollection([z_povm(), x_povm()]))
    assert not v.compatible
    assert v.margin < -1e-3
    assert v.joint is None


def test_noisy_mub_threshold():
    # joint measurability of noisy complementary qubit measurements sets in at 1/sqrt(2)
    lo = check_measurements(PovmCollection([noisy(z_povm(), 0.5), noisy(x_povm(), 0.5)]))
    assert lo.compatible
    hi = check_measurements(PovmCollection([noisy(z_povm(), 0.9), noisy(x_povm(), 0.9)]))
    assert not hi.compatible


def test_parent_reproduces_marginals():
    ms = PovmCollection([noisy(z_povm(), 0.6), noisy(x_povm(), 0.6)])
    v = check_measurements(ms)
    assert v.compatible
    parent = v.joint
    parent.validate()
    lam = assignments([2, 2])
    for x in range(2):
        for i in range(2):
            got = sum(parent.elements[k] for k, l in enumerate(lam) if l[x] == i)
            assert np.abs(got - ms.povms[x].elements[i]).max() < 1e-6


def test_identity_channels_incompatible():
    for d in (2, 3):
        v = check_channels([identity_channel(d), identity_channel(d)])
        assert not v.compatible
        assert v.margin < -1e-4


def test_depolarizing_self_compatibility():
    # a qubit depolarizing channel coexists with itself up to visibility 2/3
    ok = check_channels([depolarizing_channel(2, 0.5)] * 2)
    assert ok.compatible
    edge = check_channels([depolarizing_channel(2, 2 / 3 - 1e-3)] * 2)
    assert edge.compatible
    bad = check_channels([depolarizing_channel(2, 0.85)] * 2)
    assert not bad.compatible


# the verdict follows the solve's tolerance: at 1e-6 the second input of each
# test below is compatible with a margin below -1e-7
LOOSE = SolveOptions(feas_tol=1e-6, gap_tol=1e-6)


def test_joint_channel_reproduces_marginals():
    # channels share their input dimension only: the last pair is C^2 -> C^2
    # next to C^2 -> C^3
    for dims, kraus_rank, options in (((2, 2), 3, None), ((2, 2), 1, LOOSE), ((2, 3), 2, None)):
        rng = np.random.default_rng(5)
        joint = JointChannel(2, dims, random_channel(2, np.prod(dims), kraus_rank, rng).matrix)
        pair = [marginal(joint, 1), marginal(joint, 2)]
        v = check_channels(pair, options)
        assert v.compatible
        assert v.joint.validate().dims_out == dims
        for x in (1, 2):
            got = marginal(v.joint, x)
            assert np.abs(got.matrix - pair[x - 1].matrix).max() < 1e-6


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["2x5", "5x2"])
def test_channel_start_is_strictly_feasible_for_mixed_output_dimensions(order):
    # the measure-and-record channels of X and a 5-outcome qubit measurement;
    # a start scaled by the first output dimension alone left a noise block
    # singular in the order (2, 5).  Measured: 0.6 in both orders.
    five = Povm([np.diag([1.0, 0.0])] + [np.diag([0.0, 0.25])] * 4)
    chans = [qc_channel(p) for p in (x_povm(), five)]
    _, noise, _ = joint_device(*device_family([chans[i] for i in order], "channels")).robustness_start()
    assert min(np.linalg.eigvalsh(b)[0] for b in noise) > 0.5


def test_pair_lueders_compatible():
    dephase = choi_from_kraus([np.diag([1.0, 0.0]).astype(complex),
                               np.diag([0.0, 1.0]).astype(complex)])
    tilted = projective_from_hermitian(np.array([[1, 0.3], [0.3, -1]]))
    for povm, channel, options in ((z_povm(), dephase, None),
                                   (tilted, instrument_total(lueders_instrument(tilted)), LOOSE)):
        v = check_pair(povm, channel, options)
        assert v.compatible
        ins = v.joint
        ins.validate()
        back = instrument_povm(ins)
        for got, orig in zip(back.elements, povm.elements):
            assert np.abs(got - orig).max() < 1e-6
        assert np.abs(instrument_total(ins).matrix - channel.matrix).max() < 1e-6


def test_pair_with_identity_incompatible():
    v = check_pair(z_povm(), identity_channel(2))
    assert not v.compatible
    assert v.margin < -1e-3


def test_pair_measure_and_prepare_compatible():
    rng = np.random.default_rng(7)
    m = random_povm(2, 2, rng)
    sigma = random_state(3, rng)
    v = check_pair(m, constant_channel(2, sigma))
    assert v.compatible


def test_pair_zero_effect_leaves_the_margin():
    # a POVM listing a zero effect has the margin of the POVM without it, and
    # its instrument keeps a zero element at that outcome
    rng = np.random.default_rng(13)
    povm = noisy(random_povm(2, 2, rng), 0.5)
    padded = Povm([povm.elements[0], np.zeros((2, 2)), povm.elements[1]])
    # half Lueders, half measure-and-prepare I/2: full-rank instrument blocks
    channel = ChoiMatrix(2, 2, (instrument_total(lueders_instrument(povm)).matrix
                                + constant_channel(2, np.eye(2) / 2).matrix) / 2)
    v, vp = check_pair(povm, channel), check_pair(padded, channel)
    assert v.compatible and vp.compatible and v.margin > 1e-3
    assert abs(vp.margin - v.margin) < 1e-8
    ins = vp.joint.validate()
    assert np.abs(ins.elements[1]).max() == 0
    for got, want in zip(instrument_povm(ins).elements, padded.elements):
        assert np.abs(got - want).max() < 1e-6


def test_mixing_with_trivial_preserves_compatibility():
    rng = np.random.default_rng(9)
    base = PovmCollection([noisy(z_povm(), 0.55), noisy(x_povm(), 0.55)])
    assert check_measurements(base).compatible
    mixed = PovmCollection([
        Povm([0.7 * m + 0.3 * np.eye(2) / 2 for m in p.elements])
        for p in base.povms
    ])
    assert check_measurements(mixed).compatible
    del rng


def test_margin_tolerance_band():
    # boundary case lands within the documented tolerance of zero
    v = check_measurements(PovmCollection([z_povm(), z_povm()]))
    assert v.margin >= -10 * SolveOptions().feas_tol


# -- the joint-device descriptions behind every check, primal and game ----
#
# Each case returns a device described with the marginals of a random valid
# joint device as its members, and the forward maps from joint blocks to
# (member marginals, input marginal), written independently of the device.


def _channel_marginals(n, d, dp):
    def marginals(blocks):
        joint = JointChannel(d, _counts(n, dp), blocks[0])
        return ([marginal(joint, x + 1).matrix for x in range(n)],
                partial_trace(blocks[0], joint.shape, (n,)))

    return marginals


def _counts(n, o):
    """The outcome count (or output dimension) of each of n members: o for
    all, or o itself."""
    return (o,) * n if isinstance(o, int) else o


def _measurement_marginals(n, o, d):
    counts = _counts(n, o)

    def marginals(blocks):
        # outcome coarse-graining of the parent, outcomes in lexicographic order
        parent = np.array(blocks).reshape(counts + (d, d))
        members = [np.sum(parent, axis=tuple(y for y in range(n) if y != x))[i]
                   for x in range(n) for i in range(counts[x])]
        return members, sum(blocks)

    return marginals


def _pair_marginals(o, d, dp):
    def marginals(blocks):
        ins = Instrument(d, dp, blocks)
        total = instrument_total(ins).matrix
        return instrument_povm(ins).elements + [total], partial_trace(total, (dp, d), (1,))

    return marginals


def _channel_case(rng):
    n, d, dp = 2, 2, 3
    joint = random_joint_channel(d, n, dp, rng)
    device = joint_device(d, [(dp, False)] * n, [[marginal(joint, x + 1).matrix] for x in range(n)])
    return device, _channel_marginals(n, d, dp)


def _mixed_channel_case(rng):
    d, dims = 2, (2, 3)
    joint = JointChannel(d, dims, random_channel(d, 6, 2, rng).matrix)
    device = joint_device(d, [(dp, False) for dp in dims], [[marginal(joint, x + 1).matrix] for x in (0, 1)])
    return device, _channel_marginals(2, d, dims)


def _measurement_case(rng, counts=(3, 3)):
    n, d = len(counts), 2
    marginals = _measurement_marginals(n, counts, d)
    gs = []
    for _ in range(np.prod(counts)):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        gs.append(g @ g.conj().T)
    w, v = np.linalg.eigh(sum(gs))
    root = v @ np.diag(w**-0.5) @ v.conj().T
    members, _ = marginals([root @ g @ root for g in gs])
    ends = np.cumsum(counts)
    effects = [members[e - o:e] for o, e in zip(counts, ends)]
    return joint_device(d, [(o, True) for o in counts], effects), marginals


def _mixed_measurement_case(rng):
    return _measurement_case(rng, (3, 2))


def _pair_case(rng):
    o, d, dp = 2, 2, 3
    # outcome i of the instrument: the block of a channel into C^o (x) C^dp
    big = random_channel(d, o * dp, 2, rng).matrix.reshape(o, dp * d, o, dp * d)
    ins = Instrument(d, dp, [big[i, :, i, :] for i in range(o)])
    device = joint_device(d, [(o, True), (dp, False)],
                          [instrument_povm(ins).elements, [instrument_total(ins).matrix]])
    return device, _pair_marginals(o, d, dp)


@pytest.mark.parametrize("case", [_channel_case, _mixed_channel_case, _measurement_case,
                                  _mixed_measurement_case, _pair_case])
def test_member_equations_are_adjoint_to_marginals(case):
    rng = np.random.default_rng(3)
    device, marginals = case(rng)
    eqs = device.members + [device.norm]
    # the identity is linear, so random Hermitian blocks cover every device
    blocks = []
    for n in device.blocks:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        blocks.append((g + g.conj().T) / 2)
    members, inp = marginals(blocks)
    for eq, marg in zip(eqs, members + [inp]):
        for h in hermitian_basis(eq.dim):
            lhs = sum(np.trace(fn(h) @ blocks[b]).real for b, fn in eq.terms)
            assert abs(lhs - np.trace(h @ marg).real) < 1e-12
    # identity blocks give unit_marginal * I; the particular solution fits
    # the members and the t = 1 normalization
    members, inp = marginals([np.eye(n) for n in device.blocks])
    for eq, marg in zip(eqs, members + [inp]):
        assert np.abs(marg - unit_marginal(eq) * np.eye(eq.dim)).max() < 1e-12
    members, inp = marginals(device.particular)
    for eq, marg in zip(eqs, members + [inp]):
        assert np.abs(marg - eq.rhs).max() < 1e-12


_DEVICES = {
    "channel": (lambda n, d, dp: joint_device(d, [(c, False) for c in _counts(n, dp)]), _channel_marginals),
    "measurement": (lambda n, o, d: joint_device(d, [(c, True) for c in _counts(n, o)]),
                    _measurement_marginals),
    "pair": (lambda o, d, dp: joint_device(d, [(o, True), (dp, False)]), _pair_marginals),
}
# more sizes than the one fixed case per device: channel (n, d, dp) with dp
# one dimension or one per member, measurement (n, o, d) with o one count or
# one per setting, pair (o, d, dp)
_SIZES = [("channel", (1, 2, 3)), ("channel", (2, 2, 3)), ("channel", (3, 3, 2)),
          ("channel", (2, 2, (3, 2))), ("channel", (3, 2, (2, 3, 1))),
          ("measurement", (2, 3, 3)), ("measurement", (3, 2, 2)),
          ("measurement", (2, (3, 2), 2)), ("measurement", (3, (2, 4, 3), 3)),
          ("pair", (2, 2, 3)), ("pair", (3, 3, 2))]


def _size_id(kind, sizes):
    return "-".join([kind] + ["x".join(map(str, s)) if isinstance(s, tuple) else str(s)
                              for s in sizes])


@pytest.mark.parametrize("kind, sizes", _SIZES, ids=[_size_id(k, s) for k, s in _SIZES])
def test_unit_marginal_is_the_marginal_of_identity_blocks(kind, sizes):
    device, marginals = (make(*sizes) for make in _DEVICES[kind])
    members, inp = marginals([np.eye(n) for n in device.blocks])
    assert len(members) == len(device.members)
    for eq, marg in zip(device.members + [device.norm], members + [inp]):
        assert np.abs(marg - unit_marginal(eq) * np.eye(eq.dim)).max() < 1e-12


@pytest.mark.parametrize("family, inputs, message", [
    (partial(device_family, kind="channels"), [], "need one or more members on one input dimension"),
    (partial(device_family, kind="channels"), [identity_channel(2)] * 5, "at most 4 members supported, got 5"),
    (partial(device_family, kind="measurements"), PovmCollection([basis_povm(2)] * 5).povms,
     "at most 4 members supported, got 5"),
    (partial(device_family, kind="measurements"), PovmCollection([Povm([np.eye(2) / 5] * 5)]).povms,
     "at most 4 outcomes per measurement supported without a channel, got 5"),
], ids=["no-channel", "five-channels", "five-settings", "five-outcomes"])
def test_families_refuse_past_their_caps_naming_them(family, inputs, message):
    with pytest.raises(ContractError, match=message):
        family(inputs)
