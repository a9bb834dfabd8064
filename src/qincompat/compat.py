"""Joint devices and compatibility checks for measurement collections,
channel collections, and measurement-channel pairs.

Each kind of joint device -- parent measurement, joint channel, instrument --
is described once by a ``JointDevice``, which generates the robustness
primal, the best-compatible game program and the check below, each by
extending its member and normalization equations, ``RowFamily`` objects
whose identity multiple is derived from their lifts.  The check
maximizes t such that a joint device with the required marginals has every
block >= t * I; the members are compatible exactly when the optimal margin is
nonnegative, up to ``MARGIN_TOL``.  The margin is shifted by a constant from
a particular solution of the marginal equations, keeping the program in
nonnegative standard form; that solution is also the starting point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .linalg import ContractError, Lift, hermitize
from .qobjects import (
    ChoiMatrix,
    JointChannel,
    Povm,
    PovmCollection,
    snap_choi_matrix,
    snap_instrument,
    snap_povm,
)
from .families import RowFamily
from .sdp import SdpProblem, SolveOptions, require_optimal, solve

MARGIN_TOL = 1e-7
MAX_SETTINGS = 4
MAX_OUTCOMES = 4


def assignments(outcomes: int, settings: int) -> list[tuple[int, ...]]:
    """Deterministic outcome assignments, lexicographic; the parent outcome order."""
    if settings > MAX_SETTINGS or outcomes > MAX_OUTCOMES:
        raise ContractError(
            f"assignment enumeration supports at most {MAX_SETTINGS} settings "
            f"and {MAX_OUTCOMES} outcomes, got {settings} and {outcomes}"
        )
    return list(itertools.product(range(outcomes), repeat=settings))


def lift_setting(n: int, d_out: int, d_in: int, x: int) -> Lift:
    """Embedding of an operator on (output_x (x) input) into the joint space."""
    return Lift((d_out,) * n + (d_in,), (x, n))


def lift_input(n: int, d_out: int, d_in: int) -> Lift:
    """Embedding of an operator on the input factor into the joint space."""
    return Lift((d_out,) * n + (d_in,), (n,))


def padded_effects(collection: PovmCollection):
    """Effects as a [setting][outcome] grid, short settings padded with zeros."""
    o, d = collection.outcomes, collection.dim
    grid = []
    for p in collection.povms:
        row = [np.asarray(m, dtype=complex) for m in p.elements]
        row += [np.zeros((d, d), dtype=complex)] * (o - len(row))
        grid.append(row)
    return grid


def channel_family(channels):
    """Validated Choi matrices of a channel collection with n, d_in, d_out."""
    chois = [c.validate() for c in channels]
    n = len(chois)
    if n < 1:
        raise ContractError("need at least one channel")
    if n > MAX_SETTINGS:
        raise ContractError(f"at most {MAX_SETTINGS} channels supported, got {n}")
    d, dp = chois[0].dim_in, chois[0].dim_out
    if any(c.dim_in != d or c.dim_out != dp for c in chois):
        raise ContractError("all channels must share input and output dimensions")
    return chois, n, d, dp


def pair_dims(povm: Povm, channel: ChoiMatrix):
    """Validate a measurement-channel pair; return d_in, d_out, outcomes."""
    povm.validate()
    channel.validate()
    if povm.dim != channel.dim_in:
        raise ContractError("measurement and channel act on different input spaces")
    return channel.dim_in, channel.dim_out, povm.outcomes


def unit_marginal(fam: RowFamily) -> float:
    """The multiple of I that a family's marginal makes of identity blocks:
    the adjoint of the lift (dims, keep, scale) maps I to scale * I on the
    kept factors, times the side of the factors it traces out."""
    return sum(lift.scale * (lift.size // (lift.arg_dim or 1)) for _, lift in fam.terms)


@dataclass
class JointDevice:
    """One kind of joint device, described once for every program on it.

    ``members``: one ``RowFamily`` per member operator, in input order, with
    the member as rhs.  ``norm``: the input marginal Sigma = t * I / k, rhs
    I / k.  ``particular`` solves the member equations; joint blocks c * I,
    c = ``identity_multiple``, make every noise block
    c * unit_marginal(member) * I - member positive definite.  Member rhs,
    ``particular`` and c are None without member operators.  ``joint`` and
    ``noise`` snap solver blocks to the joint device and to the noise."""

    name: str
    blocks: list[int]
    members: list[RowFamily]
    norm: RowFamily
    k: int
    particular: list | None
    identity_multiple: float | None
    joint: Callable
    noise: Callable

    def robustness_start(self):
        """Strictly feasible robustness point: joint blocks, noise blocks, t."""
        c = self.identity_multiple
        joint = [c * np.eye(n) for n in self.blocks]
        noise = [c * unit_marginal(fam) * np.eye(fam.dim) - fam.rhs for fam in self.members]
        return joint, noise, c * unit_marginal(self.norm) * self.k


def channel_device(n: int, d_in: int, d_out: int, chois=None) -> JointDevice:
    """Joint channel on (out_1) (x) ... (x) (out_n) (x) (input); member x is
    its Choi marginal on (out_x) (x) (input)."""
    full = d_out**n * d_in
    ops = [None] * n if chois is None else [c.matrix for c in chois]
    members = [RowFamily(d_out * d_in, [(0, lift_setting(n, d_out, d_in, x))], ops[x])
               for x in range(n)]
    norm = RowFamily(d_in, [(0, lift_input(n, d_out, d_in))], np.eye(d_in) / d_in)
    particular = multiple = None
    if chois is not None:
        g = np.zeros((full, full), dtype=complex)
        for x, j in enumerate(ops):
            g += lift_setting(n, d_out, d_in, x)(j) / d_out ** (n - 1)
        g -= (n - 1) * np.eye(full) / (d_in * d_out**n)
        particular = [g]
        tau0 = 2.0 * d_out * d_in * max(np.linalg.eigvalsh(j)[-1] for j in ops) + 1.0
        multiple = tau0 / full
    return JointDevice(
        "channel", [full], members, norm, d_in, particular, multiple,
        joint=lambda bs: JointChannel(d_in, n, d_out, snap_choi_matrix(bs[0], d_in, d_out**n)),
        noise=lambda bs: [ChoiMatrix(d_in, d_out, snap_choi_matrix(b, d_in, d_out)) for b in bs],
    )


def measurement_device(collection: PovmCollection) -> JointDevice:
    """Parent measurement with one effect per outcome assignment; member
    (x, i) is the sum of the parent effects that assign outcome i to x."""
    n, o, d = collection.n, collection.outcomes, collection.dim
    lam = assignments(o, n)
    grid = padded_effects(collection)
    count = o ** (n - 1)  # assignments fixing one setting's outcome
    same = Lift.identity(d)
    members = [RowFamily(d, [(k, same) for k, l in enumerate(lam) if l[x] == i], grid[x][i])
               for x in range(n) for i in range(o)]
    norm = RowFamily(d, [(k, same) for k in range(len(lam))], np.eye(d))
    particular = [
        sum(grid[x][l[x]] for x in range(n)) / count - (n - 1) * np.eye(d) / o**n
        for l in lam
    ]
    return JointDevice(
        "measurement", [d] * len(lam), members, norm, 1, particular, 2.0 / count,
        joint=snap_povm,
        noise=lambda bs: PovmCollection([snap_povm(bs[x * o:(x + 1) * o]) for x in range(n)]),
    )


def pair_device(o: int, d: int, dp: int, povm: Povm | None = None,
                channel: ChoiMatrix | None = None) -> JointDevice:
    """Instrument with o Choi blocks on (output, dimension dp) (x) (input,
    dimension d); the members are its measurement, effect by effect, then
    its total channel."""
    full = dp * d
    effects = [None] * o if povm is None else povm.elements
    # the measurement's marginal of block J is d * (Tr_out J)^T
    measure = Lift((dp, d), (1,), transpose=True, scale=d)
    members = [RowFamily(d, [(i, measure)], effects[i]) for i in range(o)]
    members.append(RowFamily(full, [(i, Lift.identity(full)) for i in range(o)],
                             None if channel is None else channel.matrix))
    norm = RowFamily(d, [(i, Lift((dp, d), (1,))) for i in range(o)], np.eye(d) / d)
    particular = multiple = None
    if povm is not None:
        particular = [
            np.kron(np.eye(dp) / dp, m.T / d)
            + (channel.matrix - np.kron(np.eye(dp) / dp, np.eye(d) / d)) / o
            for m in effects
        ]
        multiple = 2.0 * max(1.0 / (d * dp), 1.0 / o)
    return JointDevice(
        "pair", [full] * o, members, norm, d, particular, multiple,
        joint=lambda bs: snap_instrument(bs, d, dp),
        noise=lambda bs: (snap_povm(bs[:o]),
                          ChoiMatrix(d, dp, snap_choi_matrix(bs[o], d, dp))),
    )


@dataclass
class CompatibilityVerdict:
    compatible: bool
    margin: float
    joint: object | None

    def to_json(self) -> dict:
        j = None
        if self.joint is not None:
            j = self.joint.to_json()
        return {"compatible": bool(self.compatible), "margin": float(self.margin), "joint": j}


def max_margin_check(device: JointDevice,
                     options: SolveOptions | None = None) -> CompatibilityVerdict:
    """The max-margin program of the device's member equations.  Their input
    marginals already fix the normalization, so no row is spent on it."""
    floor = min(np.linalg.eigvalsh(g)[0] for g in device.particular)
    t0 = -min(0.0, floor) + 1.0
    u0 = max(0.5, t0 + floor - 0.5)

    prob = SdpProblem(
        blocks=list(device.blocks),
        objective=[np.zeros((n, n), dtype=complex) for n in device.blocks],
        scalar_costs=[-1.0],
        families=[replace(fam, rhs=fam.rhs + c * t0 * np.eye(fam.dim),
                          scalar_terms=[(0, Lift.trace(c))])
                  for fam, c in zip(device.members, map(unit_marginal, device.members))],
    )
    start = [g - (u0 - t0) * np.eye(g.shape[0]) for g in device.particular]
    sol = solve(prob, options, initial_blocks=start, initial_scalars=[u0])
    require_optimal(sol, f"{device.name} compatibility")
    margin = sol.scalar_values[0] - t0
    joint = None
    if margin >= -MARGIN_TOL:
        joint = device.joint([hermitize(b) + margin * np.eye(b.shape[0])
                              for b in sol.block_values])
    return CompatibilityVerdict(margin >= -MARGIN_TOL, margin, joint)


def check_measurements(collection: PovmCollection,
                       options: SolveOptions | None = None) -> CompatibilityVerdict:
    """Decide whether all measurements arise from one parent measurement."""
    collection.validate()
    return max_margin_check(measurement_device(collection), options)


def check_channels(channels, options: SolveOptions | None = None) -> CompatibilityVerdict:
    """Decide whether the channels are marginals of one joint channel."""
    chois, n, d, dp = channel_family(channels)
    return max_margin_check(channel_device(n, d, dp, chois), options)


def check_pair(povm: Povm, channel: ChoiMatrix,
               options: SolveOptions | None = None) -> CompatibilityVerdict:
    """Decide whether one instrument induces both the measurement and the channel."""
    d, dp, o = pair_dims(povm, channel)
    return max_margin_check(pair_device(o, d, dp, povm, channel), options)
