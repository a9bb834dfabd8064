"""Joint devices and compatibility checks for measurement collections,
channel collections, and measurement-channel pairs.

Every kind is a special case of channel incompatibility: a measurement is
its measure-and-record channel, and a measurement-channel pair is one channel
with a classical and a quantum output.  So one ``JointDevice``, a channel
whose outputs, one per member, are each quantum or classical, describes
every joint device -- parent measurement, joint channel, instrument -- and
one validator, ``device_family``, reads every input and every strategy a game
scores, a list of measurements and channels on one input space of the kind
its caller names, into its arguments: per member, its effects or [its Choi matrix].
No count of members or outcomes is capped: ``require_size`` refuses a device
whose solves need more than ``MAX_CORE_BYTES`` of core arrays (``core_bytes``).
The description generates the robustness primal, the best-compatible game
program and the check below, each by extending its member and normalization
equations, ``RowFamily`` objects whose identity multiple is derived from
their lifts.  The check maximizes t such that a joint device with the
required marginals has every block >= t * I, leaving out the blocks of
classical values whose effect is zero; the members are compatible exactly
when the optimal margin is nonnegative, up to ten times the solve's
feasibility tolerance.  The margin is shifted by a constant from a
particular solution of the marginal equations, keeping the program in
nonnegative standard form; that solution is also the starting point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from math import prod

import numpy as np

from .linalg import TOL, ContractError, Lift, hermitize
from .qobjects import (
    ChoiMatrix,
    JointChannel,
    Povm,
    PovmCollection,
    snap_choi_matrix,
    snap_instrument,
    snap_povm,
)
from .families import RowFamily, core_bytes
from .sdp import SdpProblem, SolveOptions, require_optimal, solve

MAX_CORE_BYTES = core_bytes([8, 64, 64], 1, 512)  # the identity pair on C^8: 936.0 MiB


def assignments(counts) -> list[tuple[int, ...]]:
    """Deterministic outcome assignments, one value below ``counts[x]`` per
    setting x, lexicographic; the parent outcome order."""
    return list(itertools.product(*map(range, counts)))


def device_kind(outputs) -> str:
    """The kind of a device's members, read off its (dim, classical) outputs;
    a pair is exactly a measurement and then a channel, any other mix "mixed"."""
    classical = [c for _, c in outputs]
    if all(classical) or not any(classical):
        return "measurements" if all(classical) else "channels"
    return "pair" if classical == [True, False] else "mixed"


def require_size(d_in: int, outputs) -> int:
    """``core_bytes`` of the joint device of (d_in, outputs), from them alone; ``ContractError``
    if it is over ``MAX_CORE_BYTES``."""
    sides = [d_in] + [s for dim, classical in outputs for s in ([d_in] * dim if classical else [dim * d_in])]
    figure = core_bytes(sides, prod(d for d, c in outputs if c), d_in * prod(d for d, c in outputs if not c))
    if figure > MAX_CORE_BYTES:
        raise ContractError(f"device too large: a solve on it needs {figure / 2**20:,.1f} MiB of core "
                            f"arrays, over the limit of {MAX_CORE_BYTES / 2**20:,.1f} MiB")
    return figure


def device_family(members, kind: str):
    """The ``joint_device`` arguments (d_in, outputs, members) of a list or tuple of
    valid devices of ``kind`` on one input space, each a ``Povm`` (a classical
    output, its effects) or a ``ChoiMatrix`` (a quantum output, [its matrix]).
    Their size is ``joint_device``'s to limit."""
    if not isinstance(members, (list, tuple)):
        raise ContractError(f"members must be a list or tuple, got {type(members).__name__}")
    for x, m in enumerate(members):
        if not isinstance(m, (Povm, ChoiMatrix)):
            raise ContractError(f"member {x} of type {type(m).__name__} is neither a Povm nor a ChoiMatrix")
        m.validate()
    dims = sorted({m.dim if isinstance(m, Povm) else m.dim_in for m in members})
    if len(dims) != 1:
        raise ContractError(f"need one or more members on one input dimension, got input dimensions {dims}")
    outputs = [(m.outcomes, True) if isinstance(m, Povm) else (m.dim_out, False) for m in members]
    if device_kind(outputs) != kind:
        raise ContractError(f"need {kind}, got {device_kind(outputs)}: members of types "
                            f"{', '.join(type(m).__name__ for m in members)}")
    return dims[0], outputs, [m.elements if isinstance(m, Povm) else [m.matrix] for m in members]


def unit_marginal(fam: RowFamily) -> float:
    """The multiple of I that a family's marginal makes of identity blocks:
    the adjoint of the lift (dims, keep, scale) maps I to scale * I on the
    kept factors, times the side of the factors it traces out."""
    return sum(lift.scale * (lift.size // (lift.arg_dim or 1)) for _, lift in fam.terms)


@dataclass
class JointDevice:
    """A channel on C^d_in with one output per member, each quantum or
    classical (``outputs``: (dim, classical) pairs), described once for every
    program on it by ``joint_device``.

    ``labels``: each block's member values, the outcome of a classical member
    and 0 of a quantum one.  ``members``: one ``RowFamily`` per member
    operator, a classical member's value by value, with the operator as rhs
    (None without member operators).  ``norm``: the input marginal
    Sigma = t * I / k, rhs I / k; the blocks are effects (k = 1) when every
    output is classical, Choi matrices (k = d_in) otherwise."""

    d_in: int
    outputs: list
    labels: list[tuple[int, ...]]
    members: list[RowFamily]
    norm: RowFamily

    @property
    def quantum(self) -> list[int]:
        return [dim for dim, classical in self.outputs if not classical]

    @property
    def k(self) -> int:
        return self.d_in if self.quantum else 1

    @property
    def kind(self) -> str:
        return device_kind(self.outputs)

    @property
    def blocks(self) -> list[int]:
        return [self.d_in * prod(self.quantum)] * len(self.labels)

    def _by_member(self, items) -> list[list]:
        """``items``, one per member family, grouped by member."""
        it = iter(items)
        return [[next(it) for _ in range(dim if classical else 1)] for dim, classical in self.outputs]

    @property
    def particular(self) -> list:
        """Joint blocks that solve the member equations,
        g = sum_x member_x / prod_{y != x} dim_y - (n - 1) I / (k prod_y dim_y),
        with each member as it appears in the blocks."""
        k, quantum, inp = self.k, self.quantum, self.norm.terms[0][1]
        total = prod(dim for dim, _ in self.outputs)
        terms = [[(inp(f.rhs.T / k if quantum else f.rhs) if classical else f.terms[0][1](f.rhs))
                  / (total // dim) for f in fams]
                 for (dim, classical), fams in zip(self.outputs, self._by_member(self.members))]
        side = self.blocks[0]
        shift = (len(self.outputs) - 1) * np.eye(side) / (k * total)
        particular = []
        for l in self.labels:
            g = np.zeros((side, side), dtype=complex)
            for x, term in enumerate(terms):
                g += term[l[x]]
            particular.append(g - shift)
        return particular

    def robustness_start(self):
        """Strictly feasible robustness point: joint blocks c * I, noise blocks
        c * unit_marginal(member) * I - member, positive definite, and t."""
        if self.kind == "channels":
            # not c = 2 / min unit_marginal as for every other device: that c takes
            # the channel-ladder bench from 91 to 87-88 iterations but its accuracy
            # from 8.12 to 7.67 digits; a cold start takes 15-31 % more iterations.
            # Member x's noise block is >= (2 max(dims) / dim_x - 1) top * I + I / (d dim_x)
            top = max(np.linalg.eigvalsh(fam.rhs)[-1] for fam in self.members)
            c = (2.0 * max(self.quantum) * self.d_in * top + 1.0) / self.blocks[0]
        else:
            c = 2.0 / min(map(unit_marginal, self.members))
        joint = [c * np.eye(n) for n in self.blocks]
        noise = [c * unit_marginal(fam) * np.eye(fam.dim) - fam.rhs for fam in self.members]
        return joint, noise, c * unit_marginal(self.norm) * self.k

    def joint(self, blocks):
        """Solver blocks snapped to the joint device: a POVM, a joint channel
        or, with outputs of both kinds, an instrument."""
        d, quantum = self.d_in, self.quantum
        if self.kind == "measurements":
            return snap_povm(blocks)
        if self.kind == "channels":
            return JointChannel(d, quantum, snap_choi_matrix(blocks[0], d))
        return snap_instrument(blocks, d)

    def noise(self, blocks):
        """Noise blocks snapped to a POVM per classical member and a channel
        per quantum one; a ``PovmCollection`` when all are classical."""
        out = [snap_povm(bs) if classical else ChoiMatrix(self.d_in, dim, snap_choi_matrix(bs[0], self.d_in))
               for (dim, classical), bs in zip(self.outputs, self._by_member(blocks))]
        return out if self.quantum else PovmCollection(out)


def joint_device(d_in: int, outputs, members=None) -> JointDevice:
    """The joint device of a channel on C^d_in with one output per member,
    ``outputs`` its (dim, classical) pairs.  Its blocks act on (the quantum
    outputs, in member order) (x) (input), one block per tuple of classical
    values, in ``assignments`` order.

    Member x is the marginal on (out_x) (x) (input) if quantum; if classical,
    value i is the sum of the blocks with that value, an effect as it is when
    every output is classical and d_in (Tr_out J)^T of Choi blocks J
    otherwise.  ``members`` lists each member's operators: its effects if
    classical, its one Choi matrix if quantum.  First of all, ``require_size`` refuses a
    device too large to solve."""
    require_size(d_in, outputs)
    quantum = [dim for dim, classical in outputs if not classical]
    factors, nq, k = (*quantum, d_in), len(quantum), (d_in if quantum else 1)
    labels = assignments([dim if classical else 1 for dim, classical in outputs])
    inp, blank = Lift(factors, (nq,)), [[None] * (dim if classical else 1) for dim, classical in outputs]
    fams, position = [], itertools.count()  # position: of the next quantum output
    for x, ((_, classical), ops) in enumerate(zip(outputs, members or blank)):
        lift = (Lift(factors, (nq,), transpose=bool(quantum), scale=k) if classical
                else Lift(factors, (next(position), nq)))
        fams += [RowFamily(lift.arg_dim, [(b, lift) for b, l in enumerate(labels) if l[x] == i], v)
                 for i, v in enumerate(ops)]
    norm = RowFamily(d_in, [(b, inp) for b in range(len(labels))], np.eye(d_in) / k)
    return JointDevice(d_in, list(outputs), labels, fams, norm)


@dataclass
class CompatibilityVerdict:
    compatible: bool
    margin: float
    joint: object | None

    def to_json(self) -> dict:
        joint = self.joint.to_json() if self.joint is not None else None
        return {"compatible": self.compatible, "margin": float(self.margin), "joint": joint}


def max_margin_check(d_in: int, outputs, members,
                     options: SolveOptions | None = None) -> CompatibilityVerdict:
    """The max-margin program of the member equations of
    ``joint_device(d_in, outputs, members)``.  Their input marginals already
    fix the normalization, so no row is spent on it.

    A classical value whose effect is zero to ``TOL`` is left out: the blocks
    that sum to it would have to be >= t * I, which caps the margin of a
    compatible collection at 0 and relaxes it on an incompatible one.  The
    joint has zero blocks at the labels of those values, so it keeps the
    input's outcome order."""
    require_size(d_in, outputs)
    kept = [[i for i, m in enumerate(ms) if np.abs(m).max() > TOL] for ms in members]
    device = joint_device(d_in, [(len(at) if classical else dim, classical)
                                 for (dim, classical), at in zip(outputs, kept)],
                          [[ms[i] for i in at] for ms, at in zip(members, kept)])
    particular = device.particular
    floor = min(np.linalg.eigvalsh(g)[0] for g in particular)
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
    start = [g - (u0 - t0) * np.eye(g.shape[0]) for g in particular]
    sol = solve(prob, options, initial_blocks=start, initial_scalars=[u0])
    require_optimal(sol, f"{device.kind} compatibility")
    margin = sol.scalar_values[0] - t0
    compatible = bool(margin >= -10 * (options or SolveOptions()).feas_tol)
    joint = None
    if compatible:
        blocks = dict(zip(itertools.product(*kept), (hermitize(b) + margin * np.eye(b.shape[0])
                                                     for b in sol.block_values)))
        zero = np.zeros((device.blocks[0],) * 2, dtype=complex)
        labels = assignments([dim if classical else 1 for dim, classical in outputs])
        joint = device.joint([blocks.get(l, zero) for l in labels])
    return CompatibilityVerdict(compatible, margin, joint)


def check_measurements(collection: PovmCollection,
                       options: SolveOptions | None = None) -> CompatibilityVerdict:
    """Decide whether all measurements arise from one parent measurement."""
    return max_margin_check(*device_family(collection.povms, "measurements"), options)


def check_channels(channels, options: SolveOptions | None = None) -> CompatibilityVerdict:
    """Decide whether the channels are marginals of one joint channel."""
    return max_margin_check(*device_family(channels, "channels"), options)


def check_pair(povm: Povm, channel: ChoiMatrix,
               options: SolveOptions | None = None) -> CompatibilityVerdict:
    """Decide whether one instrument induces both the measurement and the channel."""
    return max_margin_check(*device_family([povm, channel], "pair"), options)
