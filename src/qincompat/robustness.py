"""Generalized robustness of incompatibility and its dual witnesses.

For a collection of channels (or measurements, or a measurement-channel
pair), the robustness is the least s such that mixing every member with
weight s/(1+s) of some arbitrary noise collection makes the result
compatible.  Two conic programs compute it:

* the primal searches for a scaled joint object dominating the inputs
  marginal by marginal; its optimal value is 1 + s and its blocks yield the
  noise collection and the certifying compatible mixture;
* the dual maximizes a linear functional over witness operators normalized
  so that every compatible collection scores at most one; its optimum equals
  the primal's by strong duality (both cones have strictly feasible points,
  which are also injected as solver starting points).

The primal is generated from the one joint-device description in
``compat``, a channel whose outputs may be classical; every entry point,
the witness functional too, reads its devices of its kind through
``device_family``.  The dual is one witness program for every kind, over the
same arguments (d_in, outputs, members), coded apart from that description:
it shares only the outcome assignments and takes its starting point from
it.  The two routes are solved separately, so agreement of their values is a
genuine numerical cross-check, reported as ``gap``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from math import prod

import numpy as np

from .compat import JointDevice, assignments, device_family, joint_device
from .linalg import ContractError, DimensionError, Lift, hermitize, matrix_to_json
from .qobjects import ChoiMatrix, Povm, PovmCollection, qc_channel
from .families import RowFamily
from .sdp import SdpProblem, SolveOptions, require_optimal, solve

# below this the optimal mixing weight is numerically zero and dividing the
# slack blocks by it would amplify solver noise, so no noise is reconstructed
ZERO_NOISE_TOL = 1e-7


@dataclass
class WitnessSet:
    """Dual witness: PSD operators whose functional is at most 1 on every
    compatible collection and 1 + robustness on the certified one.

    ``value`` is the certified robustness (functional minus one);
    ``iterations`` counts the dual solve's iterations and is not part of the
    witness JSON."""

    kind: str
    value: float
    channel_ops: list | None = None
    measurement_ops: list | None = None
    pair_measure_ops: list | None = None
    pair_channel_op: np.ndarray | None = None
    iterations: int = 0

    @property
    def by_member(self) -> list[list]:
        """The witness operators grouped by member, in member order: one per
        channel, one per effect of a measurement."""
        if self.kind == "channels":
            return [[a] for a in self.channel_ops]
        if self.kind == "measurements":
            return self.measurement_ops
        if self.kind == "pair":
            return [self.pair_measure_ops, [self.pair_channel_op]]
        raise ContractError(f"unknown witness kind {self.kind!r}")

    def evaluate(self, *objects) -> float:
        """Witness functional on a collection of the matching kind: the sum
        of Tr[A m] over its member operators m, each against its witness
        operator A.  Raises ``ContractError`` unless given one collection, or
        a pair's measurement and channel, of valid devices of the witness's
        kind (``device_family``), and ``DimensionError`` unless the collection
        has the witness's count and shapes of member operators."""
        ops, pair = self.by_member, self.kind == "pair"
        if len(objects) != 1 + pair:  # a pair is its two devices, any other collection one object
            takes = "a measurement and a channel" if pair else "one collection"
            raise ContractError(f"a {self.kind} witness takes {takes}, got {len(objects)} arguments")
        devices = objects if pair else objects[0]
        devices = devices.povms if isinstance(devices, PovmCollection) else devices
        _, _, members = device_family(devices, self.kind)
        shapes, theirs = ([[np.shape(a) for a in row] for row in rows] for rows in (ops, members))
        if shapes != theirs:
            raise DimensionError(f"{self.kind} witness has operators of shapes {shapes}, "
                                 f"the collection {theirs}")
        return float(sum(np.trace(a @ m).real
                         for row_a, row_m in zip(ops, members) for a, m in zip(row_a, row_m)))

    def to_json(self) -> dict:
        def encode(ops):  # a matrix, or a list of them, or of lists of them
            return [encode(a) for a in ops] if isinstance(ops, (list, tuple)) else matrix_to_json(ops)

        out = {"kind": self.kind, "value": self.value}
        for name in ("channel_ops", "measurement_ops", "pair_measure_ops", "pair_channel_op"):
            if getattr(self, name) is not None:
                out[name] = encode(getattr(self, name))
        return out


@dataclass
class RobustnessReport:
    primal_value: float
    dual_value: float
    gap: float
    witness: WitnessSet
    noise: object | None
    mixture_joint: object
    solver: dict

    @property
    def kind(self) -> str:
        return self.witness.kind

    def to_json(self) -> dict:
        noise = None
        if self.noise is not None:
            if self.kind == "channels":
                noise = {"channels": [c.to_json() for c in self.noise]}
            elif self.kind == "measurements":
                noise = self.noise.to_json()
            else:
                povm, choi = self.noise
                noise = {"povm": povm.to_json(), "channel": choi.to_json()}
        joint = self.mixture_joint.to_json() if self.mixture_joint is not None else None
        return {
            "kind": self.kind,
            "robustness": self.primal_value,
            "dual": self.dual_value,
            "gap": self.gap,
            "witness": self.witness.to_json(),
            "noise": noise,
            "mixture_joint": joint,
            "solver": self.solver,
        }


def identity_pair_closed_form(d: int) -> float:
    """Robustness of two identity channels on C^d."""
    return (d - 1) / (d + 1)


def robustness_primal(device: JointDevice, dual, options: SolveOptions | None = None) -> RobustnessReport:
    """Robustness primal generated from a joint-device description.

    Minimize t over joint blocks G >= 0 and noise blocks N_m >= 0 with
    marginal_m(G) - N_m = member_m and Sigma(G) = t * I / k.  The optimum is
    1 + s, G / t the compatible mixture and N_m / s the noise; ``dual()``
    returns the independently computed witness."""
    nj = len(device.blocks)
    families = [replace(fam, terms=fam.terms + [(nj + m, -Lift.identity(fam.dim))])
                for m, fam in enumerate(device.members)]
    families.append(replace(device.norm, rhs=None,
                            scalar_terms=[(0, Lift.trace(-1.0 / device.k))]))
    dims = list(device.blocks) + [fam.dim for fam in device.members]
    prob = SdpProblem(
        blocks=dims,
        objective=[np.zeros((n, n), dtype=complex) for n in dims],
        scalar_costs=[1.0],
        families=families,
    )
    g0, n0, t0 = device.robustness_start()
    sol = solve(prob, options, initial_blocks=g0 + n0, initial_scalars=[t0])
    require_optimal(sol, f"{device.kind} robustness primal")

    t = sol.scalar_values[0]
    r = sol.primal_value - 1.0
    witness = dual()
    mixture = device.joint([b / t for b in sol.block_values[:nj]])
    noise = None
    if r > ZERO_NOISE_TOL:
        noise = device.noise([b / r for b in sol.block_values[nj:]])
    opts = options or SolveOptions()
    return RobustnessReport(
        primal_value=r,
        dual_value=witness.value,
        gap=abs(r - witness.value),
        witness=witness,
        noise=noise,
        mixture_joint=mixture,
        solver={"primal_iterations": sol.iterations, "dual_iterations": witness.iterations,
                "feas_tol": opts.feas_tol, "gap_tol": opts.gap_tol},
    )


def _witness(d_in: int, outputs, members, options: SolveOptions | None):
    """The witness program of the joint device ``joint_device(d_in, outputs,
    members)``, coded apart from its primal: maximize sum_j Tr[A_j m_j] over
    A_j >= 0, one per member operator m_j (an effect per classical value, a
    Choi matrix per quantum member), and y on C^d_in with Tr y <= k, such that
    on every joint block the witnesses that meet it, lifted as the primal's
    marginals are, sum to at most I (x) y.

    The solver's Lagrange dual states it over PSD slack blocks: one per
    joint block, in ``assignments`` order, I (x) y minus the lifted
    witnesses; one per A_j, A_j itself; and the 1 x 1 block k - Tr y.  Each
    A_j and y is a ``RowFamily`` holding its lifts into those slacks negated,
    with m_j as rhs.  Returns the value, the A_j grouped by member as
    ``members`` and the iteration count."""
    device = joint_device(d_in, outputs, members)  # refuses a device too large to solve
    quantum = [dim for dim, classical in outputs if not classical]
    factors, nq, k = (*quantum, d_in), len(quantum), (d_in if quantum else 1)
    labels = assignments([dim if classical else 1 for dim, classical in outputs])
    ops, layout, position = [], [], itertools.count()  # ops: (member operator, its lift, the blocks it meets)
    for x, ((_, classical), values) in enumerate(zip(outputs, members)):
        lift = (Lift(factors, (nq,), transpose=bool(quantum), scale=k) if classical
                else Lift(factors, (next(position), nq)))
        layout.append(slice(len(ops), len(ops) + len(values)))
        ops += [(m, lift, [b for b, l in enumerate(labels) if l[x] == i]) for i, m in enumerate(values)]
    nl, u = len(labels), len(labels) + len(ops)
    blocks = [d_in * prod(quantum)] * nl + [len(m) for m, _, _ in ops] + [1]
    families = [RowFamily(len(m), [(b, lift) for b in at] + [(nl + j, -Lift.identity(len(m)))], m)
                for j, (m, lift, at) in enumerate(ops)]
    families.append(RowFamily(d_in, [(b, -Lift(factors, (nq,))) for b in range(nl)] + [(u, Lift.trace())]))
    prob = SdpProblem(blocks=blocks, objective=[np.zeros((n, n), dtype=complex) for n in blocks[:-1]]
                      + [np.array([[k]], dtype=complex)], real_blocks=frozenset([u]), families=families)

    joint, noise, t = device.robustness_start()
    sol = solve(prob, options, initial_blocks=joint + noise + [np.array([[t / k]])])
    require_optimal(sol, f"{device.kind} robustness dual")
    witness = [hermitize(sol.dual_blocks[b]) for b in range(nl, u)]
    return sol.dual_value - 1.0, [witness[at] for at in layout], sol.iterations


def robustness_channels_primal(channels, options: SolveOptions | None = None) -> RobustnessReport:
    """Robustness of a channel collection, with noise and mixture reconstruction."""
    return robustness_primal(joint_device(*device_family(channels, "channels")),
                             lambda: robustness_channels_dual(channels, options), options)


def robustness_channels_dual(channels, options: SolveOptions | None = None) -> WitnessSet:
    """Witness operators certifying the robustness of a channel collection."""
    value, ops, iterations = _witness(*device_family(channels, "channels"), options)
    return WitnessSet("channels", value, channel_ops=[a for (a,) in ops], iterations=iterations)


def robustness_measurements(collection: PovmCollection,
                            options: SolveOptions | None = None) -> RobustnessReport:
    """Robustness of a measurement collection, primal and dual routes."""
    return robustness_primal(joint_device(*device_family(collection.povms, "measurements")),
                             lambda: _measurements_dual(collection, options), options)


def _measurements_dual(collection: PovmCollection,
                       options: SolveOptions | None = None) -> WitnessSet:
    """Witness operators certifying the robustness of a measurement collection."""
    value, ops, iterations = _witness(*device_family(collection.povms, "measurements"), options)
    return WitnessSet("measurements", value, measurement_ops=ops, iterations=iterations)


robustness_measurements_dual = _measurements_dual


def robustness_pair_primal(povm: Povm, channel: ChoiMatrix,
                           options: SolveOptions | None = None) -> RobustnessReport:
    """Robustness of a measurement-channel pair, with reconstruction."""
    return robustness_primal(joint_device(*device_family([povm, channel], "pair")),
                             lambda: robustness_pair_dual(povm, channel, options), options)


def robustness_pair_dual(povm: Povm, channel: ChoiMatrix,
                         options: SolveOptions | None = None) -> WitnessSet:
    """Witness operators certifying the robustness of a pair."""
    value, (a_ops, (b_op,)), iterations = _witness(*device_family([povm, channel], "pair"), options)
    return WitnessSet("pair", value, pair_measure_ops=a_ops, pair_channel_op=b_op,
                      iterations=iterations)


def _declared_quantum(name: str, report: RobustnessReport, members, options) -> dict:
    """The robustness ``report`` of ``members`` against the channel robustness
    of the same members with every classical output declared quantum (its
    measure-and-record channel); the two must agree."""
    rc = robustness_channels_primal([qc_channel(m) if isinstance(m, Povm) else m for m in members], options)
    return {name: report.primal_value, "channel_robustness": rc.primal_value,
            "delta": abs(report.primal_value - rc.primal_value)}


def verify_prop1(collection: PovmCollection, options: SolveOptions | None = None) -> dict:
    """Measurement robustness against that of the measure-and-record channels."""
    return _declared_quantum("measurement_robustness", robustness_measurements(collection, options),
                             collection.povms, options)


def verify_prop2(povm: Povm, channel: ChoiMatrix, options: SolveOptions | None = None) -> dict:
    """Pair robustness against that of the measure-and-record channel and the channel."""
    return _declared_quantum("pair_robustness", robustness_pair_primal(povm, channel, options),
                             [povm, channel], options)
