"""Generalized robustness of incompatibility and its dual witnesses.

For a collection of channels (or measurements, or a measurement-channel
pair), the robustness is the least s such that mixing every member with
weight s/(1+s) of some arbitrary noise collection makes the result
compatible.  Three conic programs compute it:

* the primal searches for a scaled joint object dominating the inputs
  marginal by marginal; its optimal value is 1 + s and its blocks yield the
  noise collection and the certifying compatible mixture;
* the dual maximizes a linear functional over witness operators normalized
  so that every compatible collection scores at most one; its optimum equals
  the primal's by strong duality (both cones have strictly feasible points,
  which are also injected as solver starting points).

The primal is generated from the one joint-device description in
``compat``, a channel whose outputs may be classical; each dual is coded by
hand, taking only its starting point from that description.  The two routes
are solved separately, so agreement of their values is a genuine numerical
cross-check, reported as ``gap``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .compat import (
    JointDevice,
    assignments,
    channel_family,
    joint_device,
    measurement_family,
    pair_family,
)
from .linalg import ContractError, Lift, hermitize, matrix_to_json
from .qobjects import ChoiMatrix, Povm, PovmCollection, pad_choi, qc_channel
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

    def evaluate(self, *objects) -> float:
        """Witness functional on a collection of the matching kind."""
        if self.kind == "channels":
            (chois,) = objects
            return float(
                sum(np.trace(a @ c.matrix).real for a, c in zip(self.channel_ops, chois))
            )
        if self.kind == "measurements":
            (collection,) = objects
            total = 0.0
            for ops, povm in zip(self.measurement_ops, collection.povms):
                for a, m in zip(ops, povm.elements):
                    total += np.trace(a @ m).real
            return float(total)
        if self.kind == "pair":
            povm, choi = objects
            total = sum(
                np.trace(a @ m).real for a, m in zip(self.pair_measure_ops, povm.elements)
            )
            total += np.trace(self.pair_channel_op @ choi.matrix).real
            return float(total)
        raise ContractError(f"unknown witness kind {self.kind!r}")

    def to_json(self) -> dict:
        out = {"kind": self.kind, "value": self.value}
        if self.channel_ops is not None:
            out["channel_ops"] = [matrix_to_json(a) for a in self.channel_ops]
        if self.measurement_ops is not None:
            out["measurement_ops"] = [
                [matrix_to_json(a) for a in row] for row in self.measurement_ops
            ]
        if self.pair_measure_ops is not None:
            out["pair_measure_ops"] = [matrix_to_json(a) for a in self.pair_measure_ops]
        if self.pair_channel_op is not None:
            out["pair_channel_op"] = matrix_to_json(self.pair_channel_op)
        return out


@dataclass
class RobustnessReport:
    kind: str
    primal_value: float
    dual_value: float
    gap: float
    witness: WitnessSet
    noise: object | None
    mixture_joint: object
    solver: dict

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


class _DualForm:
    """Assemble a standard-form problem whose Lagrange dual is the witness
    program: maximize sum of weights against Hermitian parameters subject to
    slack blocks F0 + sum_k y_k F_k >= 0.  Each parameter is a ``RowFamily``
    with its weight as rhs, holding each ``Lift`` into a slack block negated."""

    def __init__(self):
        self.blocks: list[int] = []
        self.objective: list[np.ndarray] = []
        self.real: set[int] = set()
        self.params: list[RowFamily] = []

    def slack(self, dim, f0, real=False) -> int:
        self.blocks.append(dim)
        self.objective.append(np.asarray(f0, dtype=complex))
        if real:
            self.real.add(len(self.blocks) - 1)
        return len(self.blocks) - 1

    def param(self, dim, weight=None) -> int:
        self.params.append(RowFamily(dim, [], weight))
        return len(self.params) - 1

    def couple(self, param, block, lift):
        self.params[param].terms.append((block, -lift))

    def problem(self) -> SdpProblem:
        return SdpProblem(blocks=list(self.blocks), objective=list(self.objective),
                          real_blocks=frozenset(self.real), families=self.params)


def robustness_primal(kind: str, device: JointDevice, dual,
                      options: SolveOptions | None = None) -> RobustnessReport:
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
    require_optimal(sol, f"{device.name} robustness primal")

    t = sol.scalar_values[0]
    r = sol.primal_value - 1.0
    witness = dual()
    mixture = device.joint([b / t for b in sol.block_values[:nj]])
    noise = None
    if r > ZERO_NOISE_TOL:
        noise = device.noise([b / r for b in sol.block_values[nj:]])
    opts = options or SolveOptions()
    return RobustnessReport(
        kind=kind,
        primal_value=r,
        dual_value=witness.value,
        gap=abs(r - witness.value),
        witness=witness,
        noise=noise,
        mixture_joint=mixture,
        solver={"primal_iterations": sol.iterations, "dual_iterations": witness.iterations,
                "feas_tol": opts.feas_tol, "gap_tol": opts.gap_tol},
    )


def robustness_channels_primal(channels, options: SolveOptions | None = None) -> RobustnessReport:
    """Robustness of a channel collection, with noise and mixture reconstruction."""
    return robustness_primal("channels", joint_device(*channel_family(channels)),
                             lambda: robustness_channels_dual(channels, options), options)


def robustness_channels_dual(channels, options: SolveOptions | None = None) -> WitnessSet:
    """Witness operators certifying the robustness of a channel collection."""
    d, outputs, chois = channel_family(channels)
    n, dp = len(outputs), outputs[0][0]
    full, factors = dp**n * d, (dp,) * n + (d,)

    df = _DualForm()
    z = df.slack(full, np.zeros((full, full)))
    ps = [df.slack(dp * d, np.zeros((dp * d, dp * d))) for _ in range(n)]
    u = df.slack(1, np.array([[float(d)]]), real=True)
    for x in range(n):
        a = df.param(dp * d, weight=chois[x])
        df.couple(a, z, -Lift(factors, (x, n)))
        df.couple(a, ps[x], Lift.identity(dp * d))
    yv = df.param(d)
    df.couple(yv, z, Lift(factors, (n,)))
    df.couple(yv, u, Lift.trace(-1.0))

    joint, noise, t = joint_device(d, outputs, chois).robustness_start()
    sol = solve(df.problem(), options, initial_blocks=joint + noise + [np.array([[t / d]])])
    require_optimal(sol, "channel robustness dual")
    ops = [hermitize(sol.dual_blocks[p]) for p in ps]
    return WitnessSet("channels", sol.dual_value - 1.0, channel_ops=ops,
                      iterations=sol.iterations)


def robustness_measurements(collection: PovmCollection,
                            options: SolveOptions | None = None) -> RobustnessReport:
    """Robustness of a measurement collection, primal and dual routes."""
    return robustness_primal("measurements", joint_device(*measurement_family(collection)),
                             lambda: _measurements_dual(collection, options), options)


def _measurements_dual(collection: PovmCollection,
                       options: SolveOptions | None = None) -> WitnessSet:
    d, povms = collection.dim, collection.povms
    counts = [p.outcomes for p in povms]
    lam = assignments(counts)

    df = _DualForm()
    zs = [df.slack(d, np.zeros((d, d))) for _ in lam]
    ps = [[df.slack(d, np.zeros((d, d))) for _ in range(o)] for o in counts]
    u = df.slack(1, np.array([[1.0]]), real=True)
    same = Lift.identity(d)
    for x, p in enumerate(povms):
        for i, m in enumerate(p.elements):
            a = df.param(d, weight=m)
            for k, l in enumerate(lam):
                if l[x] == i:
                    df.couple(a, zs[k], -same)
            df.couple(a, ps[x][i], same)
    yv = df.param(d)
    for k in range(len(lam)):
        df.couple(yv, zs[k], same)
    df.couple(yv, u, Lift.trace(-1.0))

    outputs = [(o, True) for o in counts]
    joint, noise, t = joint_device(d, outputs, [p.elements for p in povms]).robustness_start()
    sol = solve(df.problem(), options, initial_blocks=joint + noise + [np.array([[t]])])
    require_optimal(sol, "measurement robustness dual")
    ops = [[hermitize(sol.dual_blocks[b]) for b in row] for row in ps]
    return WitnessSet("measurements", sol.dual_value - 1.0, measurement_ops=ops,
                      iterations=sol.iterations)


def robustness_measurements_dual(collection: PovmCollection,
                                 options: SolveOptions | None = None) -> WitnessSet:
    measurement_family(collection)
    return _measurements_dual(collection, options)


def robustness_pair_primal(povm: Povm, channel: ChoiMatrix,
                           options: SolveOptions | None = None) -> RobustnessReport:
    """Robustness of a measurement-channel pair, with reconstruction."""
    return robustness_primal("pair", joint_device(*pair_family(povm, channel)),
                             lambda: robustness_pair_dual(povm, channel, options), options)


def robustness_pair_dual(povm: Povm, channel: ChoiMatrix,
                         options: SolveOptions | None = None) -> WitnessSet:
    """Witness operators certifying the robustness of a pair."""
    d, outputs, members = pair_family(povm, channel)
    (o, _), (dp, _) = outputs
    full = dp * d

    df = _DualForm()
    zs = [df.slack(full, np.zeros((full, full))) for _ in range(o)]
    pa = [df.slack(d, np.zeros((d, d))) for _ in range(o)]
    pb = df.slack(full, np.zeros((full, full)))
    u = df.slack(1, np.array([[float(d)]]), real=True)
    for i in range(o):
        a = df.param(d, weight=povm.elements[i])
        df.couple(a, zs[i], Lift((dp, d), (1,), transpose=True, scale=-d))
        df.couple(a, pa[i], Lift.identity(d))
    bb = df.param(full, weight=channel.matrix)
    for i in range(o):
        df.couple(bb, zs[i], -Lift.identity(full))
    df.couple(bb, pb, Lift.identity(full))
    yv = df.param(d)
    for i in range(o):
        df.couple(yv, zs[i], Lift((dp, d), (1,)))
    df.couple(yv, u, Lift.trace(-1.0))

    joint, noise, t = joint_device(d, outputs, members).robustness_start()
    sol = solve(df.problem(), options, initial_blocks=joint + noise + [np.array([[t / d]])])
    require_optimal(sol, "pair robustness dual")
    a_ops = [hermitize(sol.dual_blocks[p]) for p in pa]
    b_op = hermitize(sol.dual_blocks[pb])
    return WitnessSet("pair", sol.dual_value - 1.0,
                      pair_measure_ops=a_ops, pair_channel_op=b_op,
                      iterations=sol.iterations)


def verify_prop1(collection: PovmCollection,
                 options: SolveOptions | None = None) -> dict:
    """Measurement robustness against the channel robustness of the
    measure-and-record channels; the two must agree."""
    rm = robustness_measurements(collection, options)
    # a channel collection shares one output dimension: pad to the most outcomes
    channels = [pad_choi(qc_channel(p), collection.outcomes) for p in collection.povms]
    rc = robustness_channels_primal(channels, options)
    return {
        "measurement_robustness": rm.primal_value,
        "channel_robustness": rc.primal_value,
        "delta": abs(rm.primal_value - rc.primal_value),
    }


def verify_prop2(povm: Povm, channel: ChoiMatrix,
                 options: SolveOptions | None = None) -> dict:
    """Pair robustness against the channel-pair robustness of the
    measure-and-record channel together with the channel itself."""
    rp = robustness_pair_primal(povm, channel, options)
    gamma = qc_channel(povm)
    dim = max(gamma.dim_out, channel.dim_out)
    rc = robustness_channels_primal([pad_choi(gamma, dim), pad_choi(channel, dim)], options)
    return {
        "pair_robustness": rp.primal_value,
        "channel_robustness": rc.primal_value,
        "delta": abs(rp.primal_value - rc.primal_value),
    }
