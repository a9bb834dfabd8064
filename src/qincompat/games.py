"""State discrimination games where incompatibility is the resource.

A referee announces a setting x and hands over a state drawn from the
ensemble for x; the player processes it and guesses which state it was.
Processing with an incompatible collection (or a measurement-channel pair)
beats every compatible strategy on the game built from the collection's own
witness operators, and the best achievable advantage ratio equals one plus
the robustness.  The denominators maximize over the compatible cone by
semidefinite programming.

The success probability is linear in the processing devices, and every score
reads that one functional: ``_kernels`` turns a game and its final
measurements into one kernel K_m per member R_m of a processing resource,
which then scores sum_m Re Tr[K_m R_m].  A channel of Choi matrix J, met by
rho on (input d) x (reference) before the effect M on (output) x (reference),
scores Tr[J K] with K[(b,j),(a,i)] = d sum_rs rho[(i,r),(j,s)] M[(b,s),(a,r)];
an unassisted game has a one-dimensional reference.  A strategy, measuring
directly as the identity channel, and the compatible optimum both read it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compat import JointDevice, joint_device, unit_marginal
from .linalg import (
    TOL,
    ContractError,
    DimensionError,
    hermitize,
    json_list,
    json_number,
    json_object,
    matrix_from_json,
    matrix_to_json,
    op_norm,
    partial_trace,
    require_hermitian,
    require_psd,
)
from .qobjects import (
    ChoiMatrix,
    Povm,
    PovmCollection,
    cloning_channel,
    marginal,
    max_entangled_state,
    random_povm,
    random_state,
)
from .robustness import WitnessSet
from .sdp import SdpProblem, SolveOptions, require_optimal, solve

PROB_TOL = 1e-12
WITNESS_DROP_TOL = 1e-10


class DegenerateWitnessError(ContractError):
    """The witness is numerically zero, so no game can be built from it."""


@dataclass(eq=False)
class DiscriminationGame:
    """Ensembles of states indexed by a setting, with priors.

    ``ensembles[x]`` is a list of ``(p(i|x), state)`` pairs; states live on
    the base space for unassisted games and on base x base when ``assisted``.
    """

    prior: np.ndarray
    ensembles: list
    assisted: bool = False

    def __post_init__(self):
        self.prior = np.asarray(self.prior, dtype=float)
        self.ensembles = [
            [(float(p), np.asarray(rho, dtype=complex)) for p, rho in ens]
            for ens in self.ensembles
        ]
        if self.prior.ndim != 1 or len(self.ensembles) != self.prior.size:
            raise DimensionError("one ensemble per prior entry required")

    @property
    def n(self) -> int:
        return self.prior.size

    @property
    def state_dim(self) -> int:
        return self.ensembles[0][0][1].shape[0]

    def validate(self) -> "DiscriminationGame":
        # the probability tests are phrased so that NaN fails them
        if not (np.all(self.prior >= -PROB_TOL) and abs(self.prior.sum() - 1) <= PROB_TOL):
            raise ContractError("setting prior is not a probability distribution")
        if not all(self.ensembles):
            raise ContractError("every setting needs at least one state")
        sd = self.state_dim
        for x, ens in enumerate(self.ensembles):
            ps = np.array([p for p, _ in ens])
            if not (np.all(ps >= -PROB_TOL) and abs(ps.sum() - 1) <= PROB_TOL):
                raise ContractError(f"conditional distribution for setting {x} is invalid")
            for i, (_, rho) in enumerate(ens):
                if rho.shape != (sd, sd):
                    raise DimensionError("all states must share one space")
                what = f"state {i}|{x}"  # Hermitian to TOL, then PSD once symmetrized
                rho = require_psd(require_hermitian(rho, TOL, what=what), what)
                if abs(np.trace(rho).real - 1) > TOL:
                    raise ContractError(f"{what} is not normalized")
        return self

    def to_json(self) -> dict:
        return {
            "kind": "game",
            "assisted": self.assisted,
            "prior": self.prior.tolist(),
            "ensembles": [
                [{"p": p, "state": matrix_to_json(rho)} for p, rho in ens]
                for ens in self.ensembles
            ],
        }

    @staticmethod
    def from_json(obj) -> "DiscriminationGame":
        obj = json_object(obj, "game")

        def entry(e, what):
            e = json_object(e, what)
            return json_number(e["p"], f"{what} field 'p'"), matrix_from_json(e["state"])

        game = DiscriminationGame(
            prior=[json_number(p, f"game field 'prior' entry {x}")
                   for x, p in enumerate(json_list(obj["prior"], "game field 'prior'"))],
            ensembles=[
                [entry(e, f"game setting {x} entry {i}")
                 for i, e in enumerate(json_list(ens, f"game setting {x}"))]
                for x, ens in enumerate(json_list(obj["ensembles"], "game field 'ensembles'"))
            ],
            assisted=obj["assisted"],
        )
        if not isinstance(game.assisted, bool):
            raise ContractError(f"game field 'assisted' must be a boolean, got {game.assisted!r}")
        return game.validate()


@dataclass(eq=False)
class Strategy:
    """What the player does per setting.

    Either ``measurements`` (one POVM per setting, after the optional
    ``preprocess`` channels), or ``pair_mode = (povm, channel, final_povm)``
    for the two-ensemble task where setting 1 is measured directly and
    setting 2 is preprocessed and then measured with ``final_povm``.  A
    template returned by the witness constructions has the first two entries
    of ``pair_mode`` unset."""

    preprocess: list | None = None
    measurements: PovmCollection | None = None
    pair_mode: tuple | None = None

    def with_pair(self, povm: Povm, channel: ChoiMatrix) -> "Strategy":
        if self.pair_mode is None:
            raise ContractError("not a pair-mode strategy template")
        return Strategy(pair_mode=(povm, channel, self.pair_mode[2]))


def _final_measurements(strat: Strategy) -> tuple[str, PovmCollection]:
    """A strategy's kind, "channels" or "pair", and its final measurements."""
    if strat.pair_mode is not None:
        povm, channel, final = strat.pair_mode
        if povm is None or channel is None:
            raise ContractError("pair-mode strategy template is not filled in")
        return "pair", PovmCollection([final])
    if strat.measurements is None:
        raise ContractError("strategy carries no measurements")
    return "channels", strat.measurements


def _score(strat: Strategy, device: JointDevice, coeffs) -> float:
    """sum_m Re Tr[K_m R_m] over the strategy's devices R_m, their dimensions checked
    first: a flattened product would not tell C^3 -> C^2 from C^2 -> C^3."""
    d, dp = device.d_in, device.quantum[-1]
    effects, channels = [], strat.preprocess
    if strat.pair_mode is not None:
        povm, channel, _ = strat.pair_mode
        effects, channels = povm.elements, [channel]
        if povm.outcomes != device.outputs[0][0]:
            raise DimensionError("ensemble size and measurement outcomes differ")
        if povm.dim != d:
            raise DimensionError(f"state and effect dimensions differ: the measurement "
                                 f"acts on C^{povm.dim}, the game on C^{d}")
    elif channels is None:
        omega = np.eye(d).ravel() / np.sqrt(d)  # identity_channel needs d >= 2
        channels = [ChoiMatrix(d, d, np.outer(omega, omega))] * len(coeffs)
    elif len(channels) != len(coeffs):
        raise DimensionError("one preprocessing channel per setting required")
    for x, c in enumerate(channels):
        if (c.dim_in, c.dim_out) != (d, dp):
            raise DimensionError(f"state and effect dimensions differ: channel {x} maps "
                                 f"C^{c.dim_in} to C^{c.dim_out}, the game needs C^{d} to C^{dp}")
    members = [*effects, *(c.matrix for c in channels)]
    return float(sum(np.einsum("ij,ji->", k, r).real for k, r in zip(coeffs, members)))


def success_prob(game: DiscriminationGame, strat: Strategy) -> float:
    """Average probability of guessing the drawn state's label."""
    kind, meas = _final_measurements(strat)
    return _score(strat, *_kernels(game, meas, kind))


def _kernel(rho, m, d: int, dp: int, db: int) -> np.ndarray:
    """The kernel K of the module docstring: Tr[J K] = Tr[(channel x id)(rho) m],
    with rho on (input d) x (reference db) and m on (output dp) x (reference)."""
    k = np.einsum("irjs,bsar->bjai", rho.reshape(d, db, d, db), m.reshape(dp, db, dp, db))
    return hermitize(d * k.reshape(dp * d, dp * d))


def _kernels(game: DiscriminationGame, meas: PovmCollection, kind: str):
    """The joint device of the compatible resources of ``kind`` (see
    ``best_compatible_success``) and one kernel per member of the device."""
    game.validate()
    if kind == "channels":
        if meas.n != game.n:
            raise DimensionError("one measurement per setting required")
    elif kind == "pair":
        if meas.n != 1:
            raise DimensionError("pair games use a single final measurement")
        if game.n != 2 or not game.assisted:
            raise ContractError("pair games have two ensembles of assisted states")
    else:
        raise ContractError(f"unknown strategy kind {kind!r}")
    d, dp, db = game.state_dim, meas.dim, 1
    if game.assisted:  # states on base x base, measurements on output x base
        d = db = int(round(np.sqrt(game.state_dim)))
        if d * d != game.state_dim:
            raise DimensionError("assisted games need states on a square space")
        if meas.dim % d:
            raise DimensionError("measurement space must factor as output x base")
        dp = meas.dim // d

    def kernel(x, povm):
        if len(game.ensembles[x]) != povm.outcomes:
            raise DimensionError("ensemble size and measurement outcomes differ")
        kx = np.zeros((dp * d, dp * d), dtype=complex)
        for (p, rho), m in zip(game.ensembles[x], povm.elements):
            if p != 0.0:
                kx += p * _kernel(rho, m, d, dp, db)
        return game.prior[x] * kx

    if kind == "channels":
        coeffs = [kernel(x, povm) for x, povm in enumerate(meas.povms)]
        return joint_device(d, [(dp, False)] * game.n), coeffs
    # the instrument's measurement meets setting 1, its channel setting 2
    first = game.ensembles[0]
    coeffs = [game.prior[0] * p * partial_trace(rho, (d, d), (0,)) for p, rho in first]
    return joint_device(d, [(len(first), True), (dp, False)]), coeffs + [kernel(1, meas.povms[0])]


def best_compatible_program(device: JointDevice, coeffs,
                            options: SolveOptions | None, what: str) -> float:
    """Best score of a compatible resource -- the marginals of one joint
    device -- generated from the device's description: maximize
    sum_m Tr[coeffs[m] marginal_m(G)] over G >= 0 with input marginal I / k."""
    objective = [np.zeros((n, n), dtype=complex) for n in device.blocks]
    for fam, k in zip(device.members, coeffs):
        for b, lift in fam.terms:
            objective[b] = objective[b] - lift(k)
    prob = SdpProblem(blocks=list(device.blocks), objective=objective, families=[device.norm])
    scale = unit_marginal(device.norm) * device.k
    sol = solve(prob, options, initial_blocks=[np.eye(n) / scale for n in device.blocks])
    require_optimal(sol, what)
    return float(-sol.primal_value)


def best_compatible_success(game: DiscriminationGame, meas: PovmCollection,
                            kind: str = "channels",
                            options: SolveOptions | None = None) -> float:
    """Maximum success probability over compatible processing resources.

    ``kind="channels"``: the player preprocesses with an arbitrary compatible
    channel collection before measuring with ``meas``.  ``kind="pair"``: the
    player uses an arbitrary instrument; its measurement answers setting 1
    and its total channel feeds the single POVM in ``meas`` for setting 2.
    """
    device, coeffs = _kernels(game, meas, kind)
    return best_compatible_program(device, coeffs, options, f"compatible-best ({kind})")


def _witness_measurement(a, norm: float, dim: int) -> list:
    """Effects of the two-outcome witness measurement [a / |a|, I - a / |a|],
    or [I, 0] when the witness operator is numerically zero."""
    eye = np.eye(dim)
    if norm < WITNESS_DROP_TOL:
        return [eye, np.zeros_like(eye)]
    return [a / norm, eye - a / norm]


def game_from_channel_witness(witness: WitnessSet, d: int, dp: int):
    """Game and measurements realizing the witness functional, from the
    optimal-discrimination construction: per setting a two-outcome
    measurement normalized by the witness operator's norm, played on a
    maximally entangled state."""
    if witness.kind != "channels":
        raise ContractError("need a channel-kind witness")
    ops = [hermitize(np.asarray(a, dtype=complex)) for a in witness.channel_ops]
    norms = [op_norm(a) for a in ops]
    total = sum(norms)
    if total < WITNESS_DROP_TOL:
        raise DegenerateWitnessError("all witness operators are numerically zero")
    psi = max_entangled_state(d)
    junk = np.eye(d * d) / (d * d)
    game = DiscriminationGame(
        prior=[0.0 if na < WITNESS_DROP_TOL else na / total for na in norms],
        ensembles=[[(1.0, psi), (0.0, junk)]] * len(ops),
        assisted=True,
    )
    return game.validate(), PovmCollection(
        [Povm(_witness_measurement(a, na, dp * d)) for a, na in zip(ops, norms)])


def game_from_pair_witness(witness: WitnessSet, d: int, dp: int):
    """Two-ensemble game and a pair-mode strategy template from a pair
    witness: setting 1 presents the normalized measurement-witness operators,
    setting 2 presents a maximally entangled state answered with the
    normalized channel-witness two-outcome measurement."""
    if witness.kind != "pair":
        raise ContractError("need a pair-kind witness")
    a_ops = [hermitize(np.asarray(a, dtype=complex)) for a in witness.pair_measure_ops]
    b_op = hermitize(np.asarray(witness.pair_channel_op, dtype=complex))
    traces = [max(np.trace(a).real, 0.0) for a in a_ops]
    total1 = sum(traces)
    bnorm = op_norm(b_op)
    denom = total1 + bnorm
    if denom < WITNESS_DROP_TOL:
        raise DegenerateWitnessError("witness is numerically zero")
    o = max(len(a_ops), 2)
    junk = np.eye(d * d) / (d * d)
    mixed = np.eye(d) / d

    first = []
    for a, t in zip(a_ops, traces):
        if total1 < WITNESS_DROP_TOL:
            first.append((1.0 / len(a_ops), junk))
        elif t < WITNESS_DROP_TOL:
            first.append((0.0, junk))
        else:
            first.append((t / total1, np.kron(a / t, mixed)))
    second = [(1.0, max_entangled_state(d))] + [(0.0, junk)] * (o - 1)

    unused = [np.zeros((dp * d, dp * d))] * (o - 2)
    final = Povm(_witness_measurement(b_op, bnorm, dp * d) + unused)

    game = DiscriminationGame(
        prior=[total1 / denom, bnorm / denom],
        ensembles=[first, second],
        assisted=True,
    )
    return game.validate(), Strategy(pair_mode=(None, None, final))


def advantage_ratio(game: DiscriminationGame, meas: PovmCollection,
                    resource_strategy: Strategy, kind: str = "channels",
                    options: SolveOptions | None = None) -> float:
    """Success of the given strategy over the best compatible one, both
    followed by ``meas``: the strategy must be of ``kind`` and measure with
    ``meas``."""
    own_kind, own = _final_measurements(resource_strategy)
    if own_kind != kind or own.n != meas.n or not all(
            np.array_equal(p.elements, q.elements) for p, q in zip(own.povms, meas.povms)):
        raise ContractError(f"the strategy is not a {kind} strategy that measures with meas")
    device, coeffs = _kernels(game, meas, kind)
    num = _score(resource_strategy, device, coeffs)
    den = best_compatible_program(device, coeffs, options, f"compatible-best ({kind})")
    if den <= 0:
        raise ContractError("compatible strategies score zero on this game")
    return num / den


def random_game(d: int, settings: int, outcomes: int, rng,
                assisted: bool = False) -> DiscriminationGame:
    sd = d * d if assisted else d
    prior = rng.dirichlet(np.ones(settings))
    ensembles = [
        [(p, random_state(sd, rng)) for p in rng.dirichlet(np.ones(outcomes))]
        for _ in range(settings)
    ]
    return DiscriminationGame(prior=prior, ensembles=ensembles, assisted=assisted)


def unassisted_bound_check(d: int, trials: int, rng_seed: int = 0,
                           options: SolveOptions | None = None) -> dict:
    """Empirically confirm that identity channels, played without an
    entangled reference, cannot beat compatible preprocessing by more than
    2(d+1)/(d+3) on random two-ensemble discrimination games.

    Each trial checks the full chain: the ratio against the optimal
    compatible strategy is at most the ratio against the optimal-cloning
    marginals, which stays below the bound.  The bound sits strictly under
    the entangled-game value 2d/(d+1), so the gap certifies that the
    entangled reference is doing real work."""
    if d < 2:
        raise DimensionError("need dimension at least 2")
    if trials < 1:
        raise ContractError(f"need at least one sampled game, got trials={trials}")
    rng = np.random.default_rng(rng_seed)
    bound = 2 * (d + 1) / (d + 3)
    clone = cloning_channel(d)
    clones = [marginal(clone, 1), marginal(clone, 2)]
    max_ratio = 0.0
    for _ in range(trials):
        game = random_game(d, 2, 2, rng)
        meas = PovmCollection([random_povm(d, 2, rng) for _ in range(2)])
        device, coeffs = _kernels(game, meas, "channels")
        p_id = _score(Strategy(measurements=meas), device, coeffs)  # the identity channels
        p_clone = _score(Strategy(preprocess=clones, measurements=meas), device, coeffs)
        p_best = best_compatible_program(device, coeffs, options, "compatible-best (channels)")
        if p_clone <= 0 or p_best <= 0:
            raise ContractError("degenerate sampled game")
        ratio = p_id / p_best
        chain = p_id / p_clone
        if ratio > chain + 1e-9:
            raise ContractError("compatible optimum fell below the cloning strategy")
        if chain > bound + 1e-6:
            raise ContractError("sampled ratio exceeded the unassisted bound")
        max_ratio = max(max_ratio, ratio)
    assisted_value = 2 * d / (d + 1)
    return {
        "dim": d,
        "trials": trials,
        "seed": rng_seed,
        "max_ratio": float(max_ratio),
        "bound": float(bound),
        "assisted_value": float(assisted_value),
        "gap": float(assisted_value - bound),
    }
