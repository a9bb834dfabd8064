"""State discrimination games where incompatibility is the resource.

A referee announces a setting x and hands over a state drawn from the
ensemble for x; the player processes it and guesses which state it was.
Processing with an incompatible collection of channels or measurements, or
a measurement-channel pair, beats every compatible strategy on the game that
``_witness_game`` builds from its own witness operators, and the best
achievable advantage ratio equals one plus the robustness.  The denominators
maximize over the compatible cone by semidefinite programming.

The success probability is linear in the processing devices, and every score
reads that one functional: ``_kernels`` maps a kind to the outputs of its
joint device (a channel's quantum, a measurement's classical) and turns a
game into one kernel K_m per member R_m, which scores sum_m Re Tr[K_m R_m].
A classical value's kernel is prior * p * rho; a channel of Choi matrix J,
met by rho on (input d) x (reference) before the effect M on (output) x
(reference), has K[(b,j),(a,i)] = d sum_rs rho[(i,r),(j,s)] M[(b,s),(a,r)];
an unassisted game has a one-dimensional reference, and a classical kernel
traces it out.  A strategy and the compatible optimum both read the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compat import JointDevice, device_family, joint_device, require_size, unit_marginal
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


class ChainCheckError(ContractError):
    """A sampled game broke a link of ``unassisted_bound_check``; ``check`` is its (name, value, target, tol)."""

    def __init__(self, message: str, check: tuple):
        super().__init__(message)
        self.check = check


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


def _final_measurements(strat: Strategy) -> PovmCollection:
    """A strategy's final measurements: a pair's one, or those it measures with."""
    if strat.pair_mode is not None:
        povm, channel, final = strat.pair_mode
        if povm is None or channel is None:
            raise ContractError("pair-mode strategy template is not filled in")
        return PovmCollection([final])
    if strat.measurements is None:
        raise ContractError("strategy carries no measurements")
    return strat.measurements


def _score(strat: Strategy, device: JointDevice, coeffs) -> float:
    """sum_m Re Tr[K_m R_m] over the strategy's devices R_m, read by ``device_family``
    as devices of the device's kind and required to have its input and outputs."""
    d = device.d_in
    if strat.pair_mode is not None:
        resource = strat.pair_mode[:2]
    elif strat.preprocess is not None:
        resource = strat.preprocess
    elif device.quantum:
        omega = np.eye(d).ravel() / np.sqrt(d)  # identity_channel needs d >= 2
        resource = [ChoiMatrix(d, d, np.outer(omega, omega))] * len(device.outputs)
    else:
        resource = strat.measurements.povms
    d_in, outputs, members = device_family(resource, device.kind)
    if (d_in, outputs) != (d, device.outputs):
        raise DimensionError(f"the strategy's devices act on C^{d_in} with outputs {outputs}, "
                             f"the game needs C^{d} with outputs {device.outputs}")
    return float(sum(np.einsum("ij,ji->", k, r).real
                     for k, r in zip(coeffs, (m for ops in members for m in ops))))


def success_prob(game: DiscriminationGame, strat: Strategy) -> float:
    """Average probability of guessing the drawn state's label.  A strategy
    that measures directly scores as the identity channels, which on an
    unassisted game is its score as a measurement resource."""
    kind = "channels" if strat.pair_mode is None else "pair"
    return _score(strat, *_kernels(game, _final_measurements(strat), kind))


def _kernel(rho, m, d: int, dp: int, db: int) -> np.ndarray:
    """The kernel K of the module docstring: Tr[J K] = Tr[(channel x id)(rho) m],
    with rho on (input d) x (reference db) and m on (output dp) x (reference)."""
    k = np.einsum("irjs,bsar->bjai", rho.reshape(d, db, d, db), m.reshape(dp, db, dp, db))
    return hermitize(d * k.reshape(dp * d, dp * d))


def _kernels(game: DiscriminationGame, meas: PovmCollection, kind: str):
    """The joint device of the compatible resources of ``kind`` (see
    ``best_compatible_success``) and one kernel per member of the device:
    prior * p * rho, traced over the reference, per value of a classical
    member, and per channel that of its final measurement, the next in ``meas``."""
    game.validate()
    meas.validate()
    d, dp, db = game.state_dim, meas.dim, 1
    if game.assisted:  # states on base x base, measurements on output x base
        d = db = int(round(np.sqrt(game.state_dim)))
        if d * d != game.state_dim:
            raise DimensionError("assisted games need states on a square space")
        if meas.dim % d:
            raise DimensionError("measurement space must factor as output x base")
        dp = meas.dim // d
    if kind == "pair" and (game.n != 2 or not game.assisted):
        raise ContractError("pair games have two ensembles of assisted states")
    sizes = [len(ens) for ens in game.ensembles]  # a pair's measurement meets setting 1
    outputs = {"channels": [(dp, False)] * game.n, "pair": [(sizes[0], True), (dp, False)],
               "measurements": [(o, True) for o in sizes]}.get(kind)
    if outputs is None:
        raise ContractError(f"unknown strategy kind {kind!r}")
    channels = sum(not classical for _, classical in outputs)
    if channels and meas.n != channels:  # with no channel, meas is the measured collection
        raise DimensionError("one final measurement per channel required")
    device = joint_device(d, outputs)  # refuses a device too large to solve
    coeffs, finals = [], iter(meas.povms)
    for prior, (_, classical), ens in zip(game.prior, outputs, game.ensembles):
        if classical:
            coeffs += [prior * p * partial_trace(rho, (d, db), (0,)) for p, rho in ens]
            continue
        povm = next(finals)
        if len(ens) != povm.outcomes:
            raise DimensionError("ensemble size and measurement outcomes differ")
        coeffs.append(prior * sum(p * _kernel(rho, m, d, dp, db)  # some p > 0: the game is valid
                                  for (p, rho), m in zip(ens, povm.elements) if p != 0.0))
    return device, coeffs


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
    ``kind="measurements"``: the player measures directly with the marginals of
    an arbitrary parent measurement; ``meas`` is the collection they compete with.
    """
    device, coeffs = _kernels(game, meas, kind)
    return best_compatible_program(device, coeffs, options, f"compatible-best ({kind})")


def _witness_game(ops, outputs, d: int):
    """The game on which the witness operators ``ops`` of ``joint_device(d,
    outputs)``, grouped by member, score as the witness functional, and its
    channels' final measurements.  A member weighs |B| (channel) or sum_i Tr A_i
    (measurement), its prior its share of the total; a weight or trace below
    WITNESS_DROP_TOL counts as 0.  A channel presents a maximally entangled
    state, answered by [B / |B|, I - B / |B|], a measurement the states
    A_i / Tr A_i, times I / d on the reference when the device has a channel."""
    assisted = not all(classical for _, classical in outputs)
    shapes = [[np.shape(a) for a in row] for row in ops]
    sides = [[(d, d) if classical else (d * dim, d * dim)] * len(row)
             for (dim, classical), row in zip(outputs, ops)]
    if shapes != sides:
        raise DimensionError(f"witness operators of shapes {shapes}, the game needs {sides}")
    ops = [[hermitize(np.asarray(a, dtype=complex)) for a in row] for row in ops]
    traces = [[np.trace(a).real for a in row] for row in ops]
    weights = [sum(t for t in ts if t >= WITNESS_DROP_TOL) if classical else op_norm(row[0])
               for (_, classical), row, ts in zip(outputs, ops, traces)]
    total = sum(w for w in weights if w >= WITNESS_DROP_TOL)
    if total < WITNESS_DROP_TOL:
        raise DegenerateWitnessError("all witness operators are numerically zero")
    side = d * d if assisted else d
    junk = np.eye(side) / side
    ensembles, finals = [], []
    for (dim, classical), row, ts, w in zip(outputs, ops, traces, weights):
        if not classical:
            ensembles.append([(1.0, max_entangled_state(d)), (0.0, junk)])
            eye = np.eye(dim * d)
            finals.append(Povm([eye, 0 * eye] if w < WITNESS_DROP_TOL else [row[0] / w, eye - row[0] / w]))
        elif w < WITNESS_DROP_TOL:  # prior 0: any valid ensemble will do
            ensembles.append([(1.0 / len(row), junk)] * len(row))
        else:
            ensembles.append([(0.0, junk) if t < WITNESS_DROP_TOL else
                              (t / w, np.kron(a / t, np.eye(d) / d) if assisted else a / t)
                              for a, t in zip(row, ts)])
    game = DiscriminationGame(prior=[0.0 if w < WITNESS_DROP_TOL else w / total for w in weights],
                              ensembles=ensembles, assisted=assisted)
    return game.validate(), finals


def game_from_channel_witness(witness: WitnessSet, d: int, dp: int):
    """Game and final measurements realizing a channel witness: per setting a
    maximally entangled state and a two-outcome measurement normalized by
    the witness operator's norm."""
    if witness.kind != "channels":
        raise ContractError("need a channel-kind witness")
    game, finals = _witness_game(witness.by_member, [(dp, False)] * len(witness.channel_ops), d)
    return game, PovmCollection(finals)


def game_from_pair_witness(witness: WitnessSet, d: int, dp: int):
    """Two-ensemble game and a pair-mode strategy template from a pair
    witness: setting 1 presents the normalized measurement-witness operators,
    setting 2 presents a maximally entangled state answered with the
    normalized channel-witness two-outcome measurement."""
    if witness.kind != "pair":
        raise ContractError("need a pair-kind witness")
    game, (final,) = _witness_game(witness.by_member, [(len(witness.pair_measure_ops), True), (dp, False)], d)
    return game, Strategy(pair_mode=(None, None, final))


def game_from_measurement_witness(witness: WitnessSet, d: int) -> DiscriminationGame:
    """Unassisted game realizing a measurement witness on C^d: setting x
    presents the normalized witness operators A_{x,i} / Tr A_{x,i}, and the
    collection answers it directly, ``Strategy(measurements=collection)``."""
    if witness.kind != "measurements":
        raise ContractError("need a measurement-kind witness")
    ops = witness.by_member
    return _witness_game(ops, [(len(row), True) for row in ops], d)[0]


def advantage_ratio(game: DiscriminationGame, meas: PovmCollection,
                    resource_strategy: Strategy, kind: str = "channels",
                    options: SolveOptions | None = None) -> float:
    """Success of the given strategy over the best compatible one, both
    followed by ``meas``: the strategy must be of ``kind`` and measure with
    ``meas``; for "measurements" it measures with ``meas`` directly."""
    own = _final_measurements(resource_strategy)
    if own.n != meas.n or not all(
            np.array_equal(p.elements, q.elements) for p, q in zip(own.povms, meas.povms)):
        raise ContractError("the strategy is not one that measures with meas")
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
    require_size(d, [(d, False)] * 2)  # the cloner is the identity pair's joint channel
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
            raise ChainCheckError("compatible optimum fell below the cloning strategy",
                                  ("ratio_within_cloning_ratio", ratio, chain, 1e-9))
        if chain > bound + 1e-6:
            raise ChainCheckError("sampled ratio exceeded the unassisted bound",
                                  ("cloning_ratio_within_bound", chain, bound, 1e-6))
        max_ratio = max(max_ratio, ratio)
    assisted_value = 2 * d / (d + 1)
    return {"dim": d, "trials": trials, "seed": rng_seed, "max_ratio": float(max_ratio),
            "bound": float(bound), "assisted_value": float(assisted_value),
            "gap": float(assisted_value - bound)}
