"""The three workloads: seeded inputs and the operations run on them.

Each builder takes the imported package, a seeded generator and a scratch
directory and returns a list of ``Op``.  ``Op.run`` is the timed call into
the package; ``Op.outcome`` turns its result into plain arrays for the
checks in ``checks`` and is not timed.  Inputs that only the checks use
(the seeded compatible collections) are drawn from a generator split off at
build time and made on the first call to ``Op.outcome``, so that
``setup_s`` times only what the package receives.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks as ck

COMPATIBLE_SAMPLES = 3  # seeded compatible collections per witness
GAMES_PER_KIND = 6  # random and diagonal-state games per dimension
PARENT_OUTCOMES = 6  # outcomes of the random parent POVM
INSTRUMENT_RANK = 2  # Kraus operators per outcome of the random instrument


@dataclass
class Op:
    name: str
    kind: str  # key of checks.VERIFY
    run: Callable[[], object]
    outcome: Callable[[object], dict]


# -- seeded objects built here, outside the package --------------------------


def haar_unitary(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated(povm_elements, u):
    return [u @ m @ u.conj().T for m in povm_elements]


def basis_projectors(vectors):
    return [np.outer(v, v.conj()) for v in vectors]


def fourier_basis(d):
    """Rows: the Fourier basis, unbiased to the computational basis."""
    w = np.exp(2j * np.pi / d)
    return np.array([[w ** (j * m) for m in range(d)] for j in range(d)]) / np.sqrt(d)


def random_parent_postprocessed(d, n, o, rng):
    """A compatible collection: one random parent POVM, random post-processing."""
    gs = []
    for _ in range(PARENT_OUTCOMES):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        gs.append(g @ g.conj().T)
    w, v = np.linalg.eigh(sum(gs))
    inv_root = v @ np.diag(w ** -0.5) @ v.conj().T
    parent = [inv_root @ g @ inv_root for g in gs]
    out = []
    for _ in range(n):
        p = rng.dirichlet(np.ones(o), size=PARENT_OUTCOMES)  # p[l, i]
        out += [sum(p[l, i] * parent[l] for l in range(PARENT_OUTCOMES)) for i in range(o)]
    return out


def random_instrument_pair(d, dp, o, rng):
    """A compatible pair: the measurement and total channel of a random
    instrument, as [M_1, ..., M_o, Choi of the channel]."""
    rows = o * dp * INSTRUMENT_RANK
    g = rng.standard_normal((rows, d)) + 1j * rng.standard_normal((rows, d))
    v, _ = np.linalg.qr(g)
    kraus = v.reshape(o, dp, INSTRUMENT_RANK, d)
    povm, total = [], np.zeros((dp * d, dp * d), dtype=complex)
    for i in range(o):
        ks = [kraus[i, :, k, :] for k in range(INSTRUMENT_RANK)]
        povm.append(sum(k.conj().T @ k for k in ks))
        total += sum(np.outer(k.ravel(), k.ravel().conj()) for k in ks) / d
    return povm + [total]


def compatible_samples(make, rng):
    """``COMPATIBLE_SAMPLES`` results of ``make(generator)``, made on the
    first call from a generator split off ``rng`` now."""
    child = np.random.default_rng(rng.integers(2**63))
    return functools.cache(lambda: [make(child) for _ in range(COMPATIBLE_SAMPLES)])


def matrix(obj):
    """Decode the ``{"rows", "cols", "data"}`` matrix format of the reports."""
    data = np.asarray(obj["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(obj["rows"], obj["cols"])


# -- channel-ladder ------------------------------------------------------------


def _channel_op(q, name, members, closed_form, rng):
    n, d, dp = len(members), members[0].dim_in, members[0].dim_out
    samples = compatible_samples(
        lambda g: ck.channel_marginals(q.random_joint_channel(d, n, dp, g).choi, n, dp, d), rng)

    def run():
        rep = q.robustness_channels_primal(members)
        game, meas = q.game_from_channel_witness(rep.witness, d, dp)
        strat = q.Strategy(preprocess=members, measurements=meas)
        return rep, q.advantage_ratio(game, meas, strat, "channels")

    def outcome(res):
        rep, ratio = res
        return {
            "r": rep.primal_value, "dual": rep.dual_value, "closed_form": closed_form,
            "witness": list(rep.witness.channel_ops),
            "inputs": [c.matrix for c in members],
            "compatible_samples": samples(),
            "noise": None if rep.noise is None else [c.matrix for c in rep.noise],
            "mixture_marginals": ck.channel_marginals(rep.mixture_joint.choi, n, dp, d),
            "game_ratio": ratio,
            "fingerprint": (rep.primal_value, rep.dual_value, ratio),
        }

    return Op(name, "robustness", run, outcome)


def channel_ladder(q, rng, workdir):
    """Identity pairs on C^2 and C^3 and three identity qubit channels, each
    member seen through a seeded output unitary (which leaves the robustness
    unchanged), and a seeded noisy-unitary qubit pair."""
    def rotated_identities(d, n):
        return [q.unitary_channel(haar_unitary(d, rng)) for _ in range(n)]

    ops = [
        _channel_op(q, "identity-pair-d2", rotated_identities(2, 2), ck.identity_pair(2), rng),
        _channel_op(q, "identity-pair-d3", rotated_identities(3, 2), ck.identity_pair(3), rng),
        _channel_op(q, "identity-triple-d2", rotated_identities(2, 3), None, rng),
    ]
    white = np.eye(4) / 4
    noisy = []
    for _ in range(2):
        v = 0.8 + 0.15 * rng.random()  # above the cloning threshold 2/3: incompatible
        ju = q.unitary_channel(haar_unitary(2, rng)).matrix
        noisy.append(q.ChoiMatrix(2, 2, v * ju + (1 - v) * white))
    ops.append(_channel_op(q, "noisy-unitary-pair-d2", noisy, None, rng))
    return ops


# -- measurement-cli -----------------------------------------------------------


def _cli_call(q, argv, out_path, then=None):
    def run():
        code = q.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"qincompat {' '.join(argv[:2])} exited with code {code}")
        report = json.loads(out_path.read_bytes())
        return report, then(report) if then else None

    return run


def _measurement_op(q, name, effects, closed_form, rng, workdir):
    n, o, d = len(effects), len(effects[0]), effects[0][0].shape[0]
    coll = q.PovmCollection([q.Povm(els) for els in effects])
    src, dst = workdir / f"{name}.json", workdir / f"{name}.report.json"
    src.write_text(json.dumps(coll.to_json()))
    samples = compatible_samples(lambda g: random_parent_postprocessed(d, n, o, g), rng)
    argv = ["robustness", "measurements", "--input", str(src), "--out", str(dst)]

    def outcome(res):
        rep, _ = res
        noise = rep["noise"]
        parent = [matrix(m) for m in rep["mixture_joint"]["elements"]]
        return {
            "r": rep["robustness"], "dual": rep["dual"], "closed_form": closed_form,
            "witness": [matrix(a) for row in rep["witness"]["measurement_ops"] for a in row],
            "inputs": [m for els in effects for m in els],
            "compatible_samples": samples(),
            "noise": None if noise is None else
            [matrix(m) for p in noise["povms"] for m in p["elements"]],
            "mixture_marginals": ck.parent_marginals(parent, n, o),
            "fingerprint": (rep["robustness"], rep["dual"]),
        }

    return Op(name, "robustness", _cli_call(q, argv, dst), outcome)


def _pair_op(q, name, povm, channel, rng, workdir):
    d, dp, o = channel.dim_in, channel.dim_out, povm.outcomes
    src, dst = workdir / f"{name}.json", workdir / f"{name}.report.json"
    src.write_text(json.dumps({"povm": povm.to_json(), "channel": channel.to_json()}))
    samples = compatible_samples(lambda g: random_instrument_pair(d, dp, o, g), rng)
    argv = ["robustness", "pair", "--input", str(src), "--out", str(dst)]

    def witness_game(rep):
        # Theorem 2: the game built from the reported witness
        w = rep["witness"]
        witness = q.WitnessSet(
            "pair", w["value"],
            pair_measure_ops=[q.matrix_from_json(a) for a in w["pair_measure_ops"]],
            pair_channel_op=q.matrix_from_json(w["pair_channel_op"]))
        game, template = q.game_from_pair_witness(witness, d, dp)
        final = q.PovmCollection([template.pair_mode[2]])
        return q.advantage_ratio(game, final, template.with_pair(povm, channel), "pair")

    def outcome(res):
        rep, ratio = res
        w, noise = rep["witness"], rep["noise"]
        inst = rep["mixture_joint"]
        m_povm, m_channel = ck.instrument_marginals(
            [matrix(j) for j in inst["elements"]], inst["dim_in"], inst["dim_out"])
        return {
            "r": rep["robustness"], "dual": rep["dual"], "closed_form": None,
            "witness": [matrix(a) for a in w["pair_measure_ops"]] + [matrix(w["pair_channel_op"])],
            "inputs": list(povm.elements) + [channel.matrix],
            "compatible_samples": samples(),
            "noise": None if noise is None else
            [matrix(m) for m in noise["povm"]["elements"]] + [matrix(noise["channel"]["matrix"])],
            "mixture_marginals": m_povm + [m_channel],
            "game_ratio": ratio,
            "fingerprint": (rep["robustness"], rep["dual"], ratio),
        }

    return Op(name, "robustness", _cli_call(q, argv, dst, witness_game), outcome)


def _compat_op(q, name, effects, visibility, workdir):
    n, o = len(effects), len(effects[0])
    src, dst = workdir / f"{name}.json", workdir / f"{name}.report.json"
    coll = q.PovmCollection([q.Povm(els) for els in effects])
    src.write_text(json.dumps(coll.to_json()))
    argv = ["compat", "measurements", "--input", str(src), "--out", str(dst)]

    def outcome(res):
        rep, _ = res
        joint = rep["joint"]
        return {
            "compatible": rep["compatible"], "visibility": visibility,
            "inputs": [m for els in effects for m in els],
            "parent_marginals": None if joint is None else
            ck.parent_marginals([matrix(m) for m in joint["elements"]], n, o),
            "fingerprint": (rep["compatible"], rep["margin"]),
        }

    return Op(name, "compat", _cli_call(q, argv, dst), outcome)


def measurement_cli(q, rng, workdir):
    """In-process CLI calls on inputs written with ``to_json()``; every input
    is conjugated by one seeded unitary per dimension, which leaves the
    robustness and the compatibility threshold unchanged."""
    z = basis_projectors(np.eye(2, dtype=complex))
    x = basis_projectors(fourier_basis(2))
    y = basis_projectors(np.array([[1, 1j], [1, -1j]]) / np.sqrt(2))
    u2, u3 = haar_unitary(2, rng), haar_unitary(3, rng)
    zx = [rotated(z, u2), rotated(x, u2)]
    mubs = [rotated(basis_projectors(np.eye(3, dtype=complex)), u3),
            rotated(basis_projectors(fourier_basis(3)), u3)]

    def noisy(els, v):
        return [v * m + (1 - v) * np.eye(2) / 2 for m in els]

    return [
        _measurement_op(q, "zx", zx, ck.mub_pair(2), rng, workdir),
        _measurement_op(q, "mub2-d3", mubs, ck.mub_pair(3), rng, workdir),
        _measurement_op(q, "xyz", zx + [rotated(y, u2)], None, rng, workdir),
        _pair_op(q, "basis-identity-d2", q.Povm(rotated(z, u2)),
                 q.unitary_channel(u2), rng, workdir),
        _compat_op(q, "zx-v0.65", [noisy(els, 0.65) for els in zx], 0.65, workdir),
        _compat_op(q, "zx-v0.75", [noisy(els, 0.75) for els in zx], 0.75, workdir),
    ]


# -- game-sweep ----------------------------------------------------------------


def _game_op(q, name, d, game, meas, ids, clones):
    effects = [p.elements for p in meas.povms]

    def run():
        p_id = q.success_prob(game, q.Strategy(preprocess=ids, measurements=meas))
        p_clone = q.success_prob(game, q.Strategy(preprocess=clones, measurements=meas))
        return p_id, p_clone, q.best_compatible_success(game, meas, "channels")

    def outcome(res):
        p_id, p_clone, p_best = res
        return {
            "d": d, "diagonal": name.startswith("diagonal"),
            "p_id": p_id, "p_clone": p_clone, "p_best": p_best,
            "p_mp": ck.measure_prepare_score(game.prior, game.ensembles, effects),
            "fingerprint": res,
        }

    return Op(name, "game", run, outcome)


def game_sweep(q, rng, workdir):
    """Unassisted two-setting games on C^2 and C^3 (Appendix C): random
    games, and games whose states are diagonal, where measure-and-prepare
    strategies are optimal."""
    ops = []
    for d in (2, 3):
        ids = [q.identity_channel(d), q.identity_channel(d)]
        clone = q.cloning_channel(d)
        clones = [q.marginal(clone, 1), q.marginal(clone, 2)]
        for k in range(GAMES_PER_KIND):
            game = q.random_game(d, 2, 2, rng)
            meas = q.PovmCollection([q.random_povm(d, 2, rng) for _ in range(2)])
            ops.append(_game_op(q, f"random-d{d}-{k}", d, game, meas, ids, clones))
        for k in range(GAMES_PER_KIND):
            prior = rng.dirichlet(np.ones(2))
            ens = [[(p, np.diag(rng.dirichlet(np.ones(d)))) for p in rng.dirichlet(np.ones(2))]
                   for _ in range(2)]
            game = q.DiscriminationGame(prior=prior, ensembles=ens)
            meas = q.PovmCollection([q.random_povm(d, 2, rng) for _ in range(2)])
            ops.append(_game_op(q, f"diagonal-d{d}-{k}", d, game, meas, ids, clones))
    return ops


WORKLOADS = {
    "channel-ladder": channel_ladder,
    "measurement-cli": measurement_cli,
    "game-sweep": game_sweep,
}
