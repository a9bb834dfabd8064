"""Command line front end.

Four subcommands, all emitting one JSON report:

* ``robustness {channels|measurements|pair} --input FILE`` computes the
  incompatibility robustness of the objects in FILE along with the dual
  witness, the optimal noise and the certifying compatible mixture.
* ``compat {channels|measurements|pair} --input FILE`` runs the plain
  feasibility check and returns the verdict with margin and joint object.
* ``verify {theorem1|theorem2|prop1|prop2|appendixC|duality}`` replays one
  of the self-check suites on seeded instances and reports every assertion
  with its value and tolerance, and the inputs the suite read.
* ``demo {identity-pair|bb84|cloning}`` runs a small worked example.

A suite or demo reads the flags its ``_RUNS`` entry names; any other exits 1.

Reports go to stdout unless ``--out FILE`` is given; the file is written
only after the computation finished, so a failing run leaves no partial
output.  With a fixed seed the report is reproducible byte for byte except
for the ``timestamp`` field.

Exit codes: 0 success, 1 bad input or arguments, 2 solver failure or
numerical breakdown, 3 a verification check failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .compat import check_channels, check_measurements, check_pair, require_size
from .games import (
    ChainCheckError,
    DiscriminationGame,
    Strategy,
    advantage_ratio,
    best_compatible_success,
    game_from_channel_witness,
    game_from_pair_witness,
    success_prob,
    unassisted_bound_check,
)
from .linalg import ContractError, json_list, json_object
from .qobjects import (
    ChoiMatrix,
    Povm,
    PovmCollection,
    basis_povm,
    cloning_channel,
    depolarizing_channel,
    identity_channel,
    marginal,
    projective_from_hermitian,
    random_channel,
    random_povm,
    random_state,
    random_unitary,
    unitary_channel,
)
from .robustness import (
    identity_pair_closed_form,
    robustness_channels_primal,
    robustness_measurements,
    robustness_pair_primal,
    verify_prop1,
    verify_prop2,
)
from .sdp import DEFAULT_FEAS_TOL, DEFAULT_GAP_TOL, SolveOptions, SolverFailure


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after."""
    p = argparse.ArgumentParser(
        prog="qincompat",
        description="robustness of quantum incompatibility and its discrimination games",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for command, positional, help in (
            ("robustness", "target", "compute incompatibility robustness with witness"),
            ("compat", "target", "feasibility check for compatibility"),
            ("verify", "suite", "run a seeded self-check suite"),
            ("demo", "name", "run a worked example")):
        sp = sub.add_parser(command, help=help)
        runs = _RUNS.get(command, {})
        sp.add_argument(positional, choices=list(runs) or ["channels", "measurements", "pair"])
        # robustness and compat read an input file; a verify suite or a demo
        # reads the inputs its _RUNS entry names, and a flag for another exits 1
        if not runs:
            sp.add_argument("--input", required=True, help="path to a JSON input file")
        for flag, (_, what) in _INPUTS.items():
            readers = [name for name, (_, inputs) in runs.items() if flag in inputs]
            if readers:
                sp.add_argument(f"--{flag}", type=int, help=f"{what}, read by {', '.join(readers)}")
        sp.add_argument("--tol-gap", type=_tolerance("gap_tol"), default=DEFAULT_GAP_TOL,
                        help="solver duality gap tolerance")
        sp.add_argument("--tol-feas", type=_tolerance("feas_tol"), default=DEFAULT_FEAS_TOL,
                        help="solver feasibility tolerance")
        sp.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    return p


def _tolerance(field: str):
    """An argparse type for the flag of the ``SolveOptions`` field: the value
    if the options accept it, else argparse names the flag and the value."""
    def parse(text):
        return getattr(SolveOptions(**{field: float(text)}), field)

    parse.__name__ = field
    return parse


# ---------------------------------------------------------------- inputs

def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ContractError(f"cannot read input file: {e}")
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ContractError("input file is nested too deeply to parse")
    return json_object(obj, "input")


def _load_channels(obj) -> list:
    channels = json_list(obj["channels"], "input field 'channels'")
    return [ChoiMatrix.from_json(json_object(c, f"channel {i}")) for i, c in enumerate(channels)]


def _load_pair(obj):
    return Povm.from_json(obj["povm"]), ChoiMatrix.from_json(obj["channel"])


# --------------------------------------------------------------- checks

def _record(checks, name, value, target, tol, mode="abs"):
    """Append one assertion record; mode is abs, upper or lower."""
    value = float(value)
    target = float(target)
    if mode == "abs":
        ok = abs(value - target) <= tol
        rule = "|value - target| <= tolerance"
    elif mode == "upper":
        ok = value <= target + tol
        rule = "value <= target + tolerance"
    else:
        ok = value >= target - tol
        rule = "value >= target - tolerance"
    checks.append({"name": name, "value": value, "target": target,
                   "tolerance": float(tol), "rule": rule, "pass": bool(ok)})
    return ok


# ------------------------------------------------------------- commands

def _cmd_target(args, opts):
    """``robustness`` or ``compat`` on the objects of the input file.  The
    table is built per call, so that a rebound module attribute is the
    function that runs."""
    decode, robust, check = {  # the input's objects, and the two functions run on them
        "channels": (lambda obj: (_load_channels(obj),), robustness_channels_primal, check_channels),
        "measurements": (lambda obj: (PovmCollection.from_json(obj),),
                         robustness_measurements, check_measurements),
        "pair": (_load_pair, robustness_pair_primal, check_pair),
    }[args.target]
    objects = decode(_load_json(args.input))
    if args.command == "robustness":
        payload = robust(*objects, opts).to_json()
    else:
        payload = check(*objects, opts).to_json()
        payload["target"] = args.target
    payload["input"] = args.input
    return payload, 0


def _noisy_unitary(d, visibility, rng) -> ChoiMatrix:
    """Random unitary channel mixed with the completely depolarizing one."""
    ju = unitary_channel(random_unitary(d, rng)).matrix
    white = np.eye(d * d, dtype=complex) / (d * d)
    return ChoiMatrix(d, d, visibility * ju + (1 - visibility) * white)


def _channel_game(channels, dim, opts):
    """Robustness of channels on C^dim and the advantage ratio that the game
    built from its witness realizes."""
    rep = robustness_channels_primal(channels, opts)
    game, meas = game_from_channel_witness(rep.witness, dim, dim)
    ratio = advantage_ratio(game, meas, Strategy(preprocess=channels, measurements=meas),
                            "channels", opts)
    return rep.primal_value, ratio


def _suite_theorem1(opts, checks, dim, seed, trials):
    """Channel game built from the witness realizes 1 + robustness."""
    r, ratio = _channel_game([identity_channel(dim), identity_channel(dim)], dim, opts)
    _record(checks, "identity_pair_closed_form", r, identity_pair_closed_form(dim), 1e-6)
    _record(checks, "identity_pair_game_ratio", ratio, 1 + r, 1e-5)
    rng = np.random.default_rng(seed)
    for k in range(trials):
        # noisy unitaries: unitary pairs all share one robustness value, so
        # vary the visibility to get distinct instances
        pair = [_noisy_unitary(2, 0.8 + 0.15 * rng.random(), rng) for _ in range(2)]
        r, ratio = _channel_game(pair, 2, opts)
        _record(checks, f"random_pair_{k}_incompatible", r, 1e-3, 0.0, mode="lower")
        _record(checks, f"random_pair_{k}_game_ratio", ratio, 1 + r, 1e-5)


def _suite_theorem2(opts, checks, seed, trials):
    """Pair game built from the witness realizes 1 + robustness."""
    cases = [(basis_povm(2), identity_channel(2))]
    rng = np.random.default_rng(seed)
    while len(cases) < trials + 1:
        # smeared projectives against noisy unitaries give a spread of
        # robustness values; exact projective-unitary pairs all coincide
        proj = projective_from_hermitian(random_state(2, rng))
        vm = 0.85 + 0.1 * rng.random()
        povm = Povm([vm * e + (1 - vm) * np.eye(2) / 2 for e in proj.elements])
        cases.append((povm, _noisy_unitary(2, 0.85 + 0.1 * rng.random(), rng)))
    for k, (povm, channel) in enumerate(cases):
        rep = robustness_pair_primal(povm, channel, opts)
        _record(checks, f"pair_{k}_incompatible", rep.primal_value, 1e-3,
                0.0, mode="lower")
        game, template = game_from_pair_witness(rep.witness, 2, 2)
        final = template.pair_mode[2]
        ratio = advantage_ratio(game, PovmCollection([final]),
                                template.with_pair(povm, channel), "pair", opts)
        _record(checks, f"pair_{k}_game_ratio", ratio, 1 + rep.primal_value, 1e-5)


def _deltas(checks, label, verify, cases, opts):
    """Record each case's delta from ``verify`` and the largest of them.
    The suites pass verify_prop1 or verify_prop2 as looked up at call time,
    so that a rebound module attribute is the one that runs."""
    worst = 0.0
    for k, case in enumerate(cases):
        out = verify(*case, opts)
        _record(checks, f"{label}_{k}_delta", out["delta"], 0.0, 1e-6)
        worst = max(worst, out["delta"])
    _record(checks, "max_delta", worst, 0.0, 1e-6)


def _suite_prop1(opts, checks, seed, trials):
    """Measurement robustness equals the measure-and-record channel robustness."""
    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    cases = [PovmCollection([projective_from_hermitian(sz), projective_from_hermitian(sx)])]
    rng = np.random.default_rng(seed)
    while len(cases) < trials + 1:
        cases.append(PovmCollection([random_povm(2, 2, rng) for _ in range(2)]))
    _deltas(checks, "collection", verify_prop1, [(c,) for c in cases], opts)


def _suite_prop2(opts, checks, seed, trials):
    """Pair robustness equals the two-channel robustness of its embedding."""
    cases = [(basis_povm(2), identity_channel(2))]
    rng = np.random.default_rng(seed)
    while len(cases) < trials + 1:
        cases.append((random_povm(2, 2, rng), random_channel(2, 2, 2, rng)))
    _deltas(checks, "pair", verify_prop2, cases, opts)


def _cloning_marginals(dim):
    """The two marginals of the optimal 1 -> 2 cloner on C^dim, the visibility
    of the depolarizing channel they should equal, and their largest entrywise
    deviation from it."""
    c = (dim + 2) / (2 * (dim + 1))
    require_size(dim, [(dim, False)] * 2)  # the cloner is the identity pair's joint channel
    clone = cloning_channel(dim)
    dep = depolarizing_channel(dim, c)
    margs = [marginal(clone, 1), marginal(clone, 2)]
    return margs, c, max(np.abs(m.matrix - dep.matrix).max() for m in margs)


def _suite_appendix_c(opts, checks, dim, seed, trials):
    """Cloning marginals are depolarizing and unassisted games obey the bound."""
    _, _, dev = _cloning_marginals(dim)
    _record(checks, "cloning_marginal_deviation", dev, 0.0, 1e-9)
    try:
        out = unassisted_bound_check(dim, trials, seed, opts)
    except ChainCheckError as e:
        _record(checks, *e.check, mode="upper")
        return None
    _record(checks, "max_unassisted_ratio", out["max_ratio"], out["bound"], 1e-6,
            mode="upper")
    _record(checks, "gap_to_assisted_value", out["gap"], 0.0, 0.0, mode="lower")
    return out


def _suite_duality(opts, checks, seed, trials):
    """Primal and dual robustness values agree to relative tolerance."""
    def gap_check(name, rep):
        rel = abs(rep.primal_value - rep.dual_value) / (1 + rep.primal_value)
        _record(checks, name, rel, 0.0, 1e-6)

    for d in (2, 3):
        gap_check(f"identity_pair_dim{d}", robustness_channels_primal(
            [identity_channel(d), identity_channel(d)], opts))
    rng = np.random.default_rng(seed)
    for k in range(trials):
        if k % 2 == 0:
            pair = [unitary_channel(random_unitary(2, rng)) for _ in range(2)]
        else:
            pair = [random_channel(2, 2, 2, rng) for _ in range(2)]
        gap_check(f"random_pair_{k}", robustness_channels_primal(pair, opts))


def _demo_identity_pair(opts, dim):
    r, ratio = _channel_game([identity_channel(dim), identity_channel(dim)], dim, opts)
    return {
        "dim": dim,
        "robustness": r,
        "closed_form": identity_pair_closed_form(dim),
        "one_plus_robustness": 1 + r,
        "game_ratio": ratio,
    }


def _demo_bb84(opts):
    # two conjugate bases; reading out the flagged basis identifies the state
    z0 = np.diag([1.0, 0.0]).astype(complex)
    z1 = np.diag([0.0, 1.0]).astype(complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    game = DiscriminationGame(
        prior=[0.5, 0.5],
        ensembles=[[(0.5, z0), (0.5, z1)], [(0.5, plus), (0.5, minus)]],
    ).validate()
    meas = PovmCollection([basis_povm(2), Povm([plus, minus])])
    guessing = Povm([np.eye(2, dtype=complex) / 2] * 2)
    succ = success_prob(game, Strategy(measurements=meas))
    den = best_compatible_success(game, meas, "channels", opts)
    return {
        "success": succ,
        "success_random_guess": success_prob(
            game, Strategy(measurements=PovmCollection([guessing, guessing]))),
        "best_compatible": den,
        "advantage_ratio": succ / den,
    }


def _demo_cloning(opts, dim):
    margs, c, dev = _cloning_marginals(dim)
    verdict = check_channels(margs, opts)
    return {
        "dim": dim,
        "depolarizing_visibility": c,
        "marginal_deviation": dev,
        "marginals_compatible": verdict.compatible,
        "compat_margin": verdict.margin,
    }


# every verify suite and demo: its function and the inputs it reads, each
# with its default
_RUNS = {
    "verify": {
        "theorem1": (_suite_theorem1, {"dim": 2, "seed": 7, "trials": 5}),
        "theorem2": (_suite_theorem2, {"seed": 11, "trials": 2}),
        "prop1": (_suite_prop1, {"seed": 7, "trials": 20}),
        "prop2": (_suite_prop2, {"seed": 13, "trials": 10}),
        "appendixC": (_suite_appendix_c, {"dim": 2, "seed": 0, "trials": 200}),
        "duality": (_suite_duality, {"seed": 3, "trials": 10}),
    },
    "demo": {
        "identity-pair": (_demo_identity_pair, {"dim": 2}),
        "bb84": (_demo_bb84, {}),
        "cloning": (_demo_cloning, {"dim": 2}),
    },
}
# each input's least value (a dimension below 2 is a trivial space) and help
_INPUTS = {"dim": (2, "Hilbert space dimension"), "seed": (0, "RNG seed"),
           "trials": (0, "number of sampled instances")}


def _resolve(command: str, name: str, args):
    """The function of a suite or demo and its inputs: each flag as given or
    its default.  A flag it does not read, or a value below the least,
    raises ``ContractError`` naming the flag."""
    fn, defaults = _RUNS[command][name]
    for key in _INPUTS:
        if key not in defaults and getattr(args, key, None) is not None:
            raise ContractError(f"{command} {name} does not read --{key}")
    inputs = {key: default if getattr(args, key) is None else getattr(args, key)
              for key, default in defaults.items()}
    for key, value in inputs.items():
        if value < _INPUTS[key][0]:
            raise ContractError(f"--{key} must be at least {_INPUTS[key][0]}, got {value}")
    return fn, inputs


def _cmd_verify(args, opts):
    fn, inputs = _resolve("verify", args.suite, args)
    checks = []
    extra = fn(opts, checks, **inputs)
    passed = all(c["pass"] for c in checks)
    payload = {"suite": args.suite, **inputs, "checks": checks, "passed": passed}
    if extra is not None:
        payload["detail"] = extra
    return payload, 0 if passed else 3


def _cmd_demo(args, opts):
    fn, inputs = _resolve("demo", args.name, args)
    payload = fn(opts, **inputs)
    payload["name"] = args.name
    return payload, 0


# ----------------------------------------------------------------- main

def _run(args) -> tuple[dict, int]:
    opts = SolveOptions(feas_tol=args.tol_feas, gap_tol=args.tol_gap)
    dispatch = {"robustness": _cmd_target, "compat": _cmd_target,
                "verify": _cmd_verify, "demo": _cmd_demo}
    payload, code = dispatch[args.command](args, opts)
    payload["command"] = args.command
    payload["solver_options"] = {"feas_tol": opts.feas_tol, "gap_tol": opts.gap_tol,
                                 "max_iter": opts.max_iter}
    payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    return payload, code


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 for --help and 2 for usage errors; fold the
        # latter into the invalid-input code
        return 0 if not e.code else 1
    try:
        payload, code = _run(args)
    except (SolverFailure, np.linalg.LinAlgError) as e:
        # LinAlgError subclasses ValueError, but is a numerical breakdown
        print(f"solver failure: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        try:
            Path(args.out).write_text(text + "\n")
        except OSError as e:
            print(f"error: cannot write --out file: {e}", file=sys.stderr)
            return 1
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader has gone; stdout points at devnull so that the flush
            # at exit does not raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            print("error: stdout was closed before the report was written", file=sys.stderr)
            return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
