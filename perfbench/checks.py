"""Output checks, written against references computed here with numpy.

Nothing in this file calls ``qincompat``: partial traces, marginals,
witness functionals and measure-and-prepare scores are recomputed from the
definitions, and the closed forms are those of Designolle, Farkas &
Kaniewski (NJP 21, 113053, 2019).  Each check appends its name to
``Checks.failed`` when it does not hold; equality checks also record how far
the value sat from its reference, which feeds ``accuracy_digits``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

TOL_VALUE = 1e-6  # closed forms, witness on the input, noise decomposition
TOL_GAP = 1e-6  # relative primal/dual gap
TOL_RATIO = 1e-5  # witness game ratio against 1 + r
TOL_WITNESS_COMPAT = 1e-7  # witness on compatible collections stays below 1 + this
TOL_GAME = 1e-6  # game optima against measure-and-prepare and cloning scores


def identity_pair(d):
    return (d - 1) / (d + 1)


def mub_pair(d):
    """Two mutually unbiased bases in dimension d: (sqrt(d) - 1)/(sqrt(d) + 1);
    3 - 2 sqrt(2) at d = 2 and 2 - sqrt(3) at d = 3."""
    s = math.sqrt(d)
    return (s - 1) / (s + 1)


def unassisted_bound(d):
    """Appendix C: identity over cloning marginals without a reference system."""
    return 2 * (d + 1) / (d + 3)


ZX_THRESHOLD = 1 / math.sqrt(2)  # noisy Z/X are compatible iff visibility <= this


def deviation(value, reference):
    """Largest entrywise distance; lists are compared member by member."""
    if isinstance(value, list):
        if len(value) != len(reference):
            return math.inf
        return max(deviation(a, b) for a, b in zip(value, reference))
    return float(np.max(np.abs(np.asarray(value) - np.asarray(reference))))


class Checks:
    """Results of the checks on one operation."""

    def __init__(self):
        self.failed = []
        self.worst = 0.0  # largest deviation of an equality check

    def close(self, name, value, reference, tol):
        dev = deviation(value, reference)
        self.worst = max(self.worst, dev if dev == dev else math.inf)
        if not dev <= tol:
            self.failed.append(name)

    def at_most(self, name, value, limit):
        if not float(value) <= limit:
            self.failed.append(name)

    def holds(self, name, condition):
        if not condition:
            self.failed.append(name)


def ptrace(m, dims, keep):
    """Partial trace keeping the listed factors, in ascending factor order."""
    n = len(dims)
    t = np.asarray(m).reshape(tuple(dims) * 2)
    keep = sorted(keep)
    letters = "abcdefghijklmnopqrstuvwxyz"
    ket = list(letters[:n])
    bra = [letters[n + i] if i in keep else letters[i] for i in range(n)]
    out = [ket[i] for i in keep] + [bra[i] for i in keep]
    r = np.einsum("".join(ket + bra) + "->" + "".join(out), t)
    k = math.prod(dims[i] for i in keep)
    return r.reshape(k, k)


def pairing(ops, mats):
    """sum_k Tr[ops_k mats_k] (real part)."""
    return float(sum(np.vdot(a.conj().T, m).real for a, m in zip(ops, mats)))


def relative_gap(primal, dual):
    return abs(primal - dual) / (1 + abs(primal))


def channel_marginals(joint, n, d_out, d_in):
    dims = (d_out,) * n + (d_in,)
    return [ptrace(joint, dims, (x, n)) for x in range(n)]


def parent_marginals(parent, n, o):
    """Marginal effects M_{i|x} = sum of G_l over assignments l with l[x] = i,
    flattened in (x, i) order."""
    lam = list(itertools.product(range(o), repeat=n))
    return [sum(g for g, l in zip(parent, lam) if l[x] == i)
            for x in range(n) for i in range(o)]


def instrument_marginals(elements, d_in, d_out):
    povm = [d_in * ptrace(j, (d_out, d_in), (1,)).T for j in elements]
    return povm, sum(elements)


def mixed(inputs, noise, r):
    """(input + r * noise) / (1 + r), member by member."""
    return [(a + r * b) / (1 + r) for a, b in zip(inputs, noise)]


def measure_prepare_score(prior, ensembles, effects):
    """sum_x pi_x sum_l lambda_max(sum_i p(i|x) <l|rho_{i|x}|l> M_{i|x}): measure
    in the computational basis, copy the outcome, prepare the best state."""
    total = 0.0
    for px, ens, els in zip(prior, ensembles, effects):
        d = els[0].shape[0]
        for l in range(d):
            k = sum(p * rho[l, l].real * m for (p, rho), m in zip(ens, els))
            total += px * np.linalg.eigvalsh(k)[-1]
    return float(total)


# -- one verification per kind of operation ---------------------------------


def verify_robustness(ck, out):
    """Robustness report: closed form, duality, witness, noise decomposition,
    witness game.  ``out`` holds plain arrays; see ``workloads``."""
    r = out["r"]
    if out.get("closed_form") is not None:
        ck.close("closed_form", r, out["closed_form"], TOL_VALUE)
    gap = relative_gap(r, out["dual"])
    ck.close("relative_gap", gap, 0.0, TOL_GAP)
    ck.close("witness_on_input", pairing(out["witness"], out["inputs"]), 1 + r, TOL_VALUE)
    worst = max(pairing(out["witness"], s) for s in out["compatible_samples"])
    ck.at_most("witness_on_compatible", worst, 1 + TOL_WITNESS_COMPAT)
    if out["noise"] is not None:
        ck.close("noise_decomposition", out["mixture_marginals"],
                 mixed(out["inputs"], out["noise"], r), TOL_VALUE)
    else:
        ck.holds("noise_decomposition", r <= 1e-7)
    if out.get("game_ratio") is not None:
        ck.close("game_ratio", out["game_ratio"], 1 + r, TOL_RATIO)


def verify_compat(ck, out):
    ck.holds("verdict", out["compatible"] == (out["visibility"] <= ZX_THRESHOLD))
    if out["compatible"]:
        if out["parent_marginals"] is None:
            ck.holds("parent_marginals", False)
        else:
            ck.close("parent_marginals", out["parent_marginals"], out["inputs"], TOL_VALUE)


def verify_game(ck, out):
    d = out["d"]
    ck.at_most("appendix_c_bound", out["p_id"] / out["p_clone"],
               unassisted_bound(d) + TOL_GAME)
    if out["diagonal"]:
        ck.close("diagonal_optimum", out["p_best"], out["p_mp"], TOL_GAME)
    else:
        ck.at_most("best_over_cloning", out["p_clone"] - out["p_best"], TOL_GAME)
        ck.at_most("best_over_measure_prepare", out["p_mp"] - out["p_best"], TOL_GAME)


VERIFY = {"robustness": verify_robustness, "compat": verify_compat, "game": verify_game}


# -- self-test: each check must fail on a value perturbed past its tolerance --


def _perturbations(kind, out):
    """(check name, perturbed copy of ``out``) pairs for one outcome."""
    cases = []

    def case(name, **changes):
        cases.append((name, {**out, **changes}))

    if kind == "robustness":
        r = out["r"]
        if out.get("closed_form") is not None:
            off = out["closed_form"] + 10 * TOL_VALUE
            case("closed_form", r=off, dual=off)
        case("relative_gap", dual=r + 10 * TOL_GAP * (1 + r))
        case("witness_on_input", witness=[a * (1 + 10 * TOL_VALUE) for a in out["witness"]])
        case("witness_on_compatible",
             compatible_samples=out["compatible_samples"] + [out["inputs"]])
        if out["noise"] is not None:
            bumped = [n.copy() for n in out["noise"]]
            bumped[0] = bumped[0] + 10 * TOL_VALUE * (1 + r) / r * np.eye(bumped[0].shape[0])
            case("noise_decomposition", noise=bumped)
        if out.get("game_ratio") is not None:
            case("game_ratio", game_ratio=out["game_ratio"] + 10 * TOL_RATIO)
    elif kind == "compat":
        case("verdict", compatible=not out["compatible"])
        if out["compatible"]:
            bumped = [m.copy() for m in out["parent_marginals"]]
            bumped[0] = bumped[0] + 10 * TOL_VALUE
            case("parent_marginals", parent_marginals=bumped)
    else:
        bound = unassisted_bound(out["d"])
        case("appendix_c_bound", p_id=out["p_clone"] * (bound + 10 * TOL_GAME))
        if out["diagonal"]:
            case("diagonal_optimum", p_best=out["p_best"] - 10 * TOL_GAME)
        else:
            case("best_over_cloning", p_best=out["p_clone"] - 10 * TOL_GAME)
            case("best_over_measure_prepare", p_best=out["p_mp"] - 10 * TOL_GAME)
    return cases


def self_test(outcomes):
    """Re-run each verification on perturbed copies of checked outcomes.

    ``outcomes`` is a list of ``(kind, out)``; returns the names of checks
    that did not fail on their perturbed input (empty when all did)."""
    missed = []
    for kind, out in outcomes:
        for name, bad in _perturbations(kind, out):
            ck = Checks()
            VERIFY[kind](ck, bad)
            if name not in ck.failed:
                missed.append(f"{kind}:{name}")
    return missed
