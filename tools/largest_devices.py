"""Solve the largest devices that the tests leave out, once each, and check
their memory against the size figure that ``compat.require_size`` limits.

    python3 tools/largest_devices.py [--summary FILE] [DEVICE ...]

DEVICE is one of the names in ``DEVICES``; the default is the complete set
of mutually unbiased bases (MUBs) in d = 5 and the identity pair on C^6.
Each device runs in a process of its own, with one BLAS thread, through the
robustness primal and its independent dual.  A device's figure is
``compat.require_size`` of its input dimension and outputs, the figure that
the limit reads; its baseline is the peak RSS after the imports.  For each
device one JSON line is printed, and with ``--summary`` a Markdown table row
is appended to FILE (a CI job summary).  Exits 1 when a device's
primal-dual relative gap |R - dual| / (1 + |R|) exceeds ``GAP_BOUND``, when
its peak RSS above the baseline exceeds ``RSS_RATIO`` times its figure, or
when its process fails.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
GAP_BOUND = 1e-6
RSS_RATIO = 8.0
DEFAULT = ["mub-5", "identity-pair-6"]


def _mubs(d):
    """The computational basis and the d bases sum_m w^(jm + am^2) |m> / sqrt(d),
    a = 0..d-1: a complete set of MUBs for an odd prime d."""
    import numpy as np
    from qincompat import Povm, PovmCollection

    w = np.exp(2j * np.pi / d)
    bases = [np.eye(d)] + [np.array([[w ** (j * m + a * m * m) for j in range(d)] for m in range(d)])
                           / np.sqrt(d) for a in range(d)]
    return PovmCollection([Povm([np.outer(b[:, i], b[:, i].conj()) for i in range(d)]) for b in bases])


def _identities(n, d):
    from qincompat import identity_channel
    return [identity_channel(d)] * n


def _random_channels():
    import numpy as np
    from qincompat import random_channel
    rng = np.random.default_rng(0)
    return [random_channel(2, 20, 2, rng) for _ in range(2)]


# name -> (kind, a function returning the members)
DEVICES = {
    "mub-5": ("measurements", lambda: _mubs(5)),
    "identity-pair-6": ("channels", lambda: _identities(2, 6)),
    "identity-pair-7": ("channels", lambda: _identities(2, 7)),
    "identity-pair-8": ("channels", lambda: _identities(2, 8)),
    "two-random-2-to-20": ("channels", _random_channels),
    # one joint block on (C^2)^10: the figure is almost all the interior-point step's block matrices
    "nine-qubit-identities": ("channels", lambda: _identities(9, 2)),
}


def _peak_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_one(name):
    """Solve one device in this process and print its JSON line."""
    sys.path.insert(0, str(SRC))
    import qincompat as q
    from qincompat.compat import device_family, require_size

    baseline = _peak_mib()
    kind, make = DEVICES[name]
    members = make()
    povms = members.povms if kind == "measurements" else members
    figure = require_size(*device_family(povms, kind)[:2]) / 2**20
    solve = q.robustness_measurements if kind == "measurements" else q.robustness_channels_primal
    start = time.perf_counter()
    rep = solve(members)
    wall = time.perf_counter() - start
    print(json.dumps({"device": name, "figure_mib": round(figure, 1), "wall_s": round(wall, 2),
                      "peak_rss_mib": round(_peak_mib(), 1), "baseline_mib": round(baseline, 1),
                      "robustness": rep.primal_value, "dual": rep.dual_value,
                      "relative_gap": rep.gap / (1 + abs(rep.primal_value)),
                      "iterations": [rep.solver["primal_iterations"], rep.solver["dual_iterations"]]}))


def check(r):
    """The bounds a device's result breaks, as a list of messages."""
    ratio = (r["peak_rss_mib"] - r["baseline_mib"]) / r["figure_mib"]
    r["rss_ratio"] = round(ratio, 2)
    broken = []
    if not r["relative_gap"] <= GAP_BOUND:
        broken.append(f"relative gap {r['relative_gap']:.1e} > {GAP_BOUND:g}")
    if not ratio <= RSS_RATIO:
        broken.append(f"peak RSS above baseline is {ratio:.2f} x the figure > {RSS_RATIO:g}")
    return broken


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("devices", nargs="*", default=DEFAULT, help=", ".join(DEVICES))
    parser.add_argument("--summary", help="append a Markdown table to this file")
    parser.add_argument("--one", choices=list(DEVICES), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        return run_one(args.one)
    unknown = sorted(set(args.devices) - set(DEVICES))
    if unknown:
        parser.error(f"unknown devices {unknown}; choose from {', '.join(DEVICES)}")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    rows, failed = [], False
    for name in args.devices:
        done = subprocess.run([sys.executable, __file__, "--one", name], env=env,
                              stdout=subprocess.PIPE, text=True)
        if done.returncode:
            rows.append(f"| {name} | | | | | | process exited {done.returncode} |")
            failed = True
            continue
        r = json.loads(done.stdout.splitlines()[-1])
        broken = check(r)
        failed |= bool(broken)
        print(json.dumps(r), flush=True)
        rows.append(f"| {name} | {r['figure_mib']} | {r['wall_s']} | {r['peak_rss_mib']} | "
                    f"{r['rss_ratio']} | {r['relative_gap']:.1e} | {'; '.join(broken) or 'ok'} |")
    if args.summary:
        with open(args.summary, "a") as f:
            f.write("### largest devices (1 BLAS thread)\n\n"
                    "| device | figure MiB | wall s | peak RSS MiB | (peak - baseline) / figure "
                    "| relative gap | result |\n| --- | --- | --- | --- | --- | --- | --- |\n")
            f.write("\n".join(rows) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
