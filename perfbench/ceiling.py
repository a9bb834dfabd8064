"""Scaling ceiling, measured once and outside the workloads: robustness of
two identity channels on C^4 (primal and independent dual), with its wall
time, iteration count and the peak resident memory of the process.

    python3 perfbench/ceiling.py
"""

import json
import resource
import time

from run import BLAS_THREADS, import_package  # sets the BLAS thread count first

import checks

DIM = 4  # the largest size ROADMAP.md times (48.6 s)


def main():
    q = import_package()
    start = time.perf_counter()
    rep = q.robustness_channels_primal([q.identity_channel(DIM), q.identity_channel(DIM)])
    wall = time.perf_counter() - start
    print(json.dumps({
        "dim": DIM,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "primal_iterations": rep.solver["primal_iterations"],
        "robustness": rep.primal_value,
        "closed_form_error": abs(rep.primal_value - checks.identity_pair(DIM)),
        "relative_gap": checks.relative_gap(rep.primal_value, rep.dual_value),
        "blas_threads": BLAS_THREADS,
    }))


if __name__ == "__main__":
    main()
