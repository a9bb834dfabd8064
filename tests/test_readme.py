"""The README's library quick start runs as written and gives the values
its comments state."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 2
    ns = {}
    for block in blocks:
        exec(block, ns)
    q = ns["q"]
    assert abs(ns["rep"].primal_value - 1 / 3) < 1e-6
    assert abs(q.advantage_ratio(ns["game"], ns["meas"], ns["strat"], "channels") - 4 / 3) < 1e-5
    assert abs(q.robustness_measurements(ns["zx"]).primal_value - (3 - 2 * np.sqrt(2))) < 1e-6
    ratio = q.advantage_ratio(ns["mgame"], ns["zx"], q.Strategy(measurements=ns["zx"]), "measurements")
    assert abs(ratio - (4 - 2 * np.sqrt(2))) < 1e-5
