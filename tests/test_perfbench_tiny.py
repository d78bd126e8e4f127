"""The benchmark's tiny runs: each workload finishes, passes its own output
checks, and prints the metrics BENCHMARK.json names.  Each tiny run takes
about 2 s on a 2-CPU box, secure_avg's 512-bit Paillier included.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", ["hat_desk", "gcn_30k", "secure_avg"])
def test_tiny_run(workload, trace, section):
    assert workload in {w["name"] for w in SPEC["workloads"]}
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--tiny",
           "--seconds", "1", "--seed", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] > 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC[section]}
