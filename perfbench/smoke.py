"""Tiny-input smoke run of the benchmark.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json on a 300-node dataset, untraced and
traced, and checks that each run passes its output checks and that the
metrics it prints on its last line, which run.py names and gives units to
itself, are exactly the names and units that BENCHMARK.json lists for that
mode.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[section]}
            cmd = spec["command"] + ["--workload", wl["name"], "--seed", "1",
                                     "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=300)
            label = f"{wl['name']} trace {trace}"
            if proc.returncode != 0:
                print(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                print(f"{label}: result keys {sorted(result)}")
                return 1
            if got != want:
                print(f"{label}: metrics {got}\n  BENCHMARK.json {want}")
                return 1
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                print(f"{label}: correct {result['correct']}, attempted "
                      f"{result['attempted']}, failed {result['failed']}\n{proc.stderr}")
                return 1
            print(f"{label}: ok, {result['attempted']} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
