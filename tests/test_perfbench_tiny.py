"""The benchmark's tiny runs: each workload finishes, passes its own output
checks, and prints the metrics BENCHMARK.json names.  Each tiny run takes
about 2 s on a 2-CPU box, secure_avg's 512-bit Paillier included.  A tiny
graph's edge lists fit in one ``models.EDGE_BUDGET`` range, so one tiny hat
run, in process, lowers the budget to run its training in many ranges.  A
round that fails is one failed operation and nothing more, so tiny runs in
which one round raises still pass every output check.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import load_run_module
from splitgnn import models as M
from splitgnn import protocol as P

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


def test_tiny_hat_run_in_edge_ranges(monkeypatch, tmp_path):
    """The hat workload's output checks hold with its training and
    evaluation layers run in 64-edge ranges: closed-form bytes, the audit,
    val_f1 equal to accuracy and finite losses."""
    run = load_run_module()
    taped = []
    attention_layer = M._attention_layer

    def recorded(tape, edge_seg, own, *rest):
        if tape is not None:
            taped.append(len(M._target_ranges(edge_seg, own.shape[0])))
        return attention_layer(tape, edge_seg, own, *rest)

    monkeypatch.setattr(M, "EDGE_BUDGET", 64)
    monkeypatch.setattr(M, "_attention_layer", recorded)
    result = run.run_workload(run.WORKLOADS["hat_desk"], 1, 1.0, tmp_path, tiny=True)
    assert run.check(result) == []
    assert result.failed == 0
    assert max(taped) > 1


@pytest.mark.parametrize("workload", ["hat_desk", "secure_avg"])
def test_a_failed_round_is_one_failed_operation(monkeypatch, tmp_path, workload):
    """Step 2's round raises once, after its uplink was sent (and, when
    secure, decrypted): the run counts one failed operation, and the later
    rounds keep their step numbers and blinding, so the audit and every
    other output check still hold."""
    run = load_run_module()
    forward = P.ServerNet.forward
    raised = []

    def failing_once(server, tape, x, step=0, training=False):
        if training and step == 2 and not raised:
            raised.append(step)
            raise RuntimeError("injected fault")
        return forward(server, tape, x, step=step, training=training)

    monkeypatch.setattr(P.ServerNet, "forward", failing_once)
    result = run.run_workload(run.WORKLOADS[workload], 1, 1.0, tmp_path, tiny=True)
    assert raised == [2]
    assert result.failed == 1
    assert 2 not in result.steps and result.steps[:2] == [0, 1] and len(result.steps) > 2
    assert run.check(result) == []
