"""End-to-end and per-module benchmark of splitgnn split training.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hat_desk --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop: it writes the workload's
dataset directory from the seed (input preparation, not timed), sets up a
session from that directory several times, trains a fixed number of rounds
back to back, evaluates repeatedly, writes the reports, and checks the
outputs.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` the
same run is made with spans around every module boundary and the metrics are
the per-module ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread: the matrices are small, and on a 2-CPU box two threads
# made hat_desk's round time swing between 1.25 s and 2.0 s from run to run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread caps)

if not (SRC / "splitgnn" / "__init__.py").is_file():
    sys.exit(f"perfbench: no splitgnn sources under {SRC}; "
             "run it from a checkout of the repository")
sys.path.insert(0, str(SRC))

from splitgnn import crypto as C  # noqa: E402
from splitgnn import experiments as E  # noqa: E402
from splitgnn import graph as G  # noqa: E402
from splitgnn import models as M  # noqa: E402
from splitgnn import protocol as P  # noqa: E402
from splitgnn import tensor as TN  # noqa: E402
from splitgnn import transcript as T  # noqa: E402
from tracing import Tracer  # noqa: E402

perf = time.perf_counter


@dataclass(frozen=True)
class Workload:
    name: str
    node_scale: int          # multiplier on desk_scale_spec() node counts
    model: str
    hidden: int
    strategy: str            # experiments strategy name
    secure: bool
    batch_size: int
    optimizer: str           # the README says how these two were chosen
    learning_rate: float
    setups: int              # set-ups per run, spread over it; setup_s is their median
    round_ref_s: float       # one round on the reference 2-CPU box
    eval_ref_s: float        # one val + test evaluation pair on that box
    expected: tuple[str, ...]   # spans that must record calls when traced


COMMON_SPANS = ("graph.load", "graph.partition", "models.build",
                "models.encode_train", "models.encode_infer", "tensor.backward",
                "tensor.optimizer", "protocol.train_round", "protocol.server",
                "protocol.label", "protocol.route", "protocol.evaluate",
                "crypto.psi", "experiments.emit_report")
CRYPTO_SPANS = ("crypto.keygen", "crypto.secure_sum", "crypto.encrypt",
                "crypto.decrypt")

WORKLOADS = {
    w.name: w for w in (
        Workload("hat_desk", node_scale=1, model="hat", hidden=32,
                 strategy="split_c", secure=False, batch_size=64,
                 optimizer="adam", learning_rate=0.01, setups=10,
                 round_ref_s=1.7, eval_ref_s=1.3,
                 expected=COMMON_SPANS + ("graph.metapath",)),
        Workload("gcn_30k", node_scale=10, model="gcn", hidden=32,
                 strategy="split_w", secure=False, batch_size=64,
                 optimizer="sgd", learning_rate=0.05, setups=3,
                 round_ref_s=0.55, eval_ref_s=0.7,
                 expected=COMMON_SPANS),
        Workload("secure_avg", node_scale=1, model="gcn", hidden=8,
                 strategy="split_m", secure=True, batch_size=32,
                 optimizer="sgd", learning_rate=0.5, setups=12,
                 round_ref_s=2.4, eval_ref_s=0.04,
                 expected=COMMON_SPANS + CRYPTO_SPANS),
    )
}

# Share of --seconds spent training; the rest goes to evaluation.
TRAIN_SHARE = 0.75
PARTICIPANT_RATIO = [5.0, 5.0]
FLOAT_BYTES = 8

# Units of the end-to-end metrics; per-module units follow from their names
# (module_unit).  smoke.py compares what a run prints with BENCHMARK.json.
END_TO_END_UNITS = {
    "setup_s": "s", "round_p50_s": "s", "train_nodes_per_s": "nodes/s",
    "run_s": "s", "peak_rss_mb": "MiB", "bytes_per_round": "B",
    "val_f1": "ratio", "train_loss": "nats",
}


def module_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if "bytes" in name:
        return "B"
    return "count"


def work_size(wl: Workload, seconds: float, tiny: bool) -> tuple[int, int]:
    """Rounds and evaluation pairs (val, then test) for one run.

    The work is fixed by the arguments, never by the clock: a faster program
    finishes sooner instead of training more rounds, so val_f1, train_loss
    and the operation count depend on the seed alone.  The reference costs
    size it to about ``seconds`` of measured work on the reference box.
    """
    if tiny:
        return 6, 2
    rounds = max(3, round(seconds * TRAIN_SHARE / wl.round_ref_s))
    pairs = max(2, round(seconds * (1 - TRAIN_SHARE) / wl.eval_ref_s))
    return rounds, pairs


# ---------------------------------------------------------------------------
# inputs


def write_inputs(wl: Workload, seed: int, directory: Path, tiny: bool):
    """Write the workload's dataset directory; returns the counts written."""
    spec = E.desk_scale_spec()
    if tiny:
        spec.node_counts = {t: c // 10 for t, c in spec.node_counts.items()}
    else:
        spec.node_counts = {t: c * wl.node_scale for t, c in spec.node_counts.items()}
    bundle = G.generate_synthetic(spec, seed=seed)
    G.save_dataset(bundle, directory)
    return graph_counts(bundle.graph)


def graph_counts(graph) -> dict[str, int]:
    out = {"nodes": graph.num_nodes}
    out.update({r: len(rel) for r, rel in graph.relations.items()})
    return out


def count_lines(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def experiment_config(wl: Workload, seed: int):
    return E.ExperimentConfig(
        participants=len(PARTICIPANT_RATIO), ratio=list(PARTICIPANT_RATIO),
        model=wl.model, strategy=wl.strategy, seeds=[seed], hidden=wl.hidden,
        batch_size=wl.batch_size, optimizer=wl.optimizer,
        learning_rate=wl.learning_rate, secure=wl.secure, epochs=1)


def set_up(config, seed: int, data_dir: Path):
    """Dataset directory to an aligned session: the timed set-up."""
    bundle = G.load_dataset(data_dir)
    spec = G.PartitionSpec.from_ratio(config.ratio, bundle.graph.feature_dim,
                                      bundle.graph.relation_names(),
                                      label_holder=config.label_holder)
    views = G.vertical_partition(bundle, spec, seed=seed)
    session = P.SplitSession(views, config.session_config(seed))
    session.align()
    return bundle, session


def schedule(train_ids, batch_size: int, seed: int, rounds: int):
    """The batches SplitSession.train would feed, epoch after epoch."""
    out, epoch = [], 0
    while len(out) < rounds:
        out.extend(P.batch_schedule(train_ids, batch_size, epoch, seed))
        epoch += 1
    return out[:rounds]


# ---------------------------------------------------------------------------
# the measured run


@dataclass
class Run:
    wl: Workload
    seed: int
    config: object           # experiments.ExperimentConfig
    data_dir: Path
    written: dict[str, int]  # node and edge counts the generator wrote
    bundle: object           # the loaded graph.DatasetBundle
    session: object          # the trained protocol.SplitSession
    steps: list[int]         # the rounds that returned, by step number
    batches: list            # their batches
    losses: list[float]      # and their losses
    setup_rss_mb: float
    round_counts: list       # tracer counter deltas, one per round
    setup_times: list[float]
    round_times: list[float]
    metrics: dict[str, float]
    attempted: int
    failed: int


def attempt(failures: list, fn, *args):
    """Call ``fn``; on an exception, print it, count it and return None."""
    try:
        return fn(*args)
    except Exception:  # noqa: BLE001  (any failure of the program counts)
        failures.append(traceback.format_exc())
        print(f"operation failed:\n{failures[-1]}", file=sys.stderr)
        return None


def run_workload(wl: Workload, seed: int, seconds: float, work: Path,
                 tiny: bool, tracer=None) -> Run:
    rounds, pairs = work_size(wl, seconds, tiny)
    config = experiment_config(wl, seed)
    data_dir = work / "data"
    written = write_inputs(wl, seed, data_dir, tiny)

    setup_times = []

    def timed_setup():
        span = tracer.open("setup") if tracer else None
        t0 = perf()
        out = set_up(config, seed, data_dir)
        setup_times.append(perf() - t0)
        if tracer:
            tracer.close(span)
        return out

    bundle, session = timed_setup()
    setup_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    planned = schedule(bundle.train_ids, wl.batch_size, seed, rounds)
    # Evaluation pairs and the further set-ups are spread evenly between the
    # rounds, the last after the last round, so that rounds, evaluations and
    # set-ups all sample the whole run rather than one stretch of the CPU's
    # drift.  A further set-up's session is dropped outside the timing.
    steps, batches, losses, round_times, round_counts = [], [], [], [], []
    failures: list[str] = []
    val_f1 = test_f1 = None
    eval_time, evals_done, setups_done = 0.0, 0, 1
    for step, batch in enumerate(planned):
        before = tracer.counts.copy() if tracer else None
        t0 = perf()
        loss = attempt(failures, session.train_round, batch, step)
        round_times.append(perf() - t0)
        if tracer:
            round_counts.append(tracer.counts - before)
        if loss is not None:
            steps.append(step)
            batches.append(batch)
            losses.append(loss)
        due = pairs * (step + 1) // rounds
        t0 = perf()
        for _ in range(due - evals_done):
            val = attempt(failures, session.evaluate, "val")
            test = attempt(failures, session.evaluate, "test")
            val_f1 = val_f1 if val is None else val
            test_f1 = test_f1 if test is None else test
        eval_time += perf() - t0
        evals_done = due
        while setups_done < 1 + (wl.setups - 1) * (step + 1) // rounds:
            timed_setup()
            setups_done += 1
    if not losses or val_f1 is None:
        raise RuntimeError(f"{len(failures)} operations failed, leaving nothing "
                           "to measure")

    t0 = perf()
    row = E.MetricsRow(
        digest=config.digest(seed), strategy=config.strategy, model=config.model,
        participants=config.participants,
        ratio=":".join(f"{r:g}" for r in config.ratio), seed=seed, epoch=0,
        train_loss=statistics.fmean(losses), val_f1=val_f1,
        test_f1=test_f1, label_access="native", wall_time=sum(round_times))
    params = E.count_params([p.trainable() for p in session.participants]
                            + [session.server_params])
    cost = E.CostReport(
        strategy=config.strategy, model=config.model,
        participants=config.participants, batch_size=config.batch_size,
        hidden=config.hidden, model_params=params, rounds=rounds,
        sl_bytes=E.comm_cost_sl(session.transcript),
        fl_bytes=E.comm_cost_fl(config.participants, params, rounds),
        secure=config.secure)
    E.emit_report([row], cost, work / "report")
    session.transcript.save(work / "report" / "transcript.csv")
    report_time = perf() - t0

    train_bytes = sum(r.bytes for r in session.transcript.records if r.round >= 0)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "round_p50_s": statistics.median(round_times),
        "train_nodes_per_s": sum(len(b) for b in batches) / sum(round_times),
        "run_s": statistics.median(setup_times) + sum(round_times) + eval_time
                 + report_time,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "bytes_per_round": train_bytes / len(steps),
        "val_f1": val_f1,
        "train_loss": statistics.fmean(losses),
    }
    return Run(wl, seed, config, data_dir, written, bundle, session, steps,
               batches, losses, setup_rss, round_counts, setup_times,
               round_times, metrics, attempted=rounds + 2 * pairs,
               failed=len(failures))


# ---------------------------------------------------------------------------
# output checks


def closed_form_bytes(run: Run) -> float:
    """Per-round transcript bytes from the config and the batch sizes alone.

    Each round, for P participants, batch n and hidden d with the cut at the
    hidden layer: P uplinks of n*d values, one n*d hidden state to the label
    holder, one n*d gradient back, and P n*d gradients down.  A plaintext
    value is 8 bytes; an encrypted one is a 4-byte length plus n^2's bytes.
    """
    session, config = run.session, run.config
    parties = config.participants
    d = config.hidden
    if config.secure:
        n = session.keypair.public.n
        up = 4 + ((n * n).bit_length() + 7) // 8
    else:
        up = FLOAT_BYTES
    total = sum(len(b) * d * (parties * up + (parties + 2) * FLOAT_BYTES)
                for b in run.batches)
    return total / len(run.batches)


def plaintext_losses(run: Run) -> list[float]:
    """The same seeds and batches on a plaintext session."""
    config = E.ExperimentConfig.from_json({**run.config.to_json(), "secure": False})
    _, session = set_up(config, run.seed, run.data_dir)
    return [session.train_round(b, step) for step, b in zip(run.steps, run.batches)]


def audit_problems(run: Run) -> list[str]:
    session, config = run.session, run.config
    steps = run.steps
    transcript = session.transcript
    if run.wl.node_scale > 1:
        # The raw-id scan costs ids x payload bytes: minutes on the 30k PSI
        # digests.  Audit the training rounds there (see README).
        kept = T.RoundTranscript(context=transcript.context)
        kept.records = [r for r in transcript.records if r.round >= 0]
        kept.decryptions = transcript.decryptions
        transcript = kept
    report = C.transcript_audit(transcript)
    problems = []
    if config.secure:
        if not report.ok:
            problems.append(f"secure audit not clean: {report.render()}")
        per_round = [sum(1 for ev in transcript.decryptions
                         if ev.round == r and ev.aggregated) for r in steps]
        if per_round != [1] * len(steps) or len(transcript.decryptions) != len(steps):
            problems.append(f"aggregated decryptions per round: {per_round}")
    else:
        kinds = {f.kind for f in report.findings}
        pairs = sorted((r.round, r.sender) for r in transcript.records
                       if r.kind == "embedding")
        expect = sorted((r, f"party_{i}") for r in steps
                        for i in range(config.participants))
        if kinds != {"plaintext_embedding"} or len(report.findings) != len(expect) \
                or pairs != expect:
            problems.append(f"plaintext audit: {len(report.findings)} findings "
                            f"{sorted(kinds)}, expected {len(expect)} plaintext_embedding")
    return problems


def check(run: Run) -> list[str]:
    """Every failed output check, as a message; empty when all hold."""
    problems = []
    bundle, wrote, data_dir = run.bundle, run.written, run.data_dir
    files = {r: count_lines(data_dir / f"edges_{r}.tsv") for r in wrote if r != "nodes"}
    files["nodes"] = count_lines(data_dir / "nodes.tsv")
    loaded = graph_counts(bundle.graph)
    if not loaded == files == wrote:
        problems.append(f"dataset counts: generated {wrote}, files {files}, loaded {loaded}")

    got = run.metrics["bytes_per_round"]
    want = closed_form_bytes(run)
    if got != want:
        problems.append(f"bytes_per_round {got} != closed form {want}")

    if not all(math.isfinite(x) for x in run.losses):
        problems.append(f"non-finite training loss: {run.losses}")
    if run.config.secure:
        # fixed-point encoding rounds each uplink value by at most
        # 2^-(scale_bits+1); the losses seen differ by about a tenth of this
        tol = 2.0 ** -run.config.scale_bits
        plain = plaintext_losses(run)
        worst = max(abs(a - b) for a, b in zip(run.losses, plain))
        print(f"secure vs plaintext loss gap: {worst:.3g} (tolerance {tol:.3g})")
        if worst > tol:
            problems.append(f"secure losses differ from plaintext by {worst:.3g} > {tol:.3g}")

    problems.extend(audit_problems(run))

    session = run.session
    val = bundle.val_ids
    truth = bundle.graph.labels[val]
    accuracy = float(np.mean(session.predict(val) == truth))
    val_f1 = run.metrics["val_f1"]
    if abs(accuracy - val_f1) > 1e-12:
        problems.append(f"val_f1 {val_f1} != accuracy {accuracy}")
    majority = np.bincount(truth).max() / len(truth)
    if not val_f1 > majority:
        problems.append(f"val_f1 {val_f1} not above majority share {majority}")
    return problems


# ---------------------------------------------------------------------------
# per-module metrics


def install(tracer) -> None:
    """Wrap each public function where its caller looks it up."""
    def encode(args):
        return "models.encode_train" if args[1] is not None else "models.encode_infer"

    tracer.wrap(G, "load_dataset", "graph.load")
    tracer.wrap(G, "vertical_partition", "graph.partition")
    tracer.wrap(M, "metapath_edges", "graph.metapath")
    tracer.wrap(P, "make_encoder", "models.build")
    for cls in M.ENCODERS.values():
        tracer.wrap(cls, "forward", encode)
    tracer.wrap(TN.Tape, "backward", "tensor.backward",
                count=("tensor.tape_ops", lambda a: len(a[0])))
    tracer.wrap(TN.Sgd, "step", "tensor.optimizer")
    tracer.wrap(TN.Adam, "step", "tensor.optimizer")
    for fn in ("segment_sum", "segment_softmax"):
        tracer.count_calls(TN, fn, "tensor.segment_rows", lambda a: len(a[2]))
    tracer.wrap(P.SplitSession, "train_round", "protocol.train_round")
    tracer.wrap(P.SplitSession, "evaluate", "protocol.evaluate")
    tracer.wrap(P.ServerNet, "forward", "protocol.server")
    tracer.wrap(P, "label_forward_loss", "protocol.label")
    tracer.wrap(P, "backward_route", "protocol.route")
    tracer.wrap(C, "keygen", "crypto.keygen")
    tracer.wrap(C, "psi_align", "crypto.psi")
    tracer.wrap(C, "secure_sum", "crypto.secure_sum")
    tracer.wrap(C, "encrypt", "crypto.encrypt")
    tracer.wrap(C, "decrypt", "crypto.decrypt")
    tracer.wrap(E, "emit_report", "experiments.emit_report")


def per_module(run: Run, tracer) -> dict[str, float]:
    missing = [s for s in run.wl.expected if tracer.calls(s) == 0]
    if missing:
        raise RuntimeError(f"traced run recorded no call of {missing}")

    def median_of(root_name, span, part=0):
        vals = [tracer.within(i).get(span, [0.0, 0.0, 0])[part]
                for i in tracer.roots(root_name)]
        return statistics.median(vals)

    def per_round(counter):
        return statistics.fmean(c[counter] for c in run.round_counts)

    rounds = len(run.steps)
    records = [r for r in run.session.transcript.records if r.round >= 0]
    out = {
        "graph.load_s": median_of("setup", "graph.load"),
        "graph.partition_s": median_of("setup", "graph.partition"),
        "graph.metapath_s": median_of("setup", "graph.metapath"),
        "models.build_s": median_of("setup", "models.build"),
        "models.encode_train_s": median_of("protocol.train_round", "models.encode_train"),
        "models.encode_infer_s": median_of("protocol.evaluate", "models.encode_infer"),
        "tensor.backward_s": median_of("protocol.train_round", "tensor.backward"),
        "tensor.optimizer_s": median_of("protocol.train_round", "tensor.optimizer"),
        "tensor.tape_ops_per_round": per_round("tensor.tape_ops"),
        "tensor.segment_rows_per_round": per_round("tensor.segment_rows"),
        "protocol.server_s": median_of("protocol.train_round", "protocol.server"),
        "protocol.label_s": median_of("protocol.train_round", "protocol.label"),
        "protocol.route_s": median_of("protocol.train_round", "protocol.route"),
        "protocol.round_self_s": median_of("protocol.train_round",
                                           "protocol.train_round", part=1),
        "protocol.eval_s": median_of("protocol.evaluate", "protocol.evaluate"),
        "crypto.keygen_s": median_of("setup", "crypto.keygen"),
        "crypto.psi_s": median_of("setup", "crypto.psi"),
        "crypto.encrypt_s": median_of("protocol.train_round", "crypto.encrypt"),
        "crypto.encrypts_per_round": median_of("protocol.train_round",
                                               "crypto.encrypt", part=2),
        "crypto.decrypt_s": median_of("protocol.train_round", "crypto.decrypt"),
        "crypto.decrypts_per_round": median_of("protocol.train_round",
                                               "crypto.decrypt", part=2),
        "crypto.secure_sum_self_s": median_of("protocol.train_round",
                                              "crypto.secure_sum", part=1),
        "transcript.records_per_round": len(records) / rounds,
    }
    for kind in ("embedding", "ciphertext", "hidden", "gradient"):
        out[f"transcript.bytes_per_round.{kind}"] = \
            sum(r.bytes for r in records if r.kind == kind) / rounds
    out["transcript.psi_bytes"] = run.session.transcript.total_bytes("psi")
    out["experiments.report_s"] = sum(
        tracer.spans[i][3] - tracer.spans[i][2]
        for i in tracer.roots("experiments.emit_report"))
    out["setup.rss_mb"] = run.setup_rss_mb
    return out


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few rounds on 300 nodes, for the smoke run")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-{args.seed}-", dir=scratch))
    tracer = Tracer() if args.trace else None
    try:
        if tracer:
            install(tracer)
        try:
            run = run_workload(wl, args.seed, args.seconds, work, args.tiny, tracer)
        finally:
            if tracer:
                tracer.unwrap_all()  # the checks below run untraced
        metrics = per_module(run, tracer) if tracer else run.metrics
        problems = check(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    unit = module_unit if tracer else END_TO_END_UNITS.__getitem__
    print(f"{wl.name} seed {args.seed}, trace {args.trace}: "
          f"run_s {run.metrics['run_s']:.3f}; set-ups "
          f"{' '.join(f'{t:.3f}' for t in run.setup_times)}; rounds "
          f"{' '.join(f'{t:.3f}' for t in run.round_times)}")
    # correct speaks of the operations that returned; those that raised are
    # counted in failed
    print(json.dumps({
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
