"""Command-line entry points: run experiments, audit transcripts, generate data.

Exit codes: 0 success, 1 configuration error, 2 runtime error, 3 audit
findings present.  A usage error, such as a missing required flag or an
unknown command, is a configuration error: it exits 1 with ``config error:
<prog>: ...``.  A config or synthetic spec is checked field by field as
it loads, so a mistake in one exits 1 with ``config error: <field>: ...``
before any data is generated or read.  An input file (config, spec, dataset
file, transcript CSV or its sidecar) that cannot be opened, is not valid
UTF-8 or does not parse exits 1 with ``config error:
<path>[:line[:col]]: ...``.  The ``--out`` directory is made next, so an
unusable one exits 1 with ``config error: --out: ...`` before the work.  Any
other ``OSError``, such as a failed report write, is a traceback.

Every integer read from text is read by ``errors.canonical_int`` and must
be written as ``str`` writes an int: an optional ``-``, then ASCII digits
with no leading zero.  That holds for ``--seeds`` and ``--seed`` here as for
a ``labels.tsv`` class index, a transcript's ``round``, ``elements`` and
``bytes``, its sidecar's payload keys and the ``i`` of ``standalone_<i>``;
``-0``, ``+1``, ``01``, ``1_0``, padding and non-ASCII digits exit 1.
argparse reads a value that starts with ``-`` as a flag, so a seed list
that starts with a negative seed is written ``--seeds=-1,2``; ``--seeds
-1,2`` is a usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .crypto import transcript_audit
from .errors import ConfigError, ParseError, SplitGnnError, canonical_int, read_json
from .experiments import ExperimentConfig, emit_report, run_experiment, run_grid
from .graph import SyntheticSpec, generate_synthetic, save_dataset
from .transcript import RoundTranscript

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_FINDINGS = 3


class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration error, exit 1, not argparse's exit 2;
    ``add_subparsers`` makes each command's parser of this class too."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="splitgnn",
        description="Split-learning GNN simulator over vertically partitioned graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment config or a grid")
    run.add_argument("--config", required=True, help="experiment config JSON")
    run.add_argument("--out", default="results", help="output directory")
    run.add_argument("--seeds", help="comma-separated seed overrides; write a list "
                     "that starts with a negative seed as --seeds=-1,2")
    run.add_argument("--secure", action="store_true",
                     help="encrypt embedding uplinks")
    run.add_argument("--grid", choices=["table1", "table2", "table3", "cost"],
                     help="run a predefined grid instead of a single strategy")

    audit = sub.add_parser("audit", help="audit a transcript CSV for leaks")
    audit.add_argument("--transcript", required=True)

    gen = sub.add_parser("gen-synthetic", help="write a synthetic dataset directory")
    gen.add_argument("--spec", required=True, help="synthetic spec JSON")
    gen.add_argument("--out", required=True, help="dataset directory to create")
    gen.add_argument("--seed", default="0", help="integer seed of the generator")
    return parser


def _out_dir(path) -> Path:
    """The ``--out`` directory, made before any work is done for it."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: {exc}") from None
    return path


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_json(read_json(args.config))
    if args.seeds is not None:
        seeds = [canonical_int(s) for s in args.seeds.split(",")]
        if None in seeds:
            raise ConfigError(f"--seeds must be comma-separated integers, "
                              f"got {args.seeds!r}")
        config = replace(config, seeds=seeds)
    if args.secure:
        config = replace(config, secure=True)
    out = _out_dir(args.out)
    if args.grid:
        rows, costs, transcript = run_grid(config, args.grid)
    else:
        rows, cost, transcript = run_experiment(config)
        costs = [cost]
    metrics_path, cost_path = emit_report(rows, costs, out)
    if transcript is not None:
        transcript.save(out / "transcript.csv")
    print(f"wrote {metrics_path} ({len(rows)} rows) and {cost_path} ({len(costs)} rows)")
    return EXIT_OK


def _cmd_audit(args) -> int:
    transcript = RoundTranscript.load(args.transcript)
    report = transcript_audit(transcript)
    print(report.render())
    return EXIT_OK if report.ok else EXIT_FINDINGS


def _cmd_gen(args) -> int:
    seed = canonical_int(args.seed)
    if seed is None:
        raise ConfigError(f"--seed must be an integer, got {args.seed!r}")
    spec = SyntheticSpec.from_json(read_json(args.spec))
    out = _out_dir(args.out)
    bundle = generate_synthetic(spec, seed=seed)
    save_dataset(bundle, out)
    g = bundle.graph
    print(f"wrote {args.out}: {g.num_nodes} nodes, "
          f"{sum(len(r) for r in g.relations.values())} edges, "
          f"{len(bundle.metapaths)} metapaths")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "audit":
            return _cmd_audit(args)
        return _cmd_gen(args)
    except (ConfigError, ParseError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SplitGnnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
