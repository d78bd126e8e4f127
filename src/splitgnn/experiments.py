"""Config-driven experiment runner and communication-cost accounting.

Strategies:
  - ``entire``        one model trained on the unpartitioned graph
  - ``standalone_i``  participant i trains alone on its private view,
                      partitioned with i as the label holder (label access
                      is granted when i is not the configured label holder;
                      the metrics report marks those rows)
  - ``split_m/c/w``   the full split protocol with average / concatenation /
                      trainable weighted combination; the server only sums
                      the participants' terms, each an embedding through its
                      participant's own map: a fixed ω = 1/I under average,
                      a trained ω under weighted, and under concatenation a
                      row block of the server's first-layer weight

Every strategy trains a :class:`SplitSession`; the two baselines are
sessions with a single participant, kept plaintext and unmetered, so they
report no transcript and no bytes.  That a one-participant session matches
one model on one tape is checked against the oracle in
``tests/test_protocol.py``.

:class:`ExperimentConfig` is a run's one schema: each field declares its
rule next to it, and a config that breaks one, or a rule joining fields, is
refused as it is built.  The encoder and session configs are views of it.

The federated-learning comparator is a closed-form byte model (each
participant uploads and downloads the full parameter vector every round);
split-learning bytes are measured off the session transcript.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path

from .crypto import SCALE_BITS, VALID_KEY_BITS
from .errors import (BOOL, TEXT, ConfigError, Rule, Schema, canonical_int, checked, choice,
                     integer, list_of, number, optional)
from .graph import (DatasetBundle, PartitionSpec, RelationSpec, SyntheticSpec,
                    generate_synthetic, load_dataset, vertical_partition)
from .models import ENCODERS, EncoderConfig
from .protocol import SessionConfig, SplitSession
from .tensor import OPTIMIZERS
from .transcript import FLOAT_BYTES, RoundTranscript

STRATEGY_MAP = {"split_m": "average", "split_c": "concat", "split_w": "weighted"}


def _standalone_index(strategy: str) -> int | None:
    """i for ``standalone_i``, with i a :func:`canonical_int` of at least 0;
    None for any other strategy name, so each participant has one name."""
    prefix, _, index = strategy.partition("_")
    i = canonical_int(index) if prefix == "standalone" else None
    return i if i is not None and i >= 0 else None


def desk_scale_spec() -> SyntheticSpec:
    """The default benchmark: large enough to show the trends, small enough
    that a full grid runs in minutes."""
    return SyntheticSpec(
        node_counts={"a": 1200, "b": 1000, "c": 800},
        relations=[
            RelationSpec("aa", "a", "a", edge_dim=4, avg_degree=4.0, symmetric=True),
            RelationSpec("ab", "a", "b", edge_dim=4, avg_degree=3.0),
            RelationSpec("ba", "b", "a", edge_dim=4, avg_degree=3.0),
            RelationSpec("bc", "b", "c", edge_dim=4, avg_degree=2.0),
        ],
        feature_dim=64,
        num_classes=3,
        homophily=0.8,
    )


@dataclass
class ExperimentConfig(Schema):
    dataset: str | None = checked(optional(TEXT), None)
    synthetic: dict | None = checked(Rule(
        "null or a synthetic spec", lambda x: x is None or bool(SyntheticSpec.from_json(x))),
        None)
    data_seed: int = checked(integer(), 0)
    participants: int = checked(integer(">= 1"), 2)
    ratio: list[float] = checked(list_of(number("> 0")), factory=lambda: [5.0, 5.0])
    label_holder: int = checked(integer(">= 0"), 0)
    model: str = checked(choice(ENCODERS), "hat")
    strategy: str = checked(Rule(
        f"one of {('entire', 'standalone_<i>', *STRATEGY_MAP)}", lambda x: type(x) is str and (
            x == "entire" or x in STRATEGY_MAP or _standalone_index(x) is not None)), "split_c")
    seeds: list[int] = checked(list_of(integer()), factory=lambda: [0])
    batch_size: int = checked(integer(">= 1"), 64)
    epochs: int = checked(integer(">= 1"), 5)
    rounds_per_epoch: int | None = checked(optional(integer(">= 1")), None)
    learning_rate: float = checked(number("> 0"), 0.1)
    optimizer: str = checked(choice(OPTIMIZERS), "sgd")
    hidden: int = checked(integer(">= 1"), 32)
    layers: int = checked(integer(">= 1"), 2)
    heads: int = checked(integer(">= 1"), 2)
    secure: bool = checked(BOOL, False)
    key_bits: int = checked(choice(VALID_KEY_BITS), 512)

    def __post_init__(self):
        super().__post_init__()
        if self.dataset is not None and self.synthetic is not None:
            raise ConfigError("dataset, synthetic: a run reads a dataset directory or "
                              "generates a synthetic spec, not both")
        if len(self.ratio) != self.participants:
            raise ConfigError(f"ratio: has {len(self.ratio)} entries for "
                              f"{self.participants} participants")
        if self.label_holder >= self.participants:
            raise ConfigError(f"label_holder: no participant {self.label_holder} "
                              f"among {self.participants}")
        alone = _standalone_index(self.strategy)
        if alone is not None and alone >= self.participants:
            raise ConfigError(f"strategy: no participant {alone} to run standalone among "
                              f"{self.participants}")

    @property
    def scale_bits(self) -> int:
        """Fixed-point fraction bits, fixed at ``crypto.SCALE_BITS``; read by
        ``perfbench/run.py``'s secure-vs-plaintext loss tolerance."""
        return SCALE_BITS

    def to_json(self) -> dict:
        return asdict(self)

    def digest(self, seed: int) -> str:
        payload = json.dumps({**self.to_json(), "seeds": [seed]}, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(kind=self.model, layers=self.layers, hidden=self.hidden,
                             heads=self.heads)

    def session_config(self, seed: int) -> SessionConfig:
        # a baseline is a one-participant session under concat: its
        # participant holds the server's whole first-layer weight, so it
        # trains as one model, where weighted would add an ω
        return SessionConfig(
            encoder=self.encoder_config(),
            strategy=STRATEGY_MAP.get(self.strategy, "concat"),
            batch_size=self.batch_size,
            epochs=self.epochs,
            learning_rate=self.learning_rate,
            optimizer=self.optimizer,
            secure=self.secure and self.strategy in STRATEGY_MAP,
            seed=seed,
            key_bits=self.key_bits,
            rounds_per_epoch=self.rounds_per_epoch,
        )


@dataclass
class MetricsRow:
    digest: str
    strategy: str
    model: str
    participants: int
    ratio: str
    seed: int
    epoch: int
    train_loss: float
    val_f1: float
    test_f1: float
    label_access: str
    wall_time: float  # kept in memory; excluded from the CSV for determinism


@dataclass
class CostReport:
    strategy: str
    model: str
    participants: int
    batch_size: int
    hidden: int
    model_params: int
    rounds: int
    sl_bytes: int
    fl_bytes: int
    secure: bool
    psi_bytes: int = 0   # the one-off alignment (round -1), inside sl_bytes

    @property
    def sl_bytes_per_round(self) -> float:
        return (self.sl_bytes - self.psi_bytes) / self.rounds if self.rounds else 0.0

    @property
    def fl_bytes_per_round(self) -> float:
        return self.fl_bytes / self.rounds if self.rounds else 0.0


def comm_cost_fl(participants: int, model_params: int, rounds: int) -> int:
    """Modeled FL bytes: full parameter vector up and down, per participant,
    per round, 8-byte elements."""
    if participants <= 0 or model_params <= 0 or rounds <= 0:
        raise ConfigError("participants, model size and rounds must be positive")
    return rounds * 2 * participants * model_params * FLOAT_BYTES


def comm_cost_sl(transcript: RoundTranscript) -> int:
    """Measured split-learning bytes: the exact sum over transcript records."""
    return transcript.total_bytes()


def count_params(param_dicts) -> int:
    total = 0
    for params in param_dicts:
        total += sum(p.values.size for p in params.values())
    return total


# ---------------------------------------------------------------------------
# single-config runner


def _load_bundle(config: ExperimentConfig) -> DatasetBundle:
    if config.dataset:
        return load_dataset(config.dataset)
    spec = SyntheticSpec.from_json(config.synthetic) if config.synthetic is not None \
        else desk_scale_spec()
    return generate_synthetic(spec, seed=config.data_seed)


def _strategy_views(config: ExperimentConfig, bundle: DatasetBundle):
    """The views the strategy's session trains on, and how its label holder
    reads labels: the whole graph as participant 0 for ``entire``,
    participant i's view alone for ``standalone_i``, every view for a split.
    Participant i's standalone view comes from a partition with i as the
    label holder, a simulation concession ("granted") unless i holds the
    labels anyway; edge dealing does not depend on the label holder."""
    g = bundle.graph
    if config.strategy == "entire":
        spec = PartitionSpec.from_ratio([1.0], g.feature_dim, g.relation_names())
        return vertical_partition(bundle, spec, seed=config.data_seed), "native"
    alone = _standalone_index(config.strategy)
    holder = config.label_holder if alone is None else alone
    spec = PartitionSpec.from_ratio(config.ratio, g.feature_dim, g.relation_names(),
                                    label_holder=holder)
    views = vertical_partition(bundle, spec, seed=config.data_seed)
    if alone is None:
        return views, "native"
    return [views[alone]], "native" if alone == config.label_holder else "granted"


def run_experiment(config: ExperimentConfig, bundle: DatasetBundle | None = None):
    """Execute the configured strategy for every seed, on ``bundle`` when
    the caller has loaded the config's data already, which the run only
    reads.

    Returns (metrics rows, cost report, transcript).  The cost report
    reflects the last seed's transcript; message counts and sizes are
    structural, so they are identical across seeds.  The baselines are
    unmetered and plaintext: they return no transcript and report no bytes
    or rounds, and their cost report says ``secure`` false.  ``entire``
    reports the one participant its session has, in its metrics rows and
    its cost report alike.
    """
    if bundle is None:
        bundle = _load_bundle(config)
    views, label_access = _strategy_views(config, bundle)
    metered = config.strategy in STRATEGY_MAP
    participants = len(views) if config.strategy == "entire" else config.participants
    rows: list[MetricsRow] = []
    last_transcript: RoundTranscript | None = None
    model_params = 0
    rounds_total = 0

    for seed in config.seeds:
        start = time.perf_counter()
        session = SplitSession(views, config.session_config(seed))
        history = session.train()
        elapsed = time.perf_counter() - start
        model_params = count_params(
            [p.trainable() for p in session.participants] + [session.server_params])
        if metered:
            last_transcript = session.transcript
            rounds_total = len({r.round for r in last_transcript.records if r.round >= 0})
        for h in history:
            rows.append(MetricsRow(
                digest=config.digest(seed),
                strategy=config.strategy,
                model=config.model,
                participants=participants,
                ratio=":".join(f"{r:g}" for r in config.ratio),
                seed=seed,
                epoch=h["epoch"],
                train_loss=h["train_loss"],
                val_f1=h["val_f1"],
                test_f1=h["test_f1"],
                label_access=label_access,
                wall_time=elapsed,
            ))

    sl_bytes = comm_cost_sl(last_transcript) if last_transcript is not None else 0
    psi_bytes = last_transcript.total_bytes("psi") if last_transcript is not None else 0
    fl_bytes = comm_cost_fl(config.participants, model_params, rounds_total) \
        if rounds_total else 0
    cost = CostReport(
        strategy=config.strategy,
        model=config.model,
        participants=participants,
        batch_size=config.batch_size,
        hidden=config.hidden,
        model_params=model_params,
        rounds=rounds_total,
        sl_bytes=sl_bytes,
        fl_bytes=fl_bytes,
        secure=config.secure and metered,
        psi_bytes=psi_bytes,
    )
    return rows, cost, last_transcript


# ---------------------------------------------------------------------------
# report emission


METRICS_COLUMNS = ("digest", "strategy", "model", "participants", "ratio",
                   "seed", "epoch", "train_loss", "val_f1", "test_f1",
                   "label_access")
COST_COLUMNS = ("strategy", "model", "participants", "batch_size", "hidden",
                "model_params", "rounds", "sl_bytes", "psi_bytes", "sl_bytes_per_round",
                "fl_bytes", "fl_bytes_per_round", "secure")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(rows, costs, out_dir) -> tuple[Path, Path]:
    """Write metrics.csv and cost.csv with stable columns and full precision.

    Re-running with identical inputs produces byte-identical files.
    """
    if not rows:
        raise ConfigError("no metrics rows to emit")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.csv"
    with open(metrics_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(METRICS_COLUMNS) + "\n")
        for r in rows:
            fh.write(",".join(_fmt(getattr(r, c)) for c in METRICS_COLUMNS) + "\n")
    cost_path = out_dir / "cost.csv"
    if isinstance(costs, CostReport):
        costs = [costs]
    with open(cost_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(COST_COLUMNS) + "\n")
        for c in costs:
            fh.write(",".join(_fmt(getattr(c, col)) for col in COST_COLUMNS) + "\n")
    return metrics_path, cost_path


# ---------------------------------------------------------------------------
# grids


def grid_configs(base: ExperimentConfig, grid: str) -> list[ExperimentConfig]:
    """The experiment grids: strategy comparison, participant scaling,
    distribution skew, and the communication-cost sweep."""
    variant = partial(replace, base)   # the base with overrides, checked again
    if grid == "table1":
        strategies = ["entire", "standalone_0", "standalone_1",
                      "split_m", "split_c", "split_w"]
        return [variant(strategy=s, participants=2, ratio=[5.0, 5.0])
                for s in strategies]
    if grid == "table2":
        return [variant(strategy="split_c", participants=i, ratio=[1.0] * i)
                for i in (2, 4, 8)]
    if grid == "table3":
        return [variant(strategy="split_c", participants=2, ratio=list(r))
                for r in ([5.0, 5.0], [3.0, 7.0], [1.0, 9.0])]
    if grid == "cost":
        out = []
        for i in (2, 4, 8):
            for model, hidden in (("gcn", 16), ("gcn", 64), ("hat", 64)):
                out.append(variant(
                    strategy="split_m", participants=i, ratio=[1.0] * i,
                    model=model, hidden=hidden, epochs=1, rounds_per_epoch=1,
                    seeds=[base.seeds[0]]))
        return out
    raise ConfigError(f"unknown grid {grid!r}")


def run_grid(base: ExperimentConfig, grid: str):
    """Every cell of the grid, on one bundle: the cells vary the strategy,
    the partition and the model, never the data, and only read it."""
    configs = grid_configs(base, grid)   # each checked before the data is built
    bundle = _load_bundle(base)
    all_rows, all_costs = [], []
    last_transcript = None
    for cfg in configs:
        rows, cost, transcript = run_experiment(cfg, bundle)
        all_rows.extend(rows)
        all_costs.append(cost)
        if transcript is not None:
            last_transcript = transcript
    return all_rows, all_costs, last_transcript
