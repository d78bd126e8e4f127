import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_run_module, read_metrics
from splitgnn import cli
from splitgnn import crypto as C
from splitgnn import experiments as E
from splitgnn.errors import ConfigError
from splitgnn.graph import RelationSpec, SyntheticSpec
from splitgnn.transcript import RoundTranscript

TOY = Path(__file__).parent / "fixtures" / "toy_dataset"


def small_synthetic_payload(**overrides):
    payload = {
        "node_counts": {"a": 60, "b": 40},
        "relations": [
            {"name": "aa", "src_type": "a", "dst_type": "a", "edge_dim": 2,
             "avg_degree": 3.0, "symmetric": True},
            {"name": "ab", "src_type": "a", "dst_type": "b", "edge_dim": 1,
             "avg_degree": 2.0, "symmetric": False},
            {"name": "ba", "src_type": "b", "dst_type": "a", "edge_dim": 1,
             "avg_degree": 2.0, "symmetric": False},
        ],
        "feature_dim": 8,
        "num_classes": 2,
        "homophily": 0.85,
    }
    payload.update(overrides)
    return payload


def small_config(**overrides):
    base = dict(
        synthetic=small_synthetic_payload(),
        data_seed=3,
        participants=2,
        ratio=[5.0, 5.0],
        model="gcn",
        strategy="split_c",
        seeds=[0],
        batch_size=16,
        epochs=2,
        learning_rate=0.1,
        hidden=8,
        layers=2,
        heads=1,
        server_dropout=0.0,
    )
    base.update(overrides)
    return E.ExperimentConfig.from_json(base)


def _not_called(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} called for a config that should fail at load")
    return fail


def _spec_case(**overrides):
    return {"synthetic": small_synthetic_payload(**overrides)}


def renamed_relations(name):
    """The relations of small_synthetic_payload with "ba" renamed to ``name``."""
    relations = small_synthetic_payload()["relations"]
    return [*relations[:2], {**relations[2], "name": name}]


DUPLICATE_RELATIONS = renamed_relations("ab")
BAD_RELATION_NAME = "name: must be a non-empty string without ',', '/', NUL or whitespace, got "
STRATEGY_NAMES = ("entire", "standalone_<i>", "split_m", "split_c", "split_w")
# (test id, config overrides, extra CLI arguments, stderr after "config error: "):
# a wrong type and, where a field has one, an out-of-range value for every
# ExperimentConfig field, and a breach of each rule that joins fields
CONFIG_MISTAKES = [
    ("dataset-not-text", {"dataset": 3}, [],
     "dataset: must be null or a non-empty string, got 3"),
    ("dataset-empty", {"dataset": ""}, [],
     "dataset: must be null or a non-empty string, got ''"),
    ("synthetic-not-object", {"synthetic": "abc"}, [],
     "synthetic: must be a JSON object, got 'abc'"),
    ("synthetic-bad-homophily", _spec_case(homophily="x"), [],
     "synthetic: homophily: must be a finite number >= 0 and <= 1, got 'x'"),
    ("synthetic-unknown-key", _spec_case(colour="red"), [],
     "synthetic: colour: no such field"),
    ("synthetic-empty-test-split", _spec_case(train_frac=0.9, val_frac=0.2), [],
     "synthetic: train_frac, val_frac: 0.9 and 0.2 of 100 nodes leave the test split empty"),
    ("synthetic-duplicate-relation", _spec_case(relations=DUPLICATE_RELATIONS), [],
     "synthetic: relations: duplicate relation name 'ab'"),
    ("synthetic-relation-name-comma", _spec_case(relations=renamed_relations("a,b")), [],
     "synthetic: relations: " + BAD_RELATION_NAME + "'a,b'"),
    ("synthetic-relation-name-slash", _spec_case(relations=renamed_relations("x/y")), [],
     "synthetic: relations: " + BAD_RELATION_NAME + "'x/y'"),
    ("synthetic-metapath-unknown-relation", _spec_case(metapaths=[["ab", "zz"]]), [],
     "synthetic: metapaths: metapath uses unknown relation 'zz'"),
    ("synthetic-metapath-types-do-not-meet", _spec_case(metapaths=[["ab", "ab"]]), [],
     "synthetic: metapaths: metapath ab+ab: ab starts at a, previous relation ends at b"),
    ("data-seed-not-int", {"data_seed": 1.5}, [], "data_seed: must be an integer, got 1.5"),
    ("participants-not-int", {"participants": "2"}, [],
     "participants: must be an integer >= 1, got '2'"),
    ("participants-zero", {"participants": 0}, [],
     "participants: must be an integer >= 1, got 0"),
    ("ratio-not-list", {"ratio": "5:5"}, [],
     "ratio: must be a non-empty list, each a finite number > 0, got '5:5'"),
    ("ratio-zero-share", {"ratio": [5.0, 0.0]}, [],
     "ratio: must be a non-empty list, each a finite number > 0, got [5.0, 0.0]"),
    ("ratio-length", {"ratio": [1.0, 1.0, 1.0]}, [], "ratio: has 3 entries for 2 participants"),
    ("label-holder-bool", {"label_holder": True}, [],
     "label_holder: must be an integer >= 0, got True"),
    ("label-holder-negative", {"label_holder": -1}, [],
     "label_holder: must be an integer >= 0, got -1"),
    ("label-holder-absent", {"label_holder": 2}, [], "label_holder: no participant 2 among 2"),
    ("model-not-text", {"model": 1}, [], "model: must be one of ('hat', 'gcn', 'gat'), got 1"),
    ("model-unknown", {"model": "transformer"}, [],
     "model: must be one of ('hat', 'gcn', 'gat'), got 'transformer'"),
    ("strategy-not-text", {"strategy": None}, [],
     f"strategy: must be one of {STRATEGY_NAMES}, got None"),
    ("unknown-standalone", {"strategy": "standalone_x"}, [],
     f"strategy: must be one of {STRATEGY_NAMES}, got 'standalone_x'"),
    ("absent-participant", {"strategy": "standalone_7"}, [],
     "strategy: no participant 7 to run standalone among 2"),
    ("seeds-not-list", {"seeds": 3}, [],
     "seeds: must be a non-empty list, each an integer, got 3"),
    ("seeds-empty", {"seeds": []}, [], "seeds: must be a non-empty list, each an integer, got []"),
    ("seeds-flag-not-int", {}, ["--seeds", "1,a"],
     "--seeds must be comma-separated integers, got '1,a'"),
    ("batch-size-not-int", {"batch_size": "64"}, [],
     "batch_size: must be an integer >= 1, got '64'"),
    ("batch-size-zero", {"batch_size": 0}, [], "batch_size: must be an integer >= 1, got 0"),
    ("epochs-not-int", {"epochs": 2.0}, [], "epochs: must be an integer >= 1, got 2.0"),
    ("epochs-zero", {"epochs": 0}, [], "epochs: must be an integer >= 1, got 0"),
    ("epochs-negative", {"epochs": -2}, [], "epochs: must be an integer >= 1, got -2"),
    ("rounds-not-int", {"rounds_per_epoch": "1"}, [],
     "rounds_per_epoch: must be null or an integer >= 1, got '1'"),
    ("rounds-zero", {"rounds_per_epoch": 0}, [],
     "rounds_per_epoch: must be null or an integer >= 1, got 0"),
    ("rounds-negative", {"rounds_per_epoch": -1}, [],
     "rounds_per_epoch: must be null or an integer >= 1, got -1"),
    ("learning-rate-not-number", {"learning_rate": "0.1"}, [],
     "learning_rate: must be a finite number > 0, got '0.1'"),
    ("learning-rate-negative", {"learning_rate": -1.0}, [],
     "learning_rate: must be a finite number > 0, got -1.0"),
    ("learning-rate-infinite", {"learning_rate": float("inf")}, [],
     "learning_rate: must be a finite number > 0, got inf"),
    ("optimizer-not-text", {"optimizer": ["sgd"]}, [],
     "optimizer: must be one of ('sgd', 'adam'), got ['sgd']"),
    ("unknown-optimizer", {"optimizer": "rmsprop"}, [],
     "optimizer: must be one of ('sgd', 'adam'), got 'rmsprop'"),
    ("hidden-not-int", {"hidden": 8.0}, [], "hidden: must be an integer >= 1, got 8.0"),
    ("hidden-zero", {"hidden": 0}, [], "hidden: must be an integer >= 1, got 0"),
    ("hidden-negative", {"hidden": -4}, [], "hidden: must be an integer >= 1, got -4"),
    ("layers-not-int", {"layers": 1.5}, [], "layers: must be an integer >= 1, got 1.5"),
    ("layers-zero", {"layers": 0}, [], "layers: must be an integer >= 1, got 0"),
    ("heads-not-int", {"heads": "2"}, [], "heads: must be an integer >= 1, got '2'"),
    ("heads-zero", {"heads": 0}, [], "heads: must be an integer >= 1, got 0"),
    # HAT has one fusion, sums its heads and scales scores by 1/sqrt(hidden):
    # a saved config that names a removed field is refused, whatever its value
    ("fusion-removed", {"fusion": "concat"}, [], "fusion: no such field"),
    ("head-mode-removed", {"head_mode": "sum"}, [], "head_mode: no such field"),
    ("temperature-removed", {"temperature": None}, [], "temperature: no such field"),
    ("dropout-not-number", {"dropout": "0.1"}, [],
     "dropout: must be a finite number >= 0 and < 1, got '0.1'"),
    ("dropout-above-1", {"dropout": 1.5}, [],
     "dropout: must be a finite number >= 0 and < 1, got 1.5"),
    ("server-dropout-bool", {"server_dropout": False}, [],
     "server_dropout: must be a finite number >= 0 and < 1, got False"),
    ("server-dropout-1", {"server_dropout": 1.0}, [],
     "server_dropout: must be a finite number >= 0 and < 1, got 1.0"),
    ("secure-string", {"secure": "false"}, [], "secure: must be true or false, got 'false'"),
    ("secure-int", {"secure": 1}, [], "secure: must be true or false, got 1"),
    ("key-bits-not-int", {"key_bits": "512"}, [],
     "key_bits: must be one of (512, 1024, 2048), got '512'"),
    ("key-bits-unknown", {"key_bits": 768}, [],
     "key_bits: must be one of (512, 1024, 2048), got 768"),
]


class TestConfig:
    def test_ratio_length_checked(self):
        with pytest.raises(ConfigError):
            small_config(participants=3)

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            small_config(strategy="split_q")

    def test_json_roundtrip(self):
        cfg = small_config()
        back = E.ExperimentConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_digest_differs_only_in_seed(self):
        cfg = small_config(seeds=[0, 1])
        assert cfg.digest(0) != cfg.digest(1)
        assert cfg.digest(0) == small_config(seeds=[0, 1]).digest(0)

    def test_schema_covers_every_field_once(self):
        fields = dataclasses.fields(E.ExperimentConfig)
        names = [f.name for f in fields]
        assert len(set(names)) == len(names) == 21
        assert [f.name for f in fields if "rule" in f.metadata] == names
        # CONFIG_MISTAKES gives every field at least one bad value
        assert set(names) <= {message.split(":")[0] for *_, message in CONFIG_MISTAKES}

    @pytest.mark.parametrize("grid", ["table1", "table2", "table3", "cost"])
    def test_grid_variants_pass_the_schema(self, grid):
        for base in (E.ExperimentConfig(), small_config()):
            variants = E.grid_configs(base, grid)
            assert variants
            for cfg in variants:
                # each loads again, spec included: the desk spec when it names none
                assert E.ExperimentConfig.from_json(cfg.to_json()) == cfg
                spec = E.desk_scale_spec() if cfg.synthetic is None \
                    else SyntheticSpec.from_json(cfg.synthetic)
                n = sum(spec.node_counts.values())
                assert int(spec.train_frac * n) + int(spec.val_frac * n) < n

    def test_benchmark_workloads_pass_the_schema(self):
        run = load_run_module()
        for wl in run.WORKLOADS.values():
            for seed in (0, 1, 2):
                cfg = run.experiment_config(wl, seed)
                assert E.ExperimentConfig.from_json(cfg.to_json()) == cfg
                # run.py sets its secure-vs-plaintext loss tolerance from this
                assert cfg.scale_bits == C.SCALE_BITS


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
# floats include nan and +-inf; ints are unbounded
JSON_VALUES = (JSON_SCALARS | st.lists(JSON_SCALARS, max_size=3)
               | st.dictionaries(st.text(max_size=6), JSON_SCALARS, max_size=3))
# where a fuzzed value goes in a valid run config: the whole payload, any
# field, any synthetic spec field, or any field of its first relation
FUZZ_PATHS = [(), *((f.name,) for f in dataclasses.fields(E.ExperimentConfig)),
              *(("synthetic", f.name) for f in dataclasses.fields(SyntheticSpec)),
              *(("synthetic", "relations", 0, f.name)
                for f in dataclasses.fields(RelationSpec))]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(path=st.sampled_from(FUZZ_PATHS), value=JSON_VALUES)
def test_loader_builds_or_raises_config_error(path, value):
    payload = small_config().to_json()
    if path:
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    else:
        payload = value
    try:
        E.ExperimentConfig.from_json(payload)
    except ConfigError:
        pass


class TestCostModel:
    def test_fl_base_case(self):
        assert E.comm_cost_fl(1, 1, 1) == 16

    def test_fl_linear_in_participants(self):
        assert E.comm_cost_fl(8, 1000, 3) == 2 * E.comm_cost_fl(4, 1000, 3)

    def test_fl_large_case(self):
        assert E.comm_cost_fl(8, 10**6, 5) == 640_000_000

    def test_fl_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            E.comm_cost_fl(0, 10, 1)

    def test_sl_sums_transcripts(self):
        t = RoundTranscript()
        t.add(0, "party_0", "server", "embedding", 4, 32)
        assert E.comm_cost_sl(t) == 32
        t.add(0, "party_1", "server", "gradient", 4, 32)
        t.add(1, "server", "party_1", "gradient", 2, 16)
        assert E.comm_cost_sl(t) == 80


class TestRunExperiment:
    def test_entire_beats_majority_class(self):
        cfg = small_config(strategy="entire", epochs=5, learning_rate=0.2)
        rows, _, _ = E.run_experiment(cfg)
        bundle = E._load_bundle(cfg)
        labels = bundle.graph.labels[bundle.test_ids]
        majority = np.max(np.bincount(labels)) / len(labels)
        assert rows[-1].test_f1 > majority

    def test_split_one_participant_matches_entire(self):
        common = dict(participants=1, ratio=[1.0], epochs=2, seeds=[0])
        split_rows, _, _ = E.run_experiment(small_config(strategy="split_c", **common))
        entire_rows, _, _ = E.run_experiment(small_config(strategy="entire", **common))
        assert [(s.train_loss, s.val_f1, s.test_f1) for s in split_rows] == \
            [(e.train_loss, e.val_f1, e.test_f1) for e in entire_rows]

    @pytest.mark.parametrize("strategy", ["entire", "standalone_0", "standalone_1"])
    def test_secure_leaves_baselines_plaintext_and_unmetered(self, strategy):
        def run(secure):
            rows, cost, transcript = E.run_experiment(
                small_config(strategy=strategy, epochs=1, secure=secure))
            return [(r.train_loss, r.val_f1, r.test_f1) for r in rows], cost, transcript

        plain, _, _ = run(False)
        rows, cost, transcript = run(True)
        assert transcript is None
        assert (cost.sl_bytes, cost.psi_bytes, cost.rounds, cost.secure) == (0, 0, 0, False)
        assert cost.participants == (1 if strategy == "entire" else 2)
        assert rows == plain

    def test_two_seeds_two_groups(self):
        rows, _, _ = E.run_experiment(small_config(seeds=[0, 1]))
        digests = {r.digest for r in rows}
        assert len(digests) == 2
        by_seed = {r.seed for r in rows}
        assert by_seed == {0, 1}

    def test_standalone_non_holder_gets_granted_labels(self):
        rows, _, _ = E.run_experiment(small_config(strategy="standalone_1"))
        assert all(r.label_access == "granted" for r in rows)
        rows0, _, _ = E.run_experiment(small_config(strategy="standalone_0"))
        assert all(r.label_access == "native" for r in rows0)

    def test_cost_report_measures_transcript(self):
        cfg = small_config(strategy="split_m", epochs=1)
        rows, cost, transcript = E.run_experiment(cfg)
        assert cost.sl_bytes == transcript.total_bytes()
        assert cost.rounds > 0
        assert cost.fl_bytes == E.comm_cost_fl(2, cost.model_params, cost.rounds)

    def test_cost_per_round_leaves_out_alignment(self):
        # GCN/16 split_m, two participants, one round of 64 at desk scale
        cfg = E.grid_configs(E.ExperimentConfig(), "cost")[0]
        _, cost, transcript = E.run_experiment(cfg)
        assert (cfg.model, cfg.hidden, cfg.strategy, cost.rounds) == ("gcn", 16, "split_m", 1)
        assert cost.psi_bytes == transcript.total_bytes("psi") > 0
        assert cost.sl_bytes == transcript.total_bytes()
        # 2 uplinks + hidden + its gradient + 2 downlink gradients of 64 x 16 floats
        assert cost.sl_bytes_per_round == 6 * 64 * 16 * 8 == 49_152

    def test_dataset_directory_input(self):
        cfg = small_config()
        payload = {**cfg.to_json(), "dataset": str(TOY), "synthetic": None,
                   "participants": 1, "ratio": [1.0], "strategy": "entire",
                   "batch_size": 1, "epochs": 1, "hidden": 4}
        rows, _, _ = E.run_experiment(E.ExperimentConfig.from_json(payload))
        assert rows


class TestEmitReport:
    def test_single_row_two_lines(self, tmp_path):
        rows, cost, _ = E.run_experiment(small_config(epochs=1))
        mpath, cpath = E.emit_report(rows[:1], cost, tmp_path)
        assert len(mpath.read_text().splitlines()) == 2
        assert len(cpath.read_text().splitlines()) == 2

    def test_rerun_byte_identical(self, tmp_path):
        cfg = small_config(seeds=[0, 1])
        rows1, cost1, _ = E.run_experiment(cfg)
        E.emit_report(rows1, cost1, tmp_path / "a")
        rows2, cost2, _ = E.run_experiment(cfg)
        E.emit_report(rows2, cost2, tmp_path / "b")
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
               (tmp_path / "b" / "metrics.csv").read_bytes()
        assert (tmp_path / "a" / "cost.csv").read_bytes() == \
               (tmp_path / "b" / "cost.csv").read_bytes()

    def test_roundtrip_parse_recovers_values(self, tmp_path):
        rows, cost, _ = E.run_experiment(small_config(epochs=1))
        mpath, _ = E.emit_report(rows, cost, tmp_path)
        parsed = read_metrics(mpath)
        assert len(parsed) == len(rows)
        for raw, row in zip(parsed, rows):
            assert float(raw["train_loss"]) == row.train_loss
            assert float(raw["test_f1"]) == row.test_f1

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            E.emit_report([], [], tmp_path)


class TestGrids:
    def test_table1_grid_strategies(self):
        cfgs = E.grid_configs(small_config(), "table1")
        assert [c.strategy for c in cfgs] == [
            "entire", "standalone_0", "standalone_1", "split_m", "split_c", "split_w"]

    def test_table2_grid_participants(self):
        cfgs = E.grid_configs(small_config(), "table2")
        assert [c.participants for c in cfgs] == [2, 4, 8]
        assert all(c.strategy == "split_c" for c in cfgs)

    def test_table3_grid_ratios(self):
        cfgs = E.grid_configs(small_config(), "table3")
        assert [c.ratio for c in cfgs] == [[5.0, 5.0], [3.0, 7.0], [1.0, 9.0]]

    def test_unknown_grid(self):
        with pytest.raises(ConfigError):
            E.grid_configs(small_config(), "table9")


class TestCli:
    def _write_config(self, tmp_path, **overrides):
        cfg = small_config(**overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_json()))
        return path

    def test_run_writes_reports(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path, epochs=1)
        code = cli.main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "metrics.csv").exists()
        assert (tmp_path / "out" / "cost.csv").exists()
        assert (tmp_path / "out" / "transcript.csv").exists()

    def test_run_seed_override(self, tmp_path):
        cfg_path = self._write_config(tmp_path, epochs=1)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                         "--seeds", "5,6"]) == 0
        rows = read_metrics(out / "metrics.csv")
        assert {r["seed"] for r in rows} == {"5", "6"}

    def test_missing_config_is_exit_1(self, tmp_path, capsys):
        assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 1

    def test_bad_config_value_is_exit_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"strategy": "split_q"}))
        assert cli.main(["run", "--config", str(path)]) == 1

    @pytest.mark.parametrize("overrides,argv,message", [
        pytest.param(overrides, argv, message, id=case)
        for case, overrides, argv, message in CONFIG_MISTAKES])
    def test_config_mistake_is_exit_1(self, tmp_path, capsys, monkeypatch, overrides,
                                      argv, message):
        # a config mistake is refused at load, before any data is built
        for name in ("generate_synthetic", "load_dataset"):
            monkeypatch.setattr(E, name, _not_called(name))
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**small_config().to_json(), **overrides}))
        assert cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out"), *argv]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_cut_option_is_exit_1(self, tmp_path, capsys):
        # the label holder always owns the output layer; there is no cut to choose
        path = tmp_path / "cut.json"
        path.write_text(json.dumps({**small_config().to_json(), "cut": "hidden"}))
        assert cli.main(["run", "--config", str(path)]) == 1
        assert "config error: cut: no such field" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [24, 0, 80])
    def test_scale_bits_option_is_exit_1(self, tmp_path, capsys, value):
        # fixed-point precision is the constant crypto.SCALE_BITS, not a knob
        path = tmp_path / "scale.json"
        path.write_text(json.dumps({**small_config(secure=True).to_json(),
                                    "scale_bits": value}))
        assert cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "config error: scale_bits: no such field\n"
        assert not (tmp_path / "out").exists()

    def test_audit_plaintext_run_exit_3(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path, epochs=1)
        out = tmp_path / "out"
        cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
        code = cli.main(["audit", "--transcript", str(out / "transcript.csv")])
        assert code == 3
        assert "plaintext_embedding" in capsys.readouterr().out

    def test_secure_table1_cost_rows_describe_each_run(self, tmp_path):
        cfg_path = self._write_config(tmp_path, epochs=1, rounds_per_epoch=1,
                                      batch_size=4, hidden=4, layers=1)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                         "--grid", "table1", "--secure"]) == 0
        metrics = read_metrics(out / "metrics.csv")
        costs = read_metrics(out / "cost.csv")
        got = [(c["strategy"], c["participants"], c["secure"]) for c in costs]
        assert got == [("entire", "1", "false"), ("standalone_0", "2", "false"),
                       ("standalone_1", "2", "false"), ("split_m", "2", "true"),
                       ("split_c", "2", "true"), ("split_w", "2", "true")]
        # each cost row gives the participant count its metrics rows give
        for c in costs:
            assert {m["participants"] for m in metrics
                    if m["strategy"] == c["strategy"]} == {c["participants"]}

    def test_audit_secure_run_exit_0(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path, epochs=1, strategy="split_m",
                                      batch_size=4, hidden=4, layers=1)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                         "--secure"]) == 0
        assert cli.main(["audit", "--transcript", str(out / "transcript.csv")]) == 0

    @pytest.mark.parametrize("rows,payloads,message", [
        ([("zero", "4", "32", "false"), ("0", "4", "32", "false")], {},
         "transcript.csv:2: round, elements and bytes must be integers"),
        ([("0", "4", "32", "false"), ("0", "4", "32.0", "false")], {},
         "transcript.csv:3: round, elements and bytes must be integers"),
        ([("0", "four", "32", "false")], {},
         "transcript.csv:2: round, elements and bytes must be integers"),
        ([("0", "4", "32", "false"), ("0", "4", "32", "yes")], {},
         "transcript.csv:3: encrypted must be true or false, got 'yes'"),
        ([("0", "4", "32", "false"), ("0", "4", "32", "false")], {"2": "n0"},
         "transcript.meta.json: payload index '2' names no record"),
        ([("0", "4", "32", "false")], {"-1": "n0"},
         "transcript.meta.json: payload index '-1' names no record"),
    ])
    def test_audit_malformed_transcript_is_exit_1(self, tmp_path, capsys, rows,
                                                  payloads, message):
        path = tmp_path / "transcript.csv"
        lines = ["round,from,to,kind,elements,bytes,encrypted"] + [
            f"{rnd},party_0,server,embedding,{elements},{size},{encrypted}"
            for rnd, elements, size, encrypted in rows]
        path.write_text("\n".join(lines) + "\n")
        path.with_suffix(".meta.json").write_text(json.dumps({"payloads": payloads}))
        assert cli.main(["audit", "--transcript", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err, err

    def test_gen_synthetic_roundtrip(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(small_synthetic_payload()))
        out = tmp_path / "data"
        assert cli.main(["gen-synthetic", "--spec", str(spec_path),
                         "--out", str(out), "--seed", "4"]) == 0
        cfg = small_config()
        payload = {**cfg.to_json(), "dataset": str(out), "synthetic": None,
                   "epochs": 1}
        rows, _, _ = E.run_experiment(E.ExperimentConfig.from_json(payload))
        assert rows

    def test_gen_synthetic_bad_spec_exit_1(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"node_counts": {"a": 5}}))
        assert cli.main(["gen-synthetic", "--spec", str(spec_path),
                         "--out", str(tmp_path / "d")]) == 1

    @pytest.mark.parametrize("payload,message", [
        (small_synthetic_payload(homophily="x"),
         "homophily: must be a finite number >= 0 and <= 1, got 'x'"),
        (small_synthetic_payload(homophily=1.5),
         "homophily: must be a finite number >= 0 and <= 1, got 1.5"),
        (small_synthetic_payload(num_classes=0), "num_classes: must be an integer >= 1, got 0"),
        (small_synthetic_payload(feature_dim=-1),
         "feature_dim: must be an integer >= 1, got -1"),
        (small_synthetic_payload(relations=[{"name": "aa", "src_type": "a",
                                             "dst_type": "a", "edge_dim": -2}]),
         "relations: edge_dim: must be an integer >= 0, got -2"),
        (small_synthetic_payload(relations=[]),
         "relations: must be a non-empty list, each a relation spec, got []"),
        (small_synthetic_payload(node_counts={"a": 60, "b": 0}),
         "relations: relation ab references type 'b' with no nodes"),
        (small_synthetic_payload(train_frac=0.0),
         "train_frac, val_frac: 0.0 and 0.2 of 100 nodes leave the train split empty"),
        (small_synthetic_payload(val_frac=0.005),
         "train_frac, val_frac: 0.6 and 0.005 of 100 nodes leave the val split empty"),
        (small_synthetic_payload(train_frac=0.5, val_frac=0.5),
         "train_frac, val_frac: 0.5 and 0.5 of 100 nodes leave the test split empty"),
        ("abc", "must be a JSON object, got 'abc'"),
        (small_synthetic_payload(relations=DUPLICATE_RELATIONS),
         "relations: duplicate relation name 'ab'"),
        (small_synthetic_payload(metapaths=[["ab", "zz"]]),
         "metapaths: metapath uses unknown relation 'zz'"),
        (small_synthetic_payload(relations=renamed_relations("a,b")),
         "relations: " + BAD_RELATION_NAME + "'a,b'"),
        (small_synthetic_payload(relations=renamed_relations("x/y")),
         "relations: " + BAD_RELATION_NAME + "'x/y'"),
        (small_synthetic_payload(relations=renamed_relations("b\x00a")),
         "relations: " + BAD_RELATION_NAME + "'b\\x00a'"),
        (small_synthetic_payload(relations=renamed_relations("b a")),
         "relations: " + BAD_RELATION_NAME + "'b a'"),
        (small_synthetic_payload(metapaths=[["aa"], ["ab", "ab"]]),
         "metapaths: metapath ab+ab: ab starts at a, previous relation ends at b"),
    ], ids=["homophily-not-number", "homophily-above-1", "no-classes",
            "negative-feature-dim", "negative-edge-dim", "no-relations",
            "type-without-nodes", "empty-train-split", "empty-val-split",
            "empty-test-split", "spec-not-object", "duplicate-relation",
            "metapath-unknown-relation", "relation-name-comma", "relation-name-slash",
            "relation-name-nul", "relation-name-space", "metapath-types-do-not-meet"])
    def test_gen_synthetic_spec_mistake_is_exit_1(self, tmp_path, capsys, monkeypatch,
                                                  payload, message):
        monkeypatch.setattr(cli, "generate_synthetic", _not_called("generate_synthetic"))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(payload))
        assert cli.main(["gen-synthetic", "--spec", str(spec_path),
                         "--out", str(tmp_path / "d")]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "d").exists()


def test_no_scipy_import():
    # scipy.sparse alone adds about 22 MiB of resident memory and 0.2-0.5 s
    # of import time; the segment ops do without it
    code = ("import sys; import splitgnn.protocol, splitgnn.experiments; "
            "assert 'scipy' not in sys.modules")
    src = str(Path(E.__file__).resolve().parent.parent)
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": src})
