"""One integer grammar: every integer the program reads from text is read by
``errors.canonical_int``, which accepts a text only as ``str`` writes an
int.  Each of the six sites that read one (``--seeds``, ``gen-synthetic
--seed``, ``standalone_<i>``, a ``labels.tsv`` class index, a transcript
row's ``round``, ``elements`` and ``bytes``, and a sidecar's payload key)
takes ``str(n)`` for each ``n`` in its range and refuses every other text
with its own error."""

import contextlib
import csv
import io
import json
import re
import shutil
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitgnn import cli
from splitgnn import experiments as E
from splitgnn.errors import ConfigError, ParseError, canonical_int
from splitgnn.graph import load_dataset
from splitgnn.transcript import CSV_COLUMNS, RoundTranscript

TOY = Path(__file__).parent / "fixtures" / "toy_dataset"
ROW = {"round": "0", "from": "party_0", "to": "server", "kind": "embedding",
       "elements": "4", "bytes": "32", "encrypted": "false"}


def written(text):
    """The int whose ``str`` is ``text``, else None: the grammar's definition."""
    try:
        n = int(text)
    except ValueError:
        return None
    return n if str(n) == text else None


ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def near_misses(n):
    """Texts that ``int`` reads, or nearly, but ``str`` does not write."""
    s = str(n)
    return st.sampled_from([f"0{s}", f"+{s}", f" {s}", f"{s} ", f"{s}\v", f"{s}_0",
                            s.translate(ARABIC_INDIC), f"-0{s.lstrip('-')}", "-0",
                            f"{s}.0", f"{s}\u00b2"])


# no text holds a line end, a tab, a comma or a surrogate: each would change
# the row or list that carries it rather than the integer field itself
TEXTS = st.one_of(
    st.integers(-3, 12).map(str),
    st.integers().map(str),
    st.integers(-10**6, 10**6).flatmap(near_misses),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r\t,"),
            max_size=8),
)


class Accepted(Exception):
    """Raised in place of the work a CLI command does once its flags are read."""


def stop_before_work(*args, **kwargs):
    raise Accepted(args, kwargs)


def cli_exit(argv):
    """(``Accepted`` exception or None, exit code, stderr) of ``cli.main(argv)``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            mock.patch.object(cli, "run_experiment", stop_before_work), \
            mock.patch.object(cli, "generate_synthetic", stop_before_work):
        try:
            return None, cli.main(argv), err.getvalue()
        except Accepted as exc:
            return exc, None, err.getvalue()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    d = tmp_path_factory.mktemp("integers")
    config = {"synthetic": {"node_counts": {"a": 6}, "relations": [
        {"name": "aa", "src_type": "a", "dst_type": "a"}], "feature_dim": 2,
        "num_classes": 2}, "participants": 2, "ratio": [1.0, 1.0]}
    (d / "config.json").write_text(json.dumps(config))
    (d / "spec.json").write_text(json.dumps(config["synthetic"]))
    shutil.copytree(TOY, d / "toy")
    return d


def transcript_with(path, field, text, payloads=None):
    """A two-row transcript whose second row's ``field`` is ``text``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerow(ROW.values())
        writer.writerow({**ROW, field: text}.values())
    path.with_suffix(".meta.json").write_text(json.dumps({"payloads": payloads or {}}))


@settings(max_examples=150, deadline=None)
@given(text=TEXTS)
@example(text="1_0")
@example(text="\u0663\u0662")
@example(text=" 0")
@example(text="+1")
@example(text="01")
@example(text="-0")
@example(text="")
@example(text="-")
@example(text="0")
@example(text="1")
@example(text="-1")
@example(text="9" * 5000)
def test_every_site_reads_only_what_str_writes(work, text):
    n = written(text)
    assert canonical_int(text) == n

    # --seeds: any integer; a bad list is refused before the run
    accepted, code, err = cli_exit(["run", "--config", str(work / "config.json"),
                                    "--out", str(work / "out"), f"--seeds={text}"])
    if n is not None:
        assert accepted is not None and accepted.args[0][0].seeds == [n]
    else:
        assert (code, err) == (1, f"config error: --seeds must be comma-separated "
                                  f"integers, got {text!r}\n")

    # gen-synthetic --seed: any integer
    accepted, code, err = cli_exit(["gen-synthetic", "--spec", str(work / "spec.json"),
                                    "--out", str(work / "data"), f"--seed={text}"])
    if n is not None:
        assert accepted is not None and accepted.args[1] == {"seed": n}
    else:
        assert (code, err) == (1, f"config error: --seed must be an integer, got {text!r}\n")

    # standalone_<i>: a participant, 0 or 1 of two
    payload = json.loads((work / "config.json").read_text())
    if n in (0, 1):
        cfg = E.ExperimentConfig.from_json({**payload, "strategy": f"standalone_{text}"})
        assert E._standalone_index(cfg.strategy) == n
    else:
        with pytest.raises(ConfigError, match="^strategy: "):
            E.ExperimentConfig.from_json({**payload, "strategy": f"standalone_{text}"})

    # labels.tsv: a class index below the toy dataset's 3 nodes
    labels = work / "toy" / "labels.tsv"
    labels.write_text(f"a\t0\nb\t{text}\nc\t0\n", encoding="utf-8")
    if n is not None and 0 <= n < 3:
        assert load_dataset(work / "toy").graph.labels.tolist() == [0, n, 0]
    else:
        with pytest.raises(ParseError, match=f"^{re.escape(str(labels))}:2: "):
            load_dataset(work / "toy")

    # a transcript row: any round, and elements and bytes of at least 0
    path = work / "transcript.csv"
    for field, low in (("round", None), ("elements", 0), ("bytes", 0)):
        transcript_with(path, field, text)
        if n is not None and (low is None or n >= low):
            record = RoundTranscript.load(path).records[1]
            assert getattr(record, field) == n
        else:
            with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:3: "):
                RoundTranscript.load(path)

    # a sidecar's payload key: the index of one of the two records
    transcript_with(path, "round", "0", payloads={text: "n0"})
    if n in (0, 1):
        assert RoundTranscript.load(path).records[n].payload == "n0"
    else:
        with pytest.raises(ParseError, match="payload index .* names no record"):
            RoundTranscript.load(path)
