"""Invariants checked on drawn sessions: the properties that refactors of
the round, the encoders, evaluation and the transcript lean on, checked on
sessions Hypothesis draws and not only on one fixture graph.

A drawn case is a spec from ``small_specs`` (one or two node types of 5 to
9 nodes, one to three relations, metapaths or none) cut among one to three
participants, any of whom holds the labels, with one of the three encoders
and the three strategies, 1 to 3 layers, 1 or 2 heads, SGD or Adam, and an
``EDGE_BUDGET`` of 2, 3 or 4096 edges, the last one range for every drawn
graph.  Drawn sessions are plaintext, and one fixed secure session checks
the round and transcript invariants under a 512-bit key.  A drawn case
that fails is a fault of the program to record, never a draw to filter out.
"""

import contextlib
import pickle
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import encoder_config, make_bundle, make_views, session_config
from splitgnn import crypto as C
from splitgnn import graph as G
from splitgnn import models as M
from splitgnn import protocol as P
from splitgnn import tensor as T
from splitgnn.errors import NumericError
from splitgnn.transcript import RoundTranscript
from test_graph import small_specs
from test_models import neighbour_mean_oracle
from test_protocol import centralized_train

# small_specs rejects the specs SyntheticSpec refuses, which the health
# check would count as filtered draws
DRAWN = dict(derandomize=True, database=None, deadline=None,
             suppress_health_check=[HealthCheck.filter_too_much])
# every drawn graph has at least 3 training nodes
BATCH = 3


@dataclass
class Case:
    spec: G.SyntheticSpec
    data_seed: int
    participants: int
    label_holder: int
    kind: str
    strategy: str
    layers: int
    heads: int
    optimizer: str
    budget: int
    seed: int

    def views(self):
        bundle = G.generate_synthetic(self.spec, self.data_seed)
        return make_views(bundle, [1] * self.participants, seed=self.data_seed,
                          label_holder=self.label_holder)

    def config(self, **overrides):
        return session_config(
            encoder=encoder_config(kind=self.kind, layers=self.layers, heads=self.heads),
            strategy=self.strategy, optimizer=self.optimizer, seed=self.seed,
            batch_size=BATCH, **overrides)

    def session(self):
        """This case's session, aligned."""
        session = P.SplitSession(self.views(), self.config())
        session.align()
        return session


@st.composite
def cases(draw, kinds=("gcn", "gat", "hat"), participants=(1, 2, 3),
          strategies=("average", "weighted", "concat")):
    count = draw(st.sampled_from(participants))
    return Case(spec=draw(small_specs()), data_seed=draw(st.integers(0, 3)),
                participants=count, label_holder=draw(st.integers(0, count - 1)),
                kind=draw(st.sampled_from(kinds)),
                strategy=draw(st.sampled_from(strategies)),
                layers=draw(st.integers(1, 3)), heads=draw(st.integers(1, 2)),
                optimizer=draw(st.sampled_from(["sgd", "adam"])),
                budget=draw(st.sampled_from([2, 3, 4096])), seed=draw(st.integers(0, 3)))


def edge_budget(budget):
    return mock.patch.object(M, "EDGE_BUDGET", budget)


def train_batch(session):
    return session._split_ids("train")[:BATCH]


def all_ids(session):
    return np.arange(len(session.external_ids))


def parameters(session) -> dict[str, T.Tensor]:
    """Every trainable tensor of every party, by its unique name."""
    params = dict(session.server_params)
    for p in session.participants:
        params.update(p.trainable())
    return params


# ---------------------------------------------------------------------------
# edge ranges


@settings(max_examples=40, **DRAWN)
@given(case=cases(), budget=st.sampled_from([2, 3]))
def test_edge_ranges_change_no_row_prediction_or_loss(case, budget):
    """At a budget of 2 or 3 edges a drawn graph's layers run in many edge
    ranges, in training and in ``predict``.  Rows, predictions and the
    round's loss are those of one 4096-edge range bit for bit; gradients
    are equal to rounding, since backward adds up the ranges' gradients one
    range at a time."""
    def run(edges):
        with edge_budget(edges):
            session = case.session()
            ids = all_ids(session)
            rows = [p.embed(None, ids).values for p in session.participants]
            predicted = session.predict(ids)
            loss = session.train_round(train_batch(session), step=0)
            grads = {name: t.grad for name, t in parameters(session).items()}
        return rows, predicted, loss, grads

    rows, predicted, loss, grads = run(budget)
    want_rows, want_predicted, want_loss, want_grads = run(4096)
    assert all(np.array_equal(a, b) for a, b in zip(rows, want_rows, strict=True))
    assert np.array_equal(predicted, want_predicted)
    assert loss == want_loss
    assert grads.keys() == want_grads.keys()
    for name, grad in grads.items():
        np.testing.assert_allclose(grad, want_grads[name], rtol=1e-12, atol=0, err_msg=name)


# ---------------------------------------------------------------------------
# call independence


@settings(max_examples=25, **DRAWN)
@given(case=cases(kinds=("gcn", "gat")))
def test_gcn_and_gat_predict_a_node_alike_in_any_call(case):
    """A GCN or GAT node's embedding rows and prediction do not depend on
    the other ids asked with it, bit for bit: every product rounds a row as
    a product of many rows does.  HAT is exempt: its path attention weighs
    each channel by its mean score over the layer's target frontier, so a
    HAT row moves with the other ids until evaluation runs one whole-graph
    pass."""
    with edge_budget(case.budget):
        session = case.session()
        session.train_round(train_batch(session), step=0)
        ids = all_ids(session)
        together = session.predict(ids)
        one_by_one = [session.predict([v])[0] for v in ids]
        for p in session.participants:
            rows = p.embed(None, ids).values
            for v in ids:
                assert np.array_equal(p.embed(None, [v]).values[0], rows[v]), (p.name, v)
    assert np.array_equal(one_by_one, together)


# ---------------------------------------------------------------------------
# the single-tape oracle


@contextlib.contextmanager
def recorded_steps():
    """Every optimizer step's gradients, one dict per call, in call order."""
    steps = []
    with contextlib.ExitStack() as stack:
        for cls in T.OPTIMIZERS.values():
            def step(optimizer, params, real=cls.step):
                steps.append({name: t.grad.copy() for name, t in params.items()})
                return real(optimizer, params)
            stack.enter_context(mock.patch.object(cls, "step", step))
        yield steps


@settings(max_examples=20, **DRAWN)
@given(case=cases(participants=(1,), strategies=("concat",)))
def test_one_participant_under_concat_trains_as_one_tape(case):
    """With one participant the cut changes nothing under concat: W_1 is
    the server's whole first-layer weight.  Rows of losses and scores, and
    every round's gradients, equal those of one model on one tape."""
    cfg = case.config(epochs=2, rounds_per_epoch=2)
    with edge_budget(case.budget):
        with recorded_steps() as split:
            rows = P.SplitSession(case.views(), cfg).train()
        with recorded_steps() as oracle:
            want_rows = centralized_train(case.views()[0], cfg)
    assert rows == want_rows
    # a round steps the participant, then the server; the oracle steps once
    rounds = [{**party, **server} for party, server in zip(split[::2], split[1::2])]
    assert len(rounds) == len(oracle) > 0
    for got, want in zip(rounds, oracle):
        got["server/l0/W"] = got.pop("enc0/W")
        assert got.keys() == want.keys()
        for name, grad in got.items():
            assert np.array_equal(grad, want[name]), name


# ---------------------------------------------------------------------------
# atomic rounds


def snapshot(session):
    """Every parameter, optimizer state and transcript entry, as values."""
    optimizers = [p.optimizer for p in session.participants] + [session.server_optimizer]
    return ({name: t.values.tobytes() for name, t in parameters(session).items()},
            pickle.dumps([vars(o) for o in optimizers]),
            pickle.dumps((session.transcript.records, session.transcript.decryptions)))


def check_failed_round(session, poisoned: str):
    """Round 0 trains; round 1 fails at the finite check, after every
    message was sent, with a NaN in ``poisoned``'s gradient and leaves every
    parameter, optimizer state and transcript entry as it was; round 2 is
    then recorded as round 2."""
    batch = train_batch(session)
    session.train_round(batch, step=0)
    tensor = parameters(session)[poisoned]
    before = snapshot(session)
    backward = T.Tape.backward

    def poisoning(tape, *args, **kwargs):
        backward(tape, *args, **kwargs)
        tensor.grad = np.full_like(tensor.values, np.nan)

    with mock.patch.object(T.Tape, "backward", poisoning):
        with pytest.raises(NumericError, match=re.escape(poisoned)):
            session.train_round(batch, step=1)
    assert snapshot(session) == before
    kept = len(session.transcript.records), len(session.transcript.decryptions)
    session.train_round(batch, step=2)
    assert {r.round for r in session.transcript.records[kept[0]:]} == {2}
    assert {e.round for e in session.transcript.decryptions[kept[1]:]} <= {2}


@settings(max_examples=30, **DRAWN)
@given(case=cases(), data=st.data())
def test_a_failed_round_leaves_no_trace(case, data):
    with edge_budget(case.budget):
        session = case.session()
        # a participant without a feature column has an empty first-layer
        # weight, whose gradient can hold no NaN
        names = sorted(name for name, t in parameters(session).items() if t.values.size)
        check_failed_round(session, data.draw(st.sampled_from(names)))


# ---------------------------------------------------------------------------
# transcripts


def check_saved(transcript):
    """A saved transcript loads back equal and audits the same."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "transcript.csv"
        transcript.save(path)
        loaded = RoundTranscript.load(path)
    assert loaded.records == transcript.records
    assert loaded.decryptions == transcript.decryptions
    assert loaded.context == transcript.context
    assert C.transcript_audit(loaded) == C.transcript_audit(transcript)


@settings(max_examples=25, **DRAWN)
@given(case=cases())
def test_a_saved_transcript_loads_equal_and_audits_the_same(case):
    with edge_budget(case.budget):
        session = case.session()
        for step in (0, 1):
            session.train_round(train_batch(session), step=step)
    check_saved(session.transcript)


def test_a_secure_session_keeps_the_round_and_transcript_invariants():
    """The fixed secure case: the failed round's ciphertexts and decryption
    leave no trace, and the saved transcript audits clean after loading."""
    session = P.SplitSession(
        make_views(make_bundle(seed=3), [5, 5]),
        session_config(strategy="weighted", secure=True, optimizer="adam",
                       encoder=encoder_config(kind="gcn", layers=2)))
    session.align()
    check_failed_round(session, "enc1/omega")
    assert [e.round for e in session.transcript.decryptions] == [0, 2]
    check_saved(session.transcript)
    assert C.transcript_audit(session.transcript).ok


# ---------------------------------------------------------------------------
# GCN's first-layer memo


@settings(max_examples=25, **DRAWN)
@given(case=cases(kinds=("gcn",)))
def test_gcn_memo_rows_are_the_add_at_mean(case):
    """A forward over every node fills the memo rows its first layer reads,
    every row under one layer, each with the node's ``np.add.at`` mean over
    its merged edges, whatever the edge ranges."""
    with edge_budget(case.budget):
        for view in case.views():
            enc = M.make_encoder(view, case.config().encoder, case.seed, scope="e")
            enc.forward(None, np.arange(view.graph.num_nodes)[::-1])
            filled = enc.filled
            assert filled.all() or case.layers > 1
            assert np.array_equal(enc.mean0[filled],
                                  neighbour_mean_oracle(view.graph)[filled])


# ---------------------------------------------------------------------------
# the pytest configuration


FALSIFIED = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_falsified(x):
    assert x < 0


def test_after():
    pass
"""


def test_a_falsified_drawn_case_fails_as_one_test(tmp_path):
    """Under the repo's pytest configuration, a ``@given`` test that
    Hypothesis falsifies fails as that one test and the session goes on.
    Reporting the falsifying example imports libcst, which warns of a
    deprecation; were that an error, pytest would stop with INTERNALERROR."""
    (tmp_path / "test_falsified.py").write_text(FALSIFIED)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(Path(__file__).resolve().parent.parent / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
