import random

import numpy as np
import pytest

from conftest import (encoder_config, finite_diff_check, make_bundle, make_views,
                      session_config, single_view)
from splitgnn import crypto as C
from splitgnn import graph as G
from splitgnn import protocol as P
from splitgnn import tensor as T
from splitgnn.errors import (ConfigError, ContractError, DomainError, NumericError,
                             ProtocolError)
from splitgnn.experiments import count_params
from splitgnn.models import init_param, make_encoder
from splitgnn.seeding import stable_rng


class TestCombine:
    # every strategy is a sum of terms each participant has already put
    # through its own map: average's fixed ω = 1/I, weighted's ω or concat's W_i

    def test_average_basic(self):
        out = P.combine_sum([np.array([[1.0, 3.0]]), np.array([[3.0, 5.0]])]) / 2
        np.testing.assert_array_equal(out, [[2.0, 4.0]])

    def test_average_single_identity(self):
        x = np.array([[1.5, -2.0]])
        np.testing.assert_array_equal(P.combine_sum([x]), x)

    def test_average_matches_scalar_loop(self):
        rng = stable_rng("avg-oracle")
        mats = [rng.standard_normal((4, 3)) for _ in range(3)]
        out = P.combine_sum(mats) / 3
        for i in range(4):
            for j in range(3):
                s = sum(m[i, j] for m in mats) / 3.0
                assert out[i, j] == pytest.approx(s, rel=1e-14)

    def test_sum_over_count_is_mean(self):
        rng = stable_rng("sum-mean")
        for count in range(1, 9):
            mats = [rng.standard_normal((5, 3)) for _ in range(count)]
            assert np.array_equal(P.combine_sum(mats) / count, np.mean(mats, axis=0))

    def test_average_shape_mismatch_names_participant(self):
        with pytest.raises(ProtocolError, match="participant 1"):
            P.combine_sum([np.zeros((2, 3)), np.zeros((2, 4))])

    def test_weighted_uniform_equals_average(self):
        rng = stable_rng("w-avg")
        mats = [rng.standard_normal((3, 4)) for _ in range(2)]
        omegas = [np.full(4, 0.5), np.full(4, 0.5)]
        np.testing.assert_allclose(P.combine_sum([w * m for w, m in zip(omegas, mats)]),
                                   P.combine_sum(mats) / 2, rtol=1e-14)

    def test_weighted_selects_single_participant(self):
        rng = stable_rng("w-sel")
        mats = [rng.standard_normal((3, 4)) for _ in range(3)]
        omegas = [np.ones(4), np.zeros(4), np.zeros(4)]
        np.testing.assert_array_equal(
            P.combine_sum([w * m for w, m in zip(omegas, mats)]), mats[0])


def average_term_grad(routed, count):
    """The gradient an average participant's encoder output receives: its
    tape's product with the fixed ω = 1/I applied to the routed gradient."""
    tape = T.Tape()
    omega = T.Tensor(np.full(routed.shape[1], 1.0 / count), name="omega")
    local = T.Tensor(np.zeros(routed.shape), requires_grad=True)
    tape.backward(T.mul(tape, omega, local), seed_grad=routed)
    assert omega.grad is None
    return local.grad


class TestBackwardRoute:
    # routing hands every participant the whole gradient of the sum; under
    # average each one's fixed ω = 1/I then splits it on its own tape

    def test_average_splits_evenly(self):
        g = np.array([[2.0, 4.0]])
        routed = P.backward_route(g, 2)
        for r in routed:
            np.testing.assert_array_equal(r, g)
            np.testing.assert_array_equal(average_term_grad(r, 2), [[1.0, 2.0]])

    def test_average_conservation(self):
        rng = stable_rng("route-avg")
        g = rng.standard_normal((4, 3))
        routed = P.backward_route(g, 4)
        assert len(routed) == 4
        for r in routed:
            np.testing.assert_array_equal(4 * average_term_grad(r, 4), g)

    def test_weighted_routes_and_weight_grads(self):
        # each participant gets the whole gradient of the sum, and its own
        # tape turns it into its ω gradient and its encoder's gradient
        rng = stable_rng("route-w")
        g = rng.standard_normal((4, 3))
        routed = P.backward_route(g, 2)
        for r in routed:
            np.testing.assert_array_equal(r, g)
        assert routed[0] is not routed[1]
        for r in routed:
            tape = T.Tape()
            omega = T.Tensor(rng.standard_normal(3), requires_grad=True)
            local = T.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
            tape.backward(T.mul(tape, omega, local), seed_grad=r)
            np.testing.assert_allclose(omega.grad, (g * local.values).sum(axis=0),
                                       rtol=1e-14)
            np.testing.assert_allclose(local.grad, omega.values * g, rtol=1e-14)


class TestMicroF1:
    def test_two_of_three(self):
        assert P.micro_f1([0, 1, 1], [0, 1, 2]) == pytest.approx(2.0 / 3.0)

    def test_all_correct(self):
        assert P.micro_f1([1, 2, 0], [1, 2, 0]) == 1.0

    def test_matches_confusion_recount(self):
        rng = stable_rng("f1-oracle")
        pred = rng.integers(0, 4, 200)
        truth = rng.integers(0, 4, 200)
        # independent recount straight from the confusion matrix
        cm = np.zeros((4, 4), dtype=int)
        for p, t in zip(pred, truth):
            cm[t, p] += 1
        tp = np.trace(cm)
        fp = cm.sum() - tp
        fn = cm.sum() - tp
        expected = 2 * tp / (2 * tp + fp + fn)
        assert P.micro_f1(pred, truth) == pytest.approx(expected, rel=1e-12)

    def test_exactly_correct_over_total(self):
        # the correctly rounded k/n, which 2PR/(P+R) is not always
        for n in range(1, 201):
            truth = np.zeros(n, dtype=np.int64)
            for k in range(n + 1):
                pred = np.concatenate([np.zeros(k, dtype=np.int64),
                                       np.ones(n - k, dtype=np.int64)])
                assert P.micro_f1(pred, truth) == k / n, (k, n)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            P.micro_f1([], [])


class TestServerAndHead:
    def test_zero_weights_constant_rows(self):
        net = P.ServerNet(4, 4, seed=0)
        for name, p in net.params.items():
            if name.endswith("/W"):
                p.values[:] = 0.0
        x = stable_rng("srv").standard_normal((5, 4))
        out = net.forward(None, T.Tensor(x))
        assert np.all(out.values == out.values[0])

    def test_dropout_off_deterministic(self):
        net = P.ServerNet(4, 4, seed=0)
        x = stable_rng("srv2").standard_normal((5, 4))
        a = net.forward(None, T.Tensor(x), step=3, training=True)
        b = net.forward(None, T.Tensor(x), step=3, training=True)
        assert np.array_equal(a.values, b.values)

    def test_perfect_logits_near_zero_loss(self):
        head = P.LabelHead(2, 2, seed=0)
        head.params["head/W"].values[:] = np.array([[40.0, -40.0], [-40.0, 40.0]])
        hidden = np.array([[1.0, -1.0], [-1.0, 1.0]])
        tape = T.Tape()
        loss, grad = P.label_forward_loss(tape, hidden, head, [0, 1])
        assert loss.item() < 1e-8
        assert np.max(np.abs(grad)) < 1e-8

    def test_uniform_logits_log3(self):
        head = P.LabelHead(4, 3, seed=0)
        head.params["head/W"].values[:] = 0.0
        hidden = stable_rng("unif").standard_normal((5, 4))
        tape = T.Tape()
        loss, _ = P.label_forward_loss(tape, hidden, head, [0, 1, 2, 0, 1])
        assert loss.item() == pytest.approx(np.log(3.0), rel=1e-12)

    def test_server_and_head_gradients(self):
        net = P.ServerNet(3, 3, seed=1)
        head = P.LabelHead(3, 2, seed=1)
        x = stable_rng("srv-fd").standard_normal((4, 3))
        labels = [0, 1, 1, 0]

        def forward():
            tape = T.Tape()
            hidden = net.forward(tape, T.Tensor(x), training=False)
            loss = T.cross_entropy(tape, head.logits(tape, hidden), labels)
            return loss, tape

        params = list(net.params.values()) + list(head.params.values())
        assert finite_diff_check(forward, params) < 1e-4


class TestSessionBasics:
    def test_unknown_strategy_refused_at_construction(self, tiny_bundle, monkeypatch):
        # the session is the one place that reads the strategy, and it
        # refuses an unknown one before any party computes or is metered
        built = []

        def spy(owner, name):
            real = getattr(owner, name)

            def call(*args, **kwargs):
                built.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, call)

        spy(P, "make_encoder")
        spy(P, "RoundTranscript")
        spy(C, "keygen")
        with pytest.raises(ConfigError, match="unknown strategy 'median'"):
            P.SplitSession(make_views(tiny_bundle, [5, 5]),
                           session_config(strategy="median", secure=True))
        assert built == []
        P.SplitSession(make_views(tiny_bundle, [5, 5]),
                       session_config(strategy="average", secure=True))
        assert built == ["make_encoder", "make_encoder", "RoundTranscript", "keygen"]

    def test_views_of_different_graphs_refused(self, monkeypatch):
        """The session aligns and names nodes by the first view's ids, so
        views whose graphs differ in node count are refused before any
        party is built or a key is made."""
        built = []
        monkeypatch.setattr(P, "make_encoder", lambda *a, **k: built.append("encoder"))
        monkeypatch.setattr(C, "keygen", lambda *a, **k: built.append("keygen"))
        small = make_views(make_bundle(n_u=24, n_v=16), [5, 5])
        large = make_views(make_bundle(n_u=30, n_v=20), [5, 5])
        for views, counts in (([small[0], large[1]], "40, 50"), ([large[0], small[1]], "50, 40")):
            with pytest.raises(ConfigError, match=rf"got node counts \[{counts}\]$"):
                P.SplitSession(views, session_config(secure=True))
        assert built == []

    def test_unaligned_round_rejected(self, tiny_bundle, monkeypatch):
        # before the PSI no id names a common node, so nothing is trained
        # or predicted, and no encoder runs
        session = P.SplitSession(make_views(tiny_bundle, [5, 5]), session_config())
        calls = []
        for p in session.participants:
            monkeypatch.setattr(p.encoder, "forward", lambda *a, **k: calls.append(a))
        for call in (lambda: session.train_round([0, 1], step=0),
                     lambda: session.predict([0, 1]), lambda: session.evaluate("val")):
            with pytest.raises(ProtocolError, match="not aligned; call align"):
                call()
        assert calls == []
        assert len(session.transcript) == 0

    def test_two_label_holders_rejected(self, tiny_bundle):
        views = make_views(tiny_bundle, [5, 5])
        views[1].has_labels = True
        views[1].graph.labels = views[0].graph.labels.copy()
        with pytest.raises(ConfigError, match="label holder"):
            P.SplitSession(views, session_config())

    def test_incomplete_psi_refused(self, tiny_bundle, monkeypatch):
        # every participant holds every node, so a PSI that matches fewer
        # ids than the session holds has failed, and no round may follow
        real = C.psi_align
        monkeypatch.setattr(C, "psi_align", lambda *args: real(*args)[1:])
        session = P.SplitSession(make_views(tiny_bundle, [5, 5]), session_config())
        with pytest.raises(ProtocolError, match="PSI matched 39 of 40 node ids"):
            session.align()
        with pytest.raises(ProtocolError, match="align"):
            session.train_round([0, 1], step=0)

    def test_evaluate_refuses_an_empty_split(self, tiny_bundle):
        # the label holder's labels define the splits, so its split lists
        # are the ones read, whatever another participant's view holds
        views = make_views(tiny_bundle, [5, 5], label_holder=1)
        views[1].val_ids = views[1].val_ids[:0]
        session = P.SplitSession(views, session_config())
        session.align()
        with pytest.raises(DomainError, match="^split 'val' is empty$"):
            session.evaluate("val")
        assert session.evaluate("test") >= 0.0

    @pytest.mark.parametrize("split", ["val", "test"])
    def test_train_refuses_an_empty_split_before_any_round(self, tiny_bundle, tmp_path,
                                                           split):
        # a generated dataset directory whose split rows were deleted loads,
        # and training refuses it before round 0, not after an epoch
        G.save_dataset(tiny_bundle, tmp_path)
        splits = tmp_path / "splits.tsv"
        lines = splits.read_text().splitlines(keepends=True)
        splits.write_text("".join(line for line in lines
                                  if line.rstrip("\n").split("\t")[1] != split))
        bundle = G.load_dataset(tmp_path)
        assert len(getattr(bundle, f"{split}_ids")) == 0 < len(bundle.train_ids)
        session = P.SplitSession(make_views(bundle, [5, 5]),
                                 session_config(encoder=encoder_config(kind="gcn")))
        with pytest.raises(DomainError, match=f"^split '{split}' is empty$"):
            session.train()
        assert not [r for r in session.transcript.records if r.round >= 0]

    def test_batch_exceeding_train_rejected(self, tiny_bundle):
        session = P.SplitSession(make_views(tiny_bundle, [5, 5]),
                                 session_config(batch_size=1000))
        session.align()
        with pytest.raises(ConfigError, match="batch size"):
            session.train()

    def test_training_reduces_loss(self, tiny_bundle):
        bundle = make_bundle(seed=5, n_u=40, n_v=20, homophily=0.9)
        session = P.SplitSession(make_views(bundle, [5, 5]),
                                 session_config(epochs=4, batch_size=16,
                                                learning_rate=0.1))
        rows = session.train()
        assert rows[-1]["train_loss"] < rows[0]["train_loss"]

    def test_non_finite_gradient_leaves_every_party_unchanged(self, tiny_bundle,
                                                               monkeypatch):
        session = P.SplitSession(make_views(tiny_bundle, [5, 5]),
                                 session_config(optimizer="adam"))
        session.align()
        batch = session._split_ids("train")[:8]
        session.train_round(batch, step=0)  # so every party has Adam moments

        def state():
            params = {(p.name, k): t.values.copy()
                      for p in session.participants for k, t in p.trainable().items()}
            params.update({("server", k): t.values.copy()
                           for k, t in session.server_params.items()})
            opts = [p.optimizer for p in session.participants] + [session.server_optimizer]
            moments = [(o._t, dict(o._offsets), o._m.copy(), o._v.copy()) for o in opts]
            return params, moments

        before = state()
        # fault injection: the second participant's backward yields a NaN gradient
        victim = session.participants[1]
        poisoned = victim.encoder.params[sorted(victim.encoder.params)[-1]]
        tapes = []
        forward = victim.encoder.forward

        def recording(tape, *args, **kwargs):
            tapes.append(tape)
            return forward(tape, *args, **kwargs)

        backward = T.Tape.backward

        def poisoning(tape, *args, **kwargs):
            backward(tape, *args, **kwargs)
            if any(tape is t for t in tapes):
                poisoned.grad = np.full_like(poisoned.values, np.nan)

        monkeypatch.setattr(victim.encoder, "forward", recording)
        monkeypatch.setattr(T.Tape, "backward", poisoning)
        with pytest.raises(NumericError, match=poisoned.name):
            session.train_round(batch, step=1)
        assert tapes

        (params, moments), (want_params, want_moments) = state(), before
        assert params.keys() == want_params.keys()
        for key in params:
            assert np.array_equal(params[key], want_params[key]), key
        for got, want in zip(moments, want_moments):
            (t, offsets, m, v), (want_t, want_offsets, want_m, want_v) = got, want
            assert t == want_t and offsets == want_offsets
            assert np.array_equal(m, want_m) and np.array_equal(v, want_v)

    def test_failed_round_leaves_no_transcript_trace(self, tiny_bundle, monkeypatch):
        session = P.SplitSession(
            make_views(tiny_bundle, [5, 5]),
            session_config(strategy="average", secure=True,
                           encoder=encoder_config(kind="gcn", layers=1)))
        session.align()
        batch = session._split_ids("train")[:8]
        before = len(session.transcript.records)

        # the round fails at the finite check, after every message was sent
        victim = session.participants[1].encoder.params
        poisoned = victim[sorted(victim)[-1]]
        backward = T.Tape.backward

        def poisoning(tape, *args, **kwargs):
            backward(tape, *args, **kwargs)
            poisoned.grad = np.full_like(poisoned.values, np.nan)

        with monkeypatch.context() as patch:
            patch.setattr(T.Tape, "backward", poisoning)
            with pytest.raises(NumericError):
                session.train_round(batch, step=0)
        assert len(session.transcript.records) == before
        assert not session.transcript.decryptions

        session.train_round(batch, step=0)
        kinds = [r.kind for r in session.transcript.records if r.round == 0]
        assert kinds == ["ciphertext", "ciphertext", "hidden", "gradient",
                         "gradient", "gradient"]
        assert [(e.round, e.aggregated) for e in session.transcript.decryptions] == [
            (0, True)]
        assert C.transcript_audit(session.transcript).ok

    @pytest.mark.parametrize("secure,fault", [(False, "nan"), (True, "nan"),
                                              (True, "fixed-point")])
    def test_a_failed_round_shifts_no_later_round_number(self, tiny_bundle, monkeypatch,
                                                          secure, fault):
        # a round is named by its step, not by how many rounds succeeded
        # before it: the round after a failed step k is recorded as k + 1
        session = P.SplitSession(
            make_views(tiny_bundle, [5, 5]),
            session_config(strategy="average", secure=secure,
                           encoder=encoder_config(kind="gcn", layers=1)))
        session.align()
        batch = session._split_ids("train")[:8]
        session.train_round(batch, step=0)
        with monkeypatch.context() as patch:
            if fault == "nan":
                # every message is sent before the finite check fails
                victim = session.participants[1].encoder.params
                poisoned = victim[sorted(victim)[-1]]
                backward = T.Tape.backward

                def poisoning(tape, *args, **kwargs):
                    backward(tape, *args, **kwargs)
                    poisoned.grad = np.full_like(poisoned.values, np.nan)

                patch.setattr(T.Tape, "backward", poisoning)
                error = NumericError
            else:
                # ω = 2^40 puts participant 1's term outside the fixed-point range
                patch.setattr(session.participants[1].weight, "values", np.full(4, 2.0**40))
                error = DomainError
            with pytest.raises(error):
                session.train_round(batch, step=1)
        session.train_round(batch, step=2)
        rounds = [r.round for r in session.transcript.records if r.round >= 0]
        assert rounds == [0] * 6 + [2] * 6
        events = [(e.round, e.aggregated) for e in session.transcript.decryptions]
        assert events == ([(0, True), (2, True)] if secure else [])

    def test_a_retried_secure_round_sends_the_ciphertexts_of_an_unfailed_one(
            self, tiny_bundle, monkeypatch):
        # a round's blinding stream is named by its step, so a round that
        # failed after its ciphertexts were sent draws nothing a retry of
        # the step, or a later step, would draw
        sent = []
        send = P.RoundTranscript.send

        def spy(transcript, round_index, sender, receiver, kind, payload):
            if kind == "ciphertext":
                sent.append((round_index, sender, [c.value for c in payload]))
            return send(transcript, round_index, sender, receiver, kind, payload)

        monkeypatch.setattr(P.RoundTranscript, "send", spy)

        def session():
            s = P.SplitSession(
                make_views(tiny_bundle, [5, 5]),
                session_config(strategy="concat", secure=True,
                               encoder=encoder_config(kind="gcn", layers=1)))
            s.align()
            return s, s._split_ids("train")[:8]

        clean, batch = session()
        for step in range(3):
            clean.train_round(batch, step=step)
        want, sent[:] = list(sent), []

        failing, batch = session()
        failing.train_round(batch, step=0)
        poisoned = failing.server_params["server/l1/W"]
        backward = T.Tape.backward

        def poisoning(tape, *args, **kwargs):
            backward(tape, *args, **kwargs)
            poisoned.grad = np.full_like(poisoned.values, np.nan)

        with monkeypatch.context() as patch:
            patch.setattr(T.Tape, "backward", poisoning)
            with pytest.raises(NumericError, match="server/l1/W"):
                failing.train_round(batch, step=1)
        for step in (1, 2):
            failing.train_round(batch, step=step)
        assert len(want) == 6
        assert sent == want[:4] + want[2:]

    @pytest.mark.parametrize("step", [1, 0, -1, -5, 2.0])
    def test_a_step_that_does_not_follow_the_last_round_is_refused(
            self, tiny_bundle, monkeypatch, step):
        """A repeated, lower, negative or non-integer step is refused with
        ``ProtocolError`` before any party computes: no record, no optimizer
        step."""
        session = P.SplitSession(make_views(tiny_bundle, [5, 5]),
                                 session_config(optimizer="adam"))
        session.align()
        batch = session._split_ids("train")[:8]
        with pytest.raises(ProtocolError, match=r"^step -1 does not follow round -1$"):
            session.train_round(batch, step=-1)
        for k in (0, 1):
            session.train_round(batch, step=k)
        records = list(session.transcript.records)
        calls = []
        for p in session.participants:
            monkeypatch.setattr(p.encoder, "forward", lambda *a, **k: calls.append(a))
        with pytest.raises(ProtocolError, match=rf"^step {step!r} does not follow round 1$"):
            session.train_round(batch, step=step)
        assert calls == []
        assert session.transcript.records == records
        assert [p.optimizer._t for p in session.participants] == [2, 2]
        assert session.server_optimizer._t == 2

    def test_a_second_train_is_refused_before_any_round(self, tiny_bundle):
        # train() numbers its rounds from step 0, which a trained session's
        # transcript has already used
        session = P.SplitSession(make_views(tiny_bundle, [5, 5]),
                                 session_config(optimizer="adam", epochs=1))
        session.train()
        records = list(session.transcript.records)
        last = records[-1].round
        with pytest.raises(ProtocolError, match=rf"^step 0 does not follow round {last}$"):
            session.train()
        assert session.transcript.records == records
        assert [p.optimizer._t for p in session.participants] == [last + 1] * 2
        assert session.server_optimizer._t == last + 1

    @pytest.mark.parametrize("kind", ["gcn", "hat"])
    @pytest.mark.parametrize("batch,message", [
        ([], "a batch needs at least one node id"),
        ([-1, 5, 7], r"node id -1 is outside \[0, 40\)"),
        ([3, 10**6], r"node id 1000000 is outside \[0, 40\)"),
        ([1.7, 2.2], r"got dtype float64 and shape \(2,\)"),
        (np.array([True, False]), r"got dtype bool and shape \(2,\)"),
        ([[1, 2], [3, 4]], r"a vector of integers, got dtype int64 and shape \(2, 2\)"),
    ], ids=["empty", "negative", "past-the-end", "fractional", "bool-mask", "nested"])
    def test_bad_batch_refused_before_any_party_computes(self, tiny_bundle, monkeypatch,
                                                         kind, batch, message):
        """An empty batch, one with an id outside the graph, or one that is
        not a vector of integers is refused with ``DomainError`` by
        ``train_round`` and ``predict`` before any encoder runs: no
        transcript record, no optimizer step."""
        session = P.SplitSession(make_views(tiny_bundle, [5, 5]), session_config(
            optimizer="adam", encoder=encoder_config(kind=kind)))
        session.align()
        assert tiny_bundle.graph.num_nodes == 40
        session.train_round(session._split_ids("train")[:8], step=0)
        records = list(session.transcript.records)
        values = {(p.name, k): t.values.copy()
                  for p in session.participants for k, t in p.trainable().items()}
        calls = []
        for p in session.participants:
            monkeypatch.setattr(p.encoder, "forward", lambda *a, **k: calls.append(a))
        for call in (lambda: session.train_round(batch, step=1),
                     lambda: session.predict(batch)):
            with pytest.raises(DomainError, match=message):
                call()
        assert calls == []
        assert session.transcript.records == records
        assert [p.optimizer._t for p in session.participants] == [1, 1]
        assert session.server_optimizer._t == 1
        for p in session.participants:
            for k, t in p.trainable().items():
                assert np.array_equal(t.values, values[(p.name, k)]), k

    def test_two_runs_identical_losses_and_transcripts(self, tiny_bundle):
        def run():
            session = P.SplitSession(make_views(tiny_bundle, [5, 5]),
                                     session_config(epochs=2, batch_size=8))
            rows = session.train()
            return rows, [(r.sender, r.receiver, r.kind, r.elements, r.bytes)
                          for r in session.transcript.records]

        r1, t1 = run()
        r2, t2 = run()
        assert r1 == r2
        assert t1 == t2


class TestTranscriptShape:
    def _session(self, bundle, **cfg):
        session = P.SplitSession(make_views(bundle, [5, 5]), session_config(**cfg))
        session.align()
        return session

    def test_plaintext_byte_accounting(self, tiny_bundle):
        session = self._session(tiny_bundle, strategy="average")
        batch = session._split_ids("train")[:8]
        session.train_round(batch, step=0)
        d = session.config.encoder.hidden
        n = len(batch)
        recs = [r for r in session.transcript.records if r.round == 0]
        up = [r for r in recs if r.kind == "embedding"]
        assert len(up) == 2
        assert all(r.elements == n * d and r.bytes == n * d * 8 for r in up)
        hidden = [r for r in recs if r.kind == "hidden"]
        assert len(hidden) == 1 and hidden[0].receiver == "party_0"
        grads = [r for r in recs if r.kind == "gradient"]
        # one up from the label holder, one down per participant
        assert len(grads) == 3
        down = [r for r in grads if r.sender == "server"]
        assert all(r.elements == n * d for r in down)

    def test_participants_never_send_raw_features(self, tiny_bundle):
        session = self._session(tiny_bundle)
        batch = session._split_ids("train")[:8]
        session.train_round(batch, step=0)
        d = session.config.encoder.hidden
        for rec in session.transcript.records:
            assert rec.kind in ("embedding", "ciphertext", "hidden", "gradient", "psi")
            if rec.sender.startswith("party_") and rec.kind == "embedding":
                assert rec.elements == len(batch) * d  # d-dim embeddings only

    def test_hidden_goes_only_to_label_holder(self, tiny_bundle):
        bundle = make_bundle(seed=9)
        views = make_views(bundle, [5, 5], label_holder=1)
        session = P.SplitSession(views, session_config())
        session.align()
        session.train_round(session._split_ids("train")[:8], step=0)
        for rec in session.transcript.records:
            if rec.kind == "hidden":
                assert rec.receiver == "party_1"
            if rec.kind == "gradient" and rec.sender.startswith("party_"):
                assert rec.sender == "party_1"

    def test_csv_export_columns(self, tiny_bundle, tmp_path):
        session = self._session(tiny_bundle)
        session.train_round(session._split_ids("train")[:8], step=0)
        path = tmp_path / "t.csv"
        session.transcript.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "round,from,to,kind,elements,bytes,encrypted"


class TestSecureRounds:
    @pytest.mark.parametrize("strategy", ["average", "weighted", "concat"])
    def test_secure_matches_plaintext_loss(self, strategy):
        bundle = make_bundle(seed=3)

        def run(secure):
            session = P.SplitSession(
                make_views(bundle, [5, 5]),
                session_config(strategy=strategy, secure=secure, batch_size=8,
                               encoder=encoder_config(kind="gcn", layers=1)))
            session.align()
            batch = session._split_ids("train")[:8]
            return session.train_round(batch, step=0), session

        loss_plain, _ = run(False)
        loss_secure, session = run(True)
        assert loss_secure == pytest.approx(loss_plain, abs=1e-5)
        cts = [r for r in session.transcript.records if r.kind == "ciphertext"]
        assert len(cts) == 2 and all(r.encrypted for r in cts)
        assert C.transcript_audit(session.transcript).ok

    def test_secure_average_audit_clean_plaintext_flagged(self, tiny_bundle):
        plain = P.SplitSession(make_views(tiny_bundle, [5, 5]),
                               session_config(strategy="average"))
        plain.align()
        plain.train_round(plain._split_ids("train")[:8], step=0)
        report = C.transcript_audit(plain.transcript)
        assert len([f for f in report.findings
                    if f.kind == "plaintext_embedding"]) == 2

    def test_secure_concat_decrypts_only_the_sum(self, tiny_bundle):
        # concat's terms x_i @ W_i are summed like any other strategy's
        session = P.SplitSession(
            make_views(tiny_bundle, [5, 5]),
            session_config(strategy="concat", secure=True,
                           encoder=encoder_config(kind="gcn", layers=1)))
        session.align()
        batch = session._split_ids("train")[:8]
        for step in range(2):
            session.train_round(batch, step=step)
        cts = [(r.round, r.sender, r.receiver) for r in session.transcript.records
               if r.kind == "ciphertext"]
        assert cts == [(k, f"party_{i}", "server") for k in range(2) for i in range(2)]
        events = [(e.round, e.elements, e.aggregated) for e in session.transcript.decryptions]
        assert events == [(k, 8 * 4, True) for k in range(2)]
        assert C.transcript_audit(session.transcript).ok

    @pytest.mark.parametrize("strategy", ["average", "weighted", "concat"])
    def test_combine_matches_fixed_point_oracle(self, tiny_bundle, strategy):
        session = P.SplitSession(
            make_views(tiny_bundle, [5, 5]),
            session_config(strategy=strategy, secure=True,
                           encoder=encoder_config(kind="gcn", layers=1)))
        session.align()
        rng = stable_rng("secure-oracle", strategy)
        locals_ = [3.0 * rng.standard_normal((5, 4)) for _ in range(2)]
        if strategy != "concat":
            # each participant encrypts its own ω⊙l, a term of the sum, as
            # under concat its own l @ W_i; average's ω is the fixed 1/I
            omegas = [np.array([0.5, 0.3, 1.25, 0.0]), np.array([-0.75, 0.7, 0.5, -0.1])]
            if strategy == "average":
                omegas = [p.weight.values for p in session.participants]
                assert all(np.array_equal(w, np.full(4, 0.5)) for w in omegas)
            locals_ = [w * l for w, l in zip(omegas, locals_)]
        got = session._uplink(0, locals_, random.Random(0))

        s = C.SCALE_BITS
        fx = [[[round(float(x) * 2**s) for x in row] for row in l] for l in locals_]
        want = np.array([[(fx[0][i][j] + fx[1][i][j]) / 2**s for j in range(4)]
                         for i in range(5)])
        assert np.array_equal(got, want)

        width = 4 + 2 * 512 // 8
        assert [(r.sender, r.receiver, r.kind, r.elements, r.bytes, r.encrypted)
                for r in session.transcript.records if r.round == 0] == [
            (f"party_{i}", "server", "ciphertext", 20, 20 * width, True) for i in range(2)]
        events = [(e.round, e.elements, e.aggregated) for e in session.transcript.decryptions]
        assert events == [(0, 20, True)]

    @pytest.mark.parametrize("strategy", ["average", "weighted", "concat"])
    def test_out_of_range_term_raises_before_encryption(self, tiny_bundle, strategy):
        # every strategy's terms are checked against the one fixed-point
        # range, 2^20 before scaling, under a real 512-bit key
        session = P.SplitSession(
            make_views(tiny_bundle, [5, 5]),
            session_config(strategy=strategy, secure=True,
                           encoder=encoder_config(kind="gcn", layers=1)))
        session.align()
        assert session.config.key_bits == 512
        locals_ = [np.full((2, 4), 0.5), np.full((2, 4), -0.25)]
        locals_[1][1, 2] = 2.0**20
        blinding = random.Random(0)
        state = blinding.getstate()
        records = list(session.transcript.records)
        with pytest.raises(DomainError, match=(
                r"party_1 element 6: value 1048576.0 is outside the fixed-point range")):
            session._uplink(0, locals_, blinding)
        assert blinding.getstate() == state
        assert session.transcript.records == records
        assert not session.transcript.decryptions

    def test_short_ciphertext_list_raises_before_decryption(self, tiny_bundle, monkeypatch):
        # a participant whose message is one ciphertext short is refused
        # before the server decrypts anything, so no decryption is logged
        session = P.SplitSession(
            make_views(tiny_bundle, [5, 5, 5]),
            session_config(strategy="average", secure=True,
                           encoder=encoder_config(kind="gcn", layers=1)))
        session.align()
        send = session.transcript.send

        def short(round_index, sender, receiver, kind, payload):
            if sender == "party_2":
                payload = payload[:-1]
            return send(round_index, sender, receiver, kind, payload)

        monkeypatch.setattr(session.transcript, "send", short)
        decrypted = []
        monkeypatch.setattr(C, "decrypt", lambda *args: decrypted.append(args))
        locals_ = [np.full((2, 4), 0.5)] * 3
        with pytest.raises(ContractError, match=(
                r"^expected 8 ciphertexts from each participant, got \[8, 8, 7\]$")):
            session._uplink(0, locals_, random.Random(0))
        assert decrypted == []
        assert not session.transcript.decryptions

    def test_ciphertext_bytes_exceed_plaintext(self, tiny_bundle):
        secure = P.SplitSession(
            make_views(tiny_bundle, [5, 5]),
            session_config(strategy="average", secure=True,
                           encoder=encoder_config(kind="gcn", layers=1)))
        secure.align()
        secure.train_round(secure._split_ids("train")[:8], step=0)
        up = secure.transcript.total_bytes("ciphertext")
        assert up > 8 * 8 * 4 * 2  # far above the plaintext equivalent


def server_average_round(session, batch, step):
    """One plaintext average round with the division at the server: the
    encoders' outputs go up unscaled, the server divides their sum by I, and
    each encoder's backward receives the server-input gradient divided by I.
    The oracle for average as each participant's fixed ω = 1/I; it sends no
    messages, so only losses, gradients and parameters compare."""
    count = len(session.participants)
    groups = [p.trainable() for p in session.participants] + [session.server_params]
    for group in groups:
        for tensor in group.values():
            tensor.zero_grad()
    tapes, embeds = [], []
    for p in session.participants:
        tapes.append(T.Tape())
        embeds.append(p.encoder.forward(tapes[-1], batch))
    server_tape = T.Tape()
    server_in = T.Tensor(np.sum([e.values for e in embeds], axis=0) / count,
                         requires_grad=True)
    out = session.server.forward(server_tape, server_in, step=step, training=True)
    labels = session.label_holder.view.graph.labels[batch]
    loss, hidden_grad = P.label_forward_loss(T.Tape(), out.values,
                                             session.label_holder.head, labels)
    server_tape.backward(out, seed_grad=hidden_grad)
    for tape, emb in zip(tapes, embeds):
        tape.backward(emb, seed_grad=server_in.grad / count)
    for p, group in zip(session.participants, groups):
        p.optimizer.step(group)
    session.server_optimizer.step(session.server_params)
    return loss.item()


class TestAverageOmega:
    # average is each participant's fixed ω = 1/I, applied before the sum;
    # with I a power of two that scaling is exact, so it trains bit for bit
    # as the server-side division did

    @pytest.mark.parametrize("count", [2, 4, 8])
    def test_matches_server_side_division_bit_for_bit(self, count):
        bundle = make_bundle(seed=9, n_u=30, n_v=20, feature_dim=16)
        cfg = session_config(strategy="average", optimizer="adam", learning_rate=0.05,
                             encoder=encoder_config())
        split, oracle = (P.SplitSession(make_views(bundle, [1] * count), cfg)
                         for _ in range(2))
        split.align()
        oracle.align()

        def tensors(session):
            out = dict(session.server_params)
            for p in session.participants:
                out.update(p.trainable())
            return out

        batches = P.batch_schedule(split._split_ids("train"), 8, 0, cfg.seed)[:3]
        for step, batch in enumerate(batches):
            assert split.train_round(batch, step) == server_average_round(oracle, batch, step)
            got, want = tensors(split), tensors(oracle)
            assert sorted(got) == sorted(want)
            for name in want:
                assert want[name].grad is not None, name
                assert np.array_equal(got[name].grad, want[name].grad), (step, name)
                assert np.array_equal(got[name].values, want[name].values), (step, name)

    def test_omega_is_fixed_and_not_a_parameter(self, tiny_bundle):
        def session(strategy):
            s = P.SplitSession(make_views(tiny_bundle, [3, 3, 4]),
                               session_config(strategy=strategy, optimizer="adam"))
            s.align()
            return s

        def params(s):
            return count_params([p.trainable() for p in s.participants] + [s.server_params])

        average, weighted = session("average"), session("weighted")
        d = average.config.encoder.hidden
        for p in average.participants:
            assert p.weight.name == f"enc{p.index}/omega" and not p.weight.requires_grad
            assert np.array_equal(p.weight.values, np.full(d, 1.0 / 3))
            assert p.weight.name not in p.trainable()
        # weighted differs from average only in its trainable ω
        assert params(average) == params(weighted) - 3 * d
        batch = average._split_ids("train")[:8]
        for step in range(3):
            average.train_round(batch, step)
        for p in average.participants:
            assert p.weight.grad is None
            assert np.array_equal(p.weight.values, np.full(d, 1.0 / 3))
            assert p.weight.name not in p.optimizer._offsets

    @pytest.mark.parametrize("count", [2, 4])
    def test_secure_sum_is_within_rounding_of_the_mean(self, count, monkeypatch):
        # each participant fixed-point encodes x_i / I, so each element of
        # the decrypted sum carries up to I roundings of 2^-25
        bundle = make_bundle(seed=3, feature_dim=8)
        session = P.SplitSession(
            make_views(bundle, [1] * count),
            session_config(strategy="average", secure=True,
                           encoder=encoder_config(kind="gcn", layers=1)))
        session.align()
        batch = session._split_ids("train")[:8]
        embeds = [p.encoder.forward(None, batch).values
                  for p in session.participants]
        sums, secure_sum = [], C.secure_sum

        def spy(*args):
            sums.append(secure_sum(*args))
            return sums[-1]

        monkeypatch.setattr(C, "secure_sum", spy)
        session.train_round(batch, step=0)
        [got] = sums
        assert np.all(np.abs(got - np.sum(embeds, axis=0) / count) <= count * 2.0**-25)


class TestWeightedMessages:
    def test_participants_send_omega_terms_and_receive_the_whole_gradient(
            self, tiny_bundle, monkeypatch):
        # the server sees only ω_i⊙l_i, and hands every participant the
        # server-input gradient itself, from which its tape derives ω's
        session = P.SplitSession(make_views(tiny_bundle, [5, 5]),
                                 session_config(strategy="weighted"))
        session.align()
        batch = session._split_ids("train")[:8]
        rng = stable_rng("omega-messages")
        for p in session.participants:
            p.weight.values[:] = rng.uniform(-1.0, 1.0, p.weight.values.shape)
        want = {p.name: p.weight.values * p.encoder.forward(None, batch).values
                for p in session.participants}

        sent, routed = [], []
        send, route = session.transcript.send, P.backward_route

        def spy_send(*args):
            sent.append(args)
            return send(*args)

        def spy_route(grad, *args):
            routed.append(grad.copy())
            return route(grad, *args)

        monkeypatch.setattr(session.transcript, "send", spy_send)
        monkeypatch.setattr(P, "backward_route", spy_route)
        session.train_round(batch, step=0)

        ups = [(sender, payload) for _, sender, _, kind, payload in sent
               if kind == "embedding"]
        assert [sender for sender, _ in ups] == ["party_0", "party_1"]
        for sender, payload in ups:
            assert np.array_equal(payload, want[sender]), sender
        downs = [payload for _, sender, _, kind, payload in sent
                 if sender == "server" and kind == "gradient"]
        assert len(routed) == 1 and len(downs) == 2
        for payload in downs:
            assert np.array_equal(payload, routed[0])


class TestConcatBlocks:
    def test_participants_hold_row_blocks_of_the_seeded_weight(self, tiny_bundle):
        # [x_1 x_2 x_3] @ W = Σ_i x_i @ W_i: participant i holds rows
        # i·d … (i+1)·d of the W the server's first layer would have seeded,
        # sends x_i @ W_i, and the server keeps only that layer's bias
        session = P.SplitSession(make_views(tiny_bundle, [3, 3, 4]), session_config())
        d = session.config.encoder.hidden
        W = init_param({}, "server/l0/W", (3 * d, d), session.config.seed).values
        for i, p in enumerate(session.participants):
            assert p.weight.name == f"enc{i}/W"
            assert np.array_equal(p.weight.values, W[i * d:(i + 1) * d])
            assert p.trainable()[p.weight.name] is p.weight
        assert sorted(session.server_params) == ["server/l0/b", "server/l1/W",
                                                 "server/l1/b"]
        batch = np.arange(6)
        for p in session.participants:
            emb = p.encoder.forward(None, batch).values
            assert np.array_equal(p.embed(None, batch).values, emb @ p.weight.values)


def centralized_train(view, cfg) -> list[dict]:
    """The split pipeline's oracle: the same encoder, server stack and output
    head composed on one tape with no messages, trained over the same batch
    schedule and returning the rows ``SplitSession.train`` returns."""
    d = cfg.encoder.hidden
    encoder = make_encoder(view, cfg.encoder, cfg.seed, scope=f"enc{view.participant}")
    server = P.ServerNet(d, d, cfg.seed)
    head = P.LabelHead(d, view.graph.num_classes, cfg.seed)
    params = {**encoder.params, **server.params, **head.params}
    optimizer = T.OPTIMIZERS[cfg.optimizer](cfg.learning_rate)

    def logits(tape, ids, step=0, training=False):
        emb = encoder.forward(tape, ids)
        return head.logits(tape, server.forward(tape, emb, step=step, training=training))

    def f1(ids):
        return P.micro_f1(np.argmax(logits(None, ids).values, axis=1),
                          view.graph.labels[ids])

    rows, step = [], 0
    for epoch in range(cfg.epochs):
        losses = []
        for batch in P.batch_schedule(view.train_ids, cfg.batch_size, epoch,
                                      cfg.seed)[:cfg.rounds_per_epoch]:
            tape = T.Tape()
            loss = T.cross_entropy(tape, logits(tape, batch, step, training=True),
                                   view.graph.labels[batch])
            for p in params.values():
                p.zero_grad()
            tape.backward(loss)
            optimizer.step(params)
            losses.append(loss.item())
            step += 1
        rows.append({"epoch": epoch, "train_loss": float(np.mean(losses)),
                     "val_f1": f1(view.val_ids), "test_f1": f1(view.test_ids)})
    return rows


class TestSplitCentralizedEquivalence:
    # with one participant the cut changes nothing: concat's W_1 is the whole
    # first-layer weight and average's ω is 1, so a session trains bit for
    # bit as one tape does

    def test_losses_match_over_50_steps(self):
        bundle = make_bundle(seed=7, n_u=30, n_v=20)
        cfg = session_config(strategy="concat", batch_size=8, epochs=50,
                             rounds_per_epoch=1, learning_rate=0.05)
        assert P.SplitSession([single_view(bundle)], cfg).train() == \
            centralized_train(single_view(bundle), cfg)

    @pytest.mark.parametrize("strategy", ["concat", "average"])
    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    @pytest.mark.parametrize("kind", ["hat", "gcn", "gat"])
    def test_rows_match_oracle(self, kind, optimizer, strategy):
        bundle = make_bundle(seed=7, n_u=30, n_v=20)
        enc = encoder_config(kind=kind)
        cfg = session_config(encoder=enc, strategy=strategy, optimizer=optimizer,
                             batch_size=8, epochs=3, rounds_per_epoch=2,
                             learning_rate=0.05)
        rows = P.SplitSession([single_view(bundle)], cfg).train()
        assert rows == centralized_train(single_view(bundle), cfg)

    @pytest.mark.parametrize("strategy", ["average", "concat", "weighted"])
    def test_gradient_routing_matches_finite_differences(self, strategy):
        # the gradients of one routed round (SGD at learning rate 0 leaves
        # every parameter as it was) against finite differences of the same
        # math on one tape: encoders, each participant's ω or W_i, server, head
        bundle = make_bundle(seed=8, n_u=10, n_v=6, feature_dim=3)
        enc = encoder_config(layers=1, hidden=3, heads=1)
        cfg = session_config(encoder=enc, strategy=strategy, batch_size=4,
                             optimizer="sgd", learning_rate=0.0)
        session = P.SplitSession(make_views(bundle, [5, 5]), cfg)
        session.align()
        batch = session._split_ids("train")[:4]
        labels = session.label_holder.view.graph.labels[batch]

        all_params = dict(session.server_params)
        for p in session.participants:
            all_params.update(p.trainable())
        # average's ω is there, fixed at 1/I, but it is not a parameter
        own = [p.weight for p in session.participants]
        assert [w.name for w in own] == {"average": ["enc0/omega", "enc1/omega"],
                                         "concat": ["enc0/W", "enc1/W"],
                                         "weighted": ["enc0/omega", "enc1/omega"]}[strategy]
        assert all((all_params.get(w.name) is w) == (strategy != "average") for w in own)
        assert ("server/l0/W" in all_params) == (strategy != "concat")
        before = {name: p.values.copy() for name, p in all_params.items()}
        session.train_round(batch, step=0)
        analytic = {name: p.grad.copy() for name, p in all_params.items()}
        for name, p in all_params.items():
            assert np.array_equal(p.values, before[name]), name

        def forward():
            tape = T.Tape()
            terms = [p.embed(tape, batch) for p in session.participants]
            combined = T.add(tape, terms[0], terms[1])
            # the round's own server dropout masks, those of step 0
            hidden = session.server.forward(tape, combined, step=0, training=True)
            head = session.label_holder.head
            loss = T.cross_entropy(tape, head.logits(tape, hidden), labels)
            return loss, tape

        eps = 1e-5
        worst = 0.0
        for name, p in all_params.items():
            flat = p.values.reshape(-1)
            ga = analytic[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up = forward()[0].item()
                flat[i] = orig - eps
                down = forward()[0].item()
                flat[i] = orig
                fd = (up - down) / (2 * eps)
                worst = max(worst, abs(ga[i] - fd) / (abs(ga[i]) + 1e-8))
        assert worst < 1e-4


class TestEvaluate:
    def test_evaluate_on_trained_session(self, tiny_bundle):
        session = P.SplitSession(make_views(tiny_bundle, [5, 5]),
                                 session_config(epochs=1))
        session.train()
        f1 = session.evaluate("test")
        assert 0.0 <= f1 <= 1.0
