import numpy as np
import pytest

from conftest import (encoder_config, finite_diff_check, make_bundle, make_views,
                      session_config, single_view, small_key)
from splitgnn import crypto as C
from splitgnn import protocol as P
from splitgnn import tensor as T
from splitgnn.errors import ConfigError, DomainError, NumericError, ProtocolError
from splitgnn.models import make_encoder
from splitgnn.seeding import stable_rng


class TestCombine:
    # average is the sum over I; weighted is the sum of terms each
    # participant has already scaled by its own ω

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

    def test_concat_basic(self):
        out = P.combine_concat([np.array([[1.0, 2.0]]), np.array([[3.0]])])
        np.testing.assert_array_equal(out, [[1.0, 2.0, 3.0]])

    def test_concat_single_identity(self):
        x = np.array([[1.0, 2.0]])
        np.testing.assert_array_equal(P.combine_concat([x]), x)

    def test_concat_permutation_moves_blocks(self):
        a, b = np.full((2, 2), 1.0), np.full((2, 2), 2.0)
        ab = P.combine_concat([a, b])
        ba = P.combine_concat([b, a])
        np.testing.assert_array_equal(ab[:, :2], ba[:, 2:])

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


class TestBackwardRoute:
    def test_average_splits_evenly(self):
        g = np.array([[2.0, 4.0]])
        routed = P.backward_route(g, "average", 2)
        for r in routed:
            np.testing.assert_array_equal(r, [[1.0, 2.0]])

    def test_concat_blocks_reassemble(self):
        rng = stable_rng("route-concat")
        g = rng.standard_normal((5, 6))
        routed = P.backward_route(g, "concat", 3)
        np.testing.assert_array_equal(np.concatenate(routed, axis=1), g)

    def test_average_conservation(self):
        rng = stable_rng("route-avg")
        g = rng.standard_normal((4, 3))
        routed = P.backward_route(g, "average", 4)
        np.testing.assert_allclose(4 * routed[0], g, rtol=1e-14)

    def test_weighted_routes_and_weight_grads(self):
        # each participant gets the whole gradient of the sum, and its own
        # tape turns it into its ω gradient and its encoder's gradient
        rng = stable_rng("route-w")
        g = rng.standard_normal((4, 3))
        routed = P.backward_route(g, "weighted", 2)
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

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError, match="unknown strategy"):
            P.backward_route(np.ones((2, 2)), "median", 2)


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
        net = P.ServerNet(4, 4, seed=0, dropout=0.0)
        for name, p in net.params.items():
            if name.endswith("/W"):
                p.values[:] = 0.0
        x = stable_rng("srv").standard_normal((5, 4))
        out = net.forward(None, T.Tensor(x))
        assert np.all(out.values == out.values[0])

    def test_dropout_off_deterministic(self):
        net = P.ServerNet(4, 4, seed=0, dropout=0.3)
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
        net = P.ServerNet(3, 3, seed=1, dropout=0.0)
        head = P.LabelHead(3, 2, seed=1)
        x = stable_rng("srv-fd").standard_normal((4, 3))
        labels = [0, 1, 1, 0]

        def forward():
            tape = T.Tape()
            hidden = net.forward(tape, T.Tensor(x), training=False)
            loss, _ = head.forward_loss(tape, hidden, labels)
            return loss, tape

        params = list(net.params.values()) + list(head.params.values())
        assert finite_diff_check(forward, params) < 1e-4


class TestSessionBasics:
    def test_unaligned_round_rejected(self, tiny_bundle):
        session = P.SplitSession(make_views(tiny_bundle, [5, 5]), session_config())
        with pytest.raises(ProtocolError, match="align"):
            session.train_round([0, 1], step=0)

    def test_two_label_holders_rejected(self, tiny_bundle):
        views = make_views(tiny_bundle, [5, 5])
        views[1].has_labels = True
        views[1].graph.labels = views[0].graph.labels.copy()
        with pytest.raises(ConfigError, match="label holder"):
            P.SplitSession(views, session_config())

    def test_empty_intersection_aborts(self, tiny_bundle):
        session = P.SplitSession(make_views(tiny_bundle, [5, 5]), session_config())
        with pytest.raises(ProtocolError, match="empty"):
            session.align(id_subsets=[["n0", "n1"], ["n2", "n3"]])

    def test_alignment_restricts_training_ids(self, tiny_bundle):
        session = P.SplitSession(make_views(tiny_bundle, [5, 5]), session_config())
        keep = [f"n{i}" for i in range(0, 40, 2)]
        session.align(id_subsets=[keep, keep + ["n39"]])
        aligned_train = session._split_ids("train")
        assert np.all(aligned_train % 2 == 0)

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
            moments = [(o._t, {k: m.copy() for k, m in o._m.items()},
                        {k: v.copy() for k, v in o._v.items()}) for o in opts]
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
        for (t, m, v), (want_t, want_m, want_v) in zip(moments, want_moments):
            assert t == want_t
            assert m.keys() == want_m.keys() and v.keys() == want_v.keys()
            for name in m:
                assert np.array_equal(m[name], want_m[name]), name
                assert np.array_equal(v[name], want_v[name]), name

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
    @pytest.mark.parametrize("strategy", ["average", "weighted"])
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

    def test_secure_concat_labeled_weaker(self, tiny_bundle):
        session = P.SplitSession(
            make_views(tiny_bundle, [5, 5]),
            session_config(strategy="concat", secure=True,
                           encoder=encoder_config(kind="gcn", layers=1)))
        session.align()
        session.train_round(session._split_ids("train")[:8], step=0)
        cts = [r for r in session.transcript.records if r.kind == "ciphertext"]
        assert all(r.receiver == "decryptor" for r in cts)
        report = C.transcript_audit(session.transcript)
        assert {f.kind for f in report.findings} == {"per_participant_decryption"}

    @pytest.mark.parametrize("strategy", ["average", "weighted", "concat"])
    def test_combine_matches_fixed_point_oracle(self, tiny_bundle, strategy):
        session = P.SplitSession(
            make_views(tiny_bundle, [5, 5]),
            session_config(strategy=strategy, secure=True,
                           encoder=encoder_config(kind="gcn", layers=1)))
        session.align()
        rng = stable_rng("secure-oracle", strategy)
        locals_ = [3.0 * rng.standard_normal((5, 4)) for _ in range(2)]
        if strategy == "weighted":
            # each participant encrypts its own ω⊙l, a term of the sum
            omegas = [np.array([0.5, 0.3, 1.25, 0.0]), np.array([-0.75, 0.7, 0.5, -0.1])]
            locals_ = [w * l for w, l in zip(omegas, locals_)]
        got = session._combine(session._secure_uplink(locals_))

        s = C.SCALE_BITS
        fx = [[[round(float(x) * 2**s) for x in row] for row in l] for l in locals_]
        if strategy == "concat":
            want = np.array([[m / 2**s for l in fx for m in l[i]] for i in range(5)])
        else:
            want = np.array([[(fx[0][i][j] + fx[1][i][j]) / 2**s for j in range(4)]
                             for i in range(5)])
            if strategy == "average":
                want = want / 2
        assert np.array_equal(got, want)

        width = 4 + 2 * 512 // 8
        receiver = "decryptor" if strategy == "concat" else "server"
        assert [(r.sender, r.receiver, r.kind, r.elements, r.bytes, r.encrypted)
                for r in session.transcript.records if r.round == 0] == [
            (f"party_{i}", receiver, "ciphertext", 20, 20 * width, True) for i in range(2)]
        events = [(e.round, e.elements, e.aggregated) for e in session.transcript.decryptions]
        assert events == ([(0, 20, False)] * 2 if strategy == "concat" else [(0, 20, True)])

    def test_weighted_wrap_raises_before_encryption(self, tiny_bundle):
        # a weighted term is checked like any summand: under n / 2I
        session = P.SplitSession(
            make_views(tiny_bundle, [5, 5]),
            session_config(strategy="weighted", secure=True,
                           encoder=encoder_config(kind="gcn", layers=1)))
        session.align()
        session.keypair = small_key()
        bound = session.keypair.public.n // 4
        locals_ = [np.full((2, 4), 0.5), np.full((2, 4), -2.0**34)]
        state = session._enc_rng.getstate()
        with pytest.raises(DomainError, match=(
                rf"party_1 element 0: encoded magnitude {2**58} would risk modular "
                rf"wrap \(bound {bound}\)")):
            session._combine(session._secure_uplink(locals_))
        assert session._enc_rng.getstate() == state
        assert not [r for r in session.transcript.records if r.round == 0]
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
            p.omega.values[:] = rng.uniform(-1.0, 1.0, p.omega.values.shape)
        want = {p.name: p.omega.values * p.encoder.forward(None, batch, step=0,
                                                             training=True).values
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


def centralized_train(view, cfg) -> list[dict]:
    """The split pipeline's oracle: the same encoder, server stack and output
    head composed on one tape with no messages, trained over the same batch
    schedule and returning the rows ``SplitSession.train`` returns."""
    d = cfg.encoder.hidden
    encoder = make_encoder(view, cfg.encoder, cfg.seed, scope=f"enc{view.participant}")
    server = P.ServerNet(d, d, cfg.seed, dropout=cfg.server_dropout)
    head = P.LabelHead(d, view.graph.num_classes, cfg.seed)
    params = {**encoder.params, **server.params, **head.params}
    optimizer = T.OPTIMIZERS[cfg.optimizer](cfg.learning_rate)

    def logits(tape, ids, step=0, training=False):
        emb = encoder.forward(tape, ids, step=step, training=training)
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
    # with one participant the cut changes nothing: concat and average pass
    # the embedding through, so a session trains bit for bit as one tape does

    def test_losses_match_over_50_steps(self):
        bundle = make_bundle(seed=7, n_u=30, n_v=20)
        enc = encoder_config(dropout=0.3)
        cfg = session_config(encoder=enc, strategy="concat", batch_size=8,
                             epochs=50, rounds_per_epoch=1, server_dropout=0.3,
                             learning_rate=0.05)
        assert P.SplitSession([single_view(bundle)], cfg).train() == \
            centralized_train(single_view(bundle), cfg)

    @pytest.mark.parametrize("strategy", ["concat", "average"])
    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    @pytest.mark.parametrize("kind", ["hat", "gcn", "gat"])
    def test_rows_match_oracle(self, kind, optimizer, strategy):
        bundle = make_bundle(seed=7, n_u=30, n_v=20)
        enc = encoder_config(kind=kind, dropout=0.3)
        cfg = session_config(encoder=enc, strategy=strategy, optimizer=optimizer,
                             batch_size=8, epochs=3, rounds_per_epoch=2,
                             server_dropout=0.3, learning_rate=0.05)
        rows = P.SplitSession([single_view(bundle)], cfg).train()
        assert rows == centralized_train(single_view(bundle), cfg)

    def test_gradient_routing_matches_finite_differences(self):
        # the gradients of one routed round (SGD at learning rate 0 leaves
        # every parameter as it was) against finite differences of the same
        # math on one tape: encoders, ω, server, head
        bundle = make_bundle(seed=8, n_u=10, n_v=6, feature_dim=3)
        enc = encoder_config(layers=1, hidden=3, heads=1)
        cfg = session_config(encoder=enc, strategy="weighted", batch_size=4,
                             optimizer="sgd", learning_rate=0.0)
        session = P.SplitSession(make_views(bundle, [5, 5]), cfg)
        session.align()
        batch = session._split_ids("train")[:4]
        labels = session.label_holder.view.graph.labels[batch]

        all_params = dict(session.server_params)
        for p in session.participants:
            all_params.update(p.trainable())
        assert sum(name.endswith("/omega") for name in all_params) == 2
        before = {name: p.values.copy() for name, p in all_params.items()}
        session.train_round(batch, step=0)
        analytic = {name: p.grad.copy() for name, p in all_params.items()}
        for name, p in all_params.items():
            assert np.array_equal(p.values, before[name]), name

        def forward():
            tape = T.Tape()
            terms = [p.embed(tape, batch) for p in session.participants]
            combined = T.add(tape, terms[0], terms[1])
            hidden = session.server.forward(tape, combined, training=False)
            loss, _ = session.label_holder.head.forward_loss(tape, hidden, labels)
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
