"""The benchmark tracer's view of the program, in process.

``perfbench/run.py``'s ``install`` wraps functions where the program looks
them up: ``crypto.secure_sum``, ``crypto.encrypt`` and ``crypto.decrypt``
for the secure path, ``models.metapath_edges`` for HAT, and each encoder
class's ``forward``, which all three inherit from one base class.  A traced
run fails if a span it expects records no call.  One round under the same
tracer catches a rename or a bypass in about a second, without the tiny
benchmark runs.
"""

import pytest

from conftest import encoder_config, load_run_module, make_views, session_config
from splitgnn import crypto as C
from splitgnn import models as M
from splitgnn import protocol as P


def test_secure_average_round_records_every_crypto_span(tiny_bundle):
    run = load_run_module()
    originals = (C.secure_sum, C.encrypt, C.decrypt)
    tracer = run.Tracer()
    run.install(tracer)
    try:
        session = P.SplitSession(
            make_views(tiny_bundle, [5, 5]),
            session_config(strategy="average", secure=True,
                           encoder=encoder_config(kind="gcn", layers=1)))
        session.align()
        batch = session._split_ids("train")[:8]
        session.train_round(batch, step=0)
    finally:
        tracer.unwrap_all()
    assert (C.secure_sum, C.encrypt, C.decrypt) == originals

    participants, n, d = 2, len(batch), 4
    slots = C.slot_layout(session.keypair.public.n, participants).slots
    [root] = tracer.roots("protocol.train_round")
    calls = {name: acc[2] for name, acc in tracer.within(root).items()}
    assert calls["crypto.secure_sum"] == 1
    assert calls["crypto.encrypt"] == participants * n * d
    # one decryption per run of ``slots`` summed ciphertexts
    assert calls["crypto.decrypt"] == -(-n * d // slots)


def test_hat_session_records_metapath_and_encode_spans(tiny_bundle):
    """``install`` wraps ``models.metapath_edges``, the name HAT's channels
    are built through, and a traced hat_desk run fails if ``graph.metapath``
    records no call."""
    run = load_run_module()
    original = M.metapath_edges
    tracer = run.Tracer()
    run.install(tracer)
    try:
        views = make_views(tiny_bundle, [5, 5])
        session = P.SplitSession(views, session_config())
        session.align()
        batch = session._split_ids("train")[:8]
        session.train_round(batch, step=0)
    finally:
        tracer.unwrap_all()
    assert M.metapath_edges is original

    assert session.config.encoder.kind == "hat" and tiny_bundle.metapaths
    assert tracer.calls("graph.metapath") == len(views) * len(tiny_bundle.metapaths)
    [root] = tracer.roots("protocol.train_round")
    inside = tracer.within(root)
    assert inside["models.encode_train"][2] == len(views)
    assert "graph.metapath" not in inside


@pytest.mark.parametrize("kind", ["hat", "gcn", "gat"])
def test_every_encoder_records_one_encode_per_participant(tiny_bundle, kind):
    """``install`` wraps ``forward`` on each class of ``models.ENCODERS``; the
    classes share one ``forward``, so each wrapper must time only its own
    class's calls, and ``unwrap_all`` must leave every class the shared one."""
    run = load_run_module()
    assert all(cls.forward is M._Encoder.forward for cls in M.ENCODERS.values())
    tracer = run.Tracer()
    run.install(tracer)
    try:
        views = make_views(tiny_bundle, [5, 5])
        session = P.SplitSession(views, session_config(encoder=encoder_config(kind=kind)))
        session.align()
        batch = session._split_ids("train")[:8]
        session.train_round(batch, step=0)
    finally:
        tracer.unwrap_all()
    assert all(cls.forward is M._Encoder.forward for cls in M.ENCODERS.values())

    [root] = tracer.roots("protocol.train_round")
    assert tracer.within(root)["models.encode_train"][2] == len(views)
    assert tracer.calls("models.encode_train") == len(views)
