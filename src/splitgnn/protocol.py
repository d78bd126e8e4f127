"""The tripartite split-training loop.

Per communication round: every participant encodes a node batch over its own
edges, applies its own map to it and sends the result up (plaintext or
encrypted); the server only sums what it receives and runs its sub-network;
the label holder turns the returned hidden state into predictions and loss,
and gradients retrace the same path backwards across both cuts.  The
strategies differ only in the map: under average a fixed ω = 1/I, so the sum
is the mean; under weighted an ω that starts at 1/I and trains; and under
concat W_i, the participant's block of the server's first-layer weight,
since [x_1 … x_I] @ W equals Σ_i x_i @ W_i.  The session sends every
message, the PSI's digest lists and a secure run's ciphertexts included,
through :meth:`RoundTranscript.send`, which meters it and hands the receiver
the value it computes from, and it logs each decryption; ``crypto`` only
computes each party's half.

A round is named by its caller's ``step``: every record, ciphertext and
decryption event of ``train_round(batch, step)`` carries round ``step``,
which also keys the server's dropout and, in a secure run, names the
round's blinding stream.  A step must exceed the transcript's last round
(the PSI's -1 before the first), so round numbers are unique and increasing
with no counter.  A round that fails leaves no trace: no record, no
parameter or optimizer change, and no draw that a later round would see.

The "Entire" and "Standalone" baselines are sessions with one participant,
where the cut changes nothing: under concat or average they train exactly
as one model on one tape would, and the single-tape oracle that checks this
lives in ``tests/test_protocol.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from . import crypto as C
from . import tensor as T
from .errors import ConfigError, DomainError, ProtocolError, RoleError
from .graph import ParticipantView
from .models import EncoderConfig, init_param, make_encoder
from .seeding import stable_rng, stable_seed
from .transcript import RoundTranscript


# ---------------------------------------------------------------------------
# combination strategies and routing


def combine_sum(locals_):
    """The element-wise sum of the participants' terms, each already through
    its participant's own map: the server's combination under every
    strategy."""
    if not locals_:
        raise ProtocolError("no participant embeddings")
    shape = locals_[0].shape
    for i, l in enumerate(locals_):
        if l.shape != shape:
            raise ProtocolError(f"participant {i} sent shape {l.shape}, expected {shape}")
    return np.sum(locals_, axis=0)


def backward_route(grad, num_participants):
    """Route the server-input gradient back to participants.  Each sent a
    term of the sum, so each receives the whole gradient of the sum, from
    which its own tape derives its encoder's gradient through its map, and
    the map's own gradient when it trains (weighted's ω, concat's W_i)."""
    return [grad.copy() for _ in range(num_participants)]


# ---------------------------------------------------------------------------
# server and label-holder sub-models


class ServerNet:
    """Two dense+ELU+dropout layers between the sum of the participants'
    terms and the label holder's output layer.  Each layer drops at the fixed
    rate ``DROPOUT`` in training, with a mask keyed by (seed, layer, step):
    these are a run's only dropout, as the encoders have none.  With
    ``in_dim`` None the first layer has no weight here: each participant
    applied its own block of it before sending, so the layer adds only its
    bias."""

    SCOPE = "server"
    DROPOUT = 0.3

    def __init__(self, in_dim, hidden, seed):
        self.seed = seed
        self.params: dict[str, T.Tensor] = {}
        if in_dim is not None:
            init_param(self.params, f"{self.SCOPE}/l0/W", (in_dim, hidden), seed)
        init_param(self.params, f"{self.SCOPE}/l0/b", (hidden,), seed, zeros=True)
        init_param(self.params, f"{self.SCOPE}/l1/W", (hidden, hidden), seed)
        init_param(self.params, f"{self.SCOPE}/l1/b", (hidden,), seed, zeros=True)

    def forward(self, tape, x, step=0, training=False):
        h = x
        for l in (0, 1):
            W = self.params.get(f"{self.SCOPE}/l{l}/W")
            b = self.params[f"{self.SCOPE}/l{l}/b"]
            h = T.elu(tape, T.add(tape, h, b) if W is None else T.linear(tape, h, W, b))
            h = T.dropout(tape, h, self.DROPOUT,
                          seed=(self.seed, "dropout", self.SCOPE, l, step),
                          training=training)
        return h


class LabelHead:
    """The label holder's private output layer and loss."""

    SCOPE = "head"

    def __init__(self, hidden, num_classes, seed):
        self.params: dict[str, T.Tensor] = {}
        init_param(self.params, f"{self.SCOPE}/W", (hidden, num_classes), seed)
        init_param(self.params, f"{self.SCOPE}/b", (num_classes,), seed, zeros=True)

    def logits(self, tape, hidden):
        return T.linear(tape, hidden, self.params[f"{self.SCOPE}/W"],
                        self.params[f"{self.SCOPE}/b"])


def label_forward_loss(tape, hidden, head: LabelHead, labels):
    """Loss at the label holder plus the gradient to return to the server."""
    hidden_leaf = T.Tensor(hidden, requires_grad=True, name="cut/hidden")
    loss = T.cross_entropy(tape, head.logits(tape, hidden_leaf), labels)
    tape.backward(loss)
    return loss, hidden_leaf.grad


# ---------------------------------------------------------------------------
# metrics


def micro_f1(predicted, truth) -> float:
    """Micro-averaged F1 of single-label predictions.

    Pooled over classes, every wrong prediction is one false positive and
    one false negative, so precision, recall and F1 all equal the share of
    correct predictions.
    """
    predicted = np.asarray(predicted)
    if predicted.size == 0:
        raise DomainError("cannot score an empty split")
    return int(np.sum(predicted == np.asarray(truth))) / predicted.size


def batch_schedule(train_ids, batch_size, epoch, seed):
    """Seeded without-replacement batches for one epoch; the final batch may
    be short, giving ceil(|train| / B) rounds per epoch."""
    ids = np.asarray(train_ids)
    perm = stable_rng(seed, "batch", epoch).permutation(len(ids))
    shuffled = ids[perm]
    return [shuffled[i:i + batch_size] for i in range(0, len(ids), batch_size)]


# ---------------------------------------------------------------------------
# session configuration


@dataclass
class SessionConfig:
    """One seed's run, as ``ExperimentConfig.session_config`` derives it
    from a checked config; the view itself checks nothing."""

    encoder: EncoderConfig
    strategy: str                   # "average", "concat" or "weighted"
    batch_size: int
    epochs: int
    learning_rate: float
    optimizer: str
    secure: bool
    seed: int
    key_bits: int
    rounds_per_epoch: int | None    # None -> ceil(|train| / B)


@dataclass
class Participant:
    index: int
    view: ParticipantView
    encoder: object
    optimizer: object
    # the participant's own map before the server sums: a d-vector ω, fixed
    # at 1/I under average and trained under weighted, or concat's W_i, a
    # trained d×d block of the server's first layer
    weight: T.Tensor
    head: LabelHead | None = None

    @property
    def name(self) -> str:
        return f"party_{self.index}"

    def trainable(self) -> dict[str, T.Tensor]:
        params = dict(self.encoder.params)
        if self.head is not None:
            params.update(self.head.params)
        if self.weight.requires_grad:
            params[self.weight.name] = self.weight
        return params

    def embed(self, tape, ids) -> T.Tensor:
        """The term this participant sends: its encoder's output, scaled by
        its ω or multiplied by its W_i."""
        emb = self.encoder.forward(tape, ids)
        if self.weight.ndim == 1:
            return T.mul(tape, self.weight, emb)
        return T.matmul(tape, emb, self.weight)


# ---------------------------------------------------------------------------
# the split session


class SplitSession:
    """Logical actors for one training run: participants and the server,
    which in a secure run learns only the decrypted sum of their terms.

    All parties live in-process; messages are counted, not transmitted.
    """

    def __init__(self, views: list[ParticipantView], config: SessionConfig):
        if not views:
            raise ConfigError("need at least one participant view")
        holders = [v.participant for v in views if v.has_labels]
        if len(holders) != 1:
            raise ConfigError(f"exactly one label holder required, got {len(holders)}")
        # the session's node ids are views[0]'s, so every view must hold as many
        counts = [v.graph.num_nodes for v in views]
        if len(set(counts)) != 1:
            raise ConfigError(f"participant views must hold one graph's nodes, "
                              f"got node counts {counts}")
        self.config = config
        d, count = config.encoder.hidden, len(views)
        # the strategy, read only in this constructor, sets each participant's
        # own map: an ω of 1/I, fixed under average and trained under weighted, or
        # concat's W_i, rows i·d … (i+1)·d of the server's seeded first-layer
        # weight, as [x_1 … x_I] @ W + b = Σ_i x_i @ W_i + b
        scopes = [f"enc{v.participant}" for v in views]
        if config.strategy in ("average", "weighted"):
            weights = [T.Tensor(np.full(d, 1.0 / count),
                                requires_grad=config.strategy == "weighted",
                                name=f"{scope}/omega") for scope in scopes]
        elif config.strategy == "concat":
            W = init_param({}, f"{ServerNet.SCOPE}/l0/W", (d * count, d), config.seed)
            weights = [T.Tensor(block, requires_grad=True, name=f"{scope}/W")
                       for scope, block in zip(scopes, np.split(W.values, count))]
        else:
            raise ConfigError(f"unknown strategy {config.strategy!r}")
        self.participants: list[Participant] = []
        for v, scope, weight in zip(views, scopes, weights):
            enc = make_encoder(v, config.encoder, config.seed, scope=scope)
            head = LabelHead(d, v.graph.num_classes, config.seed) if v.has_labels else None
            opt = T.OPTIMIZERS[config.optimizer](config.learning_rate)
            self.participants.append(Participant(v.participant, v, enc, opt, weight, head))
        self.label_holder = next(p for p in self.participants if p.view.has_labels)
        self.server = ServerNet(None if config.strategy == "concat" else d, d, config.seed)
        self.server_params: dict[str, T.Tensor] = dict(self.server.params)
        self.server_optimizer = T.OPTIMIZERS[config.optimizer](config.learning_rate)

        # the "n" prefix keeps raw ids out of the hex digest alphabet, so a
        # digest can never contain an id by accident
        self.external_ids = [f"n{i}" for i in range(views[0].graph.num_nodes)]
        self.transcript = RoundTranscript(context={
            "raw_ids": self.external_ids,
            "secure": config.secure,
            "strategy": config.strategy,
            "participants": len(views),
            "label_holder": self.label_holder.index,
            "batch_size": config.batch_size,
            "hidden_dim": d,
        })
        self.keypair = None
        if config.secure:
            self.keypair = C.keygen(config.key_bits, seed=(config.seed, "keygen"))
        self.aligned = False

    # -- alignment -----------------------------------------------------------

    def align(self) -> None:
        """Metered PSI, as round -1, over every participant's external ids:
        each sends its sorted digests up, and the server sends every
        participant the digests in every list.  Every participant holds every
        node, so the answer must hold every id; a shorter one means the PSI
        failed, and is refused.  A lone participant has no one to align with
        and runs no PSI."""
        if len(self.participants) > 1:
            salt = C.fresh_salt(seed=(self.config.seed, "psi"))
            received = [self.transcript.send(-1, p.name, "server", "psi",
                                             C.psi_align(salt, self.external_ids))
                        for p in self.participants]
            reply = reduce(partial(np.intersect1d, assume_unique=True), received)
            replies = [self.transcript.send(-1, "server", p.name, "psi", reply)
                       for p in self.participants]
            if len(replies[0]) < len(self.external_ids):
                raise ProtocolError(f"PSI matched {len(replies[0])} of "
                                    f"{len(self.external_ids)} node ids")
        self.aligned = True

    def _split_ids(self, name: str) -> np.ndarray:
        """The label holder's ``train``, ``val`` or ``test`` ids, which its
        labels define; an empty split is refused with ``DomainError``."""
        ids = getattr(self.label_holder.view, f"{name}_ids")
        if ids.size == 0:
            raise DomainError(f"split {name!r} is empty")
        return ids

    # -- one communication round ----------------------------------------------

    def _uplink(self, step: int, terms, blinding) -> np.ndarray:
        """Every participant's term sent up in round ``step``, and the
        server's element-wise sum of them.  In a secure run the key's slot
        layout and every term are checked before the first encryption draws
        from ``blinding``, the round's stream; each term goes up as
        ciphertexts of its placed fixed-point values, and one decryption of
        the sum is logged, aggregated unless a lone participant sent it."""
        names = [p.name for p in self.participants]
        if not self.config.secure:
            return combine_sum([self.transcript.send(step, name, "server", "embedding", x)
                                for name, x in zip(names, terms)])
        public = self.keypair.public
        layout = C.slot_layout(public.n, len(terms))
        encoded = []
        for name, x in zip(names, terms, strict=True):
            try:
                encoded.append(C.fixed_encode_all(x))
            except DomainError as err:
                raise DomainError(f"{name} {err}") from None
        received = [self.transcript.send(step, name, "server", "ciphertext",
                                         [C.encrypt(public, layout.place(i, m), blinding)
                                          for i, m in enumerate(values)])
                    for name, values in zip(names, encoded)]
        total = C.secure_sum(received, self.keypair, terms[0].shape)
        self.transcript.log_decryption(step, terms[0].size, aggregated=len(terms) > 1)
        return total

    def _node_ids(self, ids) -> np.ndarray:
        """``ids`` as an int64 vector of aligned nodes, checked before any
        party computes.  Before ``align`` no id names a common node, which is
        refused with ``ProtocolError``; otherwise ``ids`` is refused with
        ``DomainError`` unless it is a vector of integers naming at least one
        node and only nodes of the graph: a cast would truncate 1.7 to node
        1 and read a boolean mask as nodes 1 and 0."""
        if not self.aligned:
            raise ProtocolError("session is not aligned; call align() first")
        ids = np.asarray(ids)
        n = len(self.external_ids)
        if ids.size == 0:
            raise DomainError("a batch needs at least one node id")
        if ids.dtype.kind not in "iu" or ids.ndim != 1:
            raise DomainError(f"node ids must be a vector of integers, got dtype "
                              f"{ids.dtype} and shape {ids.shape}")
        bad = ids[(ids < 0) | (ids >= n)]
        if bad.size:
            raise DomainError(f"node id {bad[0]} is outside [0, {n})")
        return ids.astype(np.int64, copy=False)

    def train_round(self, batch, step: int) -> float:
        """One round on ``batch``, named ``step``, returning its loss.

        ``step`` must be an integer above the transcript's last round, the
        PSI's -1 before the first round; a repeated, lower or negative step
        is refused with ``ProtocolError`` before any party computes.  A round
        that fails leaves no trace: its records and decryption events are
        dropped, no party updates, and its blinding draws came from a stream
        of its own, so retrying the step sends what it would have sent."""
        batch = self._node_ids(batch)
        records, decryptions = self.transcript.records, self.transcript.decryptions
        last = records[-1].round if records else -1
        if not (isinstance(step, int) and step > last):
            raise ProtocolError(f"step {step!r} does not follow round {last}")
        marks = len(records), len(decryptions)
        try:
            return self._train_round(batch, step)
        except BaseException:
            del records[marks[0]:], decryptions[marks[1]:]
            raise

    def _train_round(self, batch, step: int) -> float:
        cfg = self.config

        # fresh gradient buffers everywhere before any backward runs
        for p in self.participants:
            for tensor in p.trainable().values():
                tensor.zero_grad()
        for tensor in self.server_params.values():
            tensor.zero_grad()

        # participants: local multi-hop embeddings over private edges
        tapes, embeds = [], []
        for p in self.participants:
            tape = T.Tape()
            embeds.append(p.embed(tape, batch))
            tapes.append(tape)

        # uplink and the server's sum, which in a secure run it learns alone
        blinding = (random.Random(repr(stable_seed(cfg.seed, "paillier-blind", step)))
                    if cfg.secure else None)
        combined = self._uplink(step, [emb.values for emb in embeds], blinding)

        server_tape = T.Tape()
        server_in = T.Tensor(combined, requires_grad=True, name="cut/combined")
        server_out = self.server.forward(server_tape, server_in, step=step, training=True)

        # label holder: loss and the gradient returned to the server
        labels = self.label_holder.view.graph.labels[batch]
        if np.any(labels < 0):
            raise RoleError("label holder lacks labels for the batch")
        hidden = self.transcript.send(step, "server", self.label_holder.name,
                                      "hidden", server_out.values)
        loss, hidden_grad = label_forward_loss(T.Tape(), hidden, self.label_holder.head,
                                               labels)

        # server backward and routing across the lower cut
        server_tape.backward(server_out, seed_grad=self.transcript.send(
            step, self.label_holder.name, "server", "gradient", hidden_grad))
        routed = backward_route(server_in.grad, len(self.participants))
        for p, tape, emb, g in zip(self.participants, tapes, embeds, routed):
            received = self.transcript.send(step, "server", p.name, "gradient", g)
            tape.backward(emb, seed_grad=received)

        # everyone updates locally, and nobody does unless every gradient is
        # finite, so a failing round leaves every parameter and optimizer as it was
        trainables = [p.trainable() for p in self.participants]
        for params in trainables + [self.server_params]:
            T.check_finite(params)
        for p, params in zip(self.participants, trainables):
            p.optimizer.step(params)
        self.server_optimizer.step(self.server_params)
        return loss.item()

    # -- inference -----------------------------------------------------------

    def predict(self, ids) -> np.ndarray:
        ids = self._node_ids(ids)
        locals_ = [p.embed(None, ids).values for p in self.participants]
        out = self.server.forward(None, T.Tensor(combine_sum(locals_)), training=False)
        return np.argmax(self.label_holder.head.logits(None, out).values, axis=1)

    def evaluate(self, split: str) -> float:
        ids = self._split_ids(split)
        truth = self.label_holder.view.graph.labels[ids]
        return micro_f1(self.predict(ids), truth)

    # -- full loop -----------------------------------------------------------

    def train(self) -> list[dict]:
        """Train for ``config.epochs`` epochs of the seeded batch schedule,
        cut to ``config.rounds_per_epoch`` rounds when that is set.  Each
        epoch yields one row of mean loss and validation and test scores, so
        an empty split is refused before alignment, not after an epoch."""
        cfg = self.config
        train_ids, _, _ = map(self._split_ids, ("train", "val", "test"))
        if cfg.batch_size > len(train_ids):
            raise ConfigError(f"batch size {cfg.batch_size} exceeds the train set "
                              f"({len(train_ids)})")
        if not self.aligned:
            self.align()
        rows = []
        step = 0
        for epoch in range(cfg.epochs):
            batches = batch_schedule(train_ids, cfg.batch_size, epoch, cfg.seed)
            losses = []
            for batch in batches[:cfg.rounds_per_epoch]:
                losses.append(self.train_round(batch, step))
                step += 1
            rows.append({
                "epoch": epoch,
                "train_loss": float(np.mean(losses)),
                "val_f1": self.evaluate("val"),
                "test_f1": self.evaluate("test"),
            })
        return rows
