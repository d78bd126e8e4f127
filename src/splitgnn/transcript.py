"""Append-only communication transcripts with byte-accurate accounting.

A transcript plays two roles: it is the measured object for communication
cost comparisons, and it is the adversary's view for privacy audits.  Wire
records carry metadata (and, for PSI messages, the digest payload that
actually crossed); ``context`` holds simulation-side ground truth that only
the auditor sees, never the parties.  Every metered message moves through
:meth:`RoundTranscript.send`, which sizes its record from the value it hands
the receiver.  The session in ``protocol.py`` sends every message, the
PSI's digest lists and a secure run's ciphertexts included, and logs every
decryption; no other module calls ``send`` or ``log_decryption``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, ProtocolError, canonical_int, read_json, text_lines

MESSAGE_KINDS = ("embedding", "ciphertext", "hidden", "gradient", "psi")
FLOAT_BYTES = 8
DIGEST_BYTES = 32
CSV_COLUMNS = ("round", "from", "to", "kind", "elements", "bytes", "encrypted")


@dataclass
class TranscriptRecord:
    round: int
    sender: str
    receiver: str
    kind: str
    elements: int
    bytes: int
    encrypted: bool
    payload: str | None = None


@dataclass
class DecryptionEvent:
    round: int
    elements: int
    aggregated: bool


def _decryption_event(sidecar: Path, index: int, entry) -> DecryptionEvent:
    """A sidecar's decryption entry, which must hold exactly an integer
    ``round`` and ``elements`` and a boolean ``aggregated``: a string such as
    ``"no"`` would read as true and hide a per-participant decryption."""
    if not (isinstance(entry, dict) and entry.keys() == {"round", "elements", "aggregated"}
            and type(entry["round"]) is int and type(entry["elements"]) is int
            and type(entry["aggregated"]) is bool):
        raise ParseError(f"{sidecar}: decryption entry {index} must have exactly an "
                         f"integer round and elements and a boolean aggregated, "
                         f"got {entry!r}")
    return DecryptionEvent(**entry)


JSON_TYPES = {dict: "an object", list: "an array", str: "a string"}


def _sidecar_part(sidecar: Path, what: str, value, kind: type):
    """``value`` if it is of the JSON type ``kind``; otherwise the audit
    would die on it, so raise a ParseError naming the sidecar."""
    if not isinstance(value, kind):
        raise ParseError(f"{sidecar}: {what} must be {JSON_TYPES[kind]}, got {value!r}")
    return value


def _joined(digests) -> str:
    """The ``,``-joined text of a PSI digest list, hex strings or an array
    of their ASCII bytes, written into one byte buffer: no object is made
    per digest.  Digests of unequal length are refused."""
    digests = np.asarray(digests, dtype=bytes)
    k, width = len(digests), digests.itemsize
    buf = np.full((k, width + 1), ord(","), dtype=np.uint8)
    buf[:, :width] = digests.view(np.uint8).reshape(k, width)
    # a shorter digest ends in the array's NUL padding
    if (buf[:, width - 1] == 0).any():
        raise ProtocolError("a PSI digest list must hold digests of one length")
    return str(buf.reshape(-1)[:-1], "ascii")


class RoundTranscript:
    """Ordered record of every message a session exchanged."""

    def __init__(self, context: dict | None = None):
        self.records: list[TranscriptRecord] = []
        self.decryptions: list[DecryptionEvent] = []
        self.context: dict = context or {}

    def send(self, round_index: int, sender: str, receiver: str, kind: str, payload):
        """Move ``payload`` from ``sender`` to ``receiver``: meter it and
        return what the receiver gets, the payload object itself.

        The record follows from the payload: a PSI digest list, of hex
        strings or of their ASCII bytes, is 32 bytes per digest, kept
        ``,``-joined as the audited payload; a ciphertext list is a 4-byte
        length plus the key's wire width per value, and the only encrypted
        kind; any other kind is a float array, 8 bytes per value.  A payload
        text equal to the last record's is that record's string, so the PSI
        records of an alignment whose digest lists are equal hold one.
        """
        encrypted, text = False, None
        if kind == "psi":
            elements, width, text = len(payload), DIGEST_BYTES, _joined(payload)
            last = self.records[-1].payload if self.records else None
            text = last if text == last else text
        elif kind == "ciphertext":
            elements, encrypted = len(payload), True
            width = 4 + payload[0].public.wire_width if payload else 0
        else:
            elements, width = payload.size, FLOAT_BYTES
        self.add(round_index, sender, receiver, kind, elements, elements * width,
                 encrypted, text)
        return payload

    def add(self, round_index: int, sender: str, receiver: str, kind: str,
            elements: int, byte_size: int, encrypted: bool = False,
            payload: str | None = None) -> TranscriptRecord:
        """Append a record as given: ``send`` derives its records from the
        values sent, and ``load`` rebuilds them from a saved file."""
        if kind not in MESSAGE_KINDS:
            raise ProtocolError(f"unknown message kind {kind!r}")
        rec = TranscriptRecord(round_index, sender, receiver, kind,
                               int(elements), int(byte_size), encrypted, payload)
        self.records.append(rec)
        return rec

    def log_decryption(self, round_index: int, elements: int, aggregated: bool) -> None:
        self.decryptions.append(DecryptionEvent(round_index, int(elements), aggregated))

    def total_bytes(self, kind: str | None = None) -> int:
        return sum(r.bytes for r in self.records if kind is None or r.kind == kind)

    def __len__(self) -> int:
        return len(self.records)

    # -- persistence --------------------------------------------------------

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for r in self.records:
                writer.writerow([r.round, r.sender, r.receiver, r.kind,
                                 r.elements, r.bytes,
                                 "true" if r.encrypted else "false"])

    def save(self, path) -> None:
        """CSV for the wire view plus a JSON sidecar for audit context."""
        path = Path(path)
        self.to_csv(path)
        sidecar = {
            "context": self.context,
            "decryptions": [vars(d) for d in self.decryptions],
            "payloads": {str(i): r.payload for i, r in enumerate(self.records)
                         if r.payload is not None},
        }
        path.with_suffix(".meta.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True))

    @classmethod
    def load(cls, path) -> "RoundTranscript":
        """The transcript ``save`` wrote, refusing with a ParseError any row
        or sidecar entry it would not have written: ``round``, ``elements``
        and ``bytes`` are :func:`canonical_int` text, and a payload key the
        index of a record as ``str`` writes it."""
        path = Path(path)
        out = cls()
        rows = csv.reader(line for _, line in text_lines(path))
        header = next(rows, None)
        if tuple(header or ()) != CSV_COLUMNS:
            raise ParseError(f"{path}: unexpected transcript columns {header}")
        for fields in filter(None, rows):
            where = f"{path}:{rows.line_num}"
            if len(fields) != len(CSV_COLUMNS):
                raise ParseError(f"{where}: expected {len(CSV_COLUMNS)} comma-separated "
                                 f"fields, got {len(fields)}")
            rnd, sender, receiver, kind, elements, size, encrypted = fields
            rnd, elements, size = map(canonical_int, (rnd, elements, size))
            if None in (rnd, elements, size):
                raise ParseError(f"{where}: round, elements and bytes must be "
                                 f"integers")
            if elements < 0 or size < 0:
                raise ParseError(f"{where}: elements and bytes must be >= 0, "
                                 f"got {elements} and {size}")
            if encrypted not in ("true", "false"):
                raise ParseError(f"{where}: encrypted must be true or false, "
                                 f"got {encrypted!r}")
            if kind not in MESSAGE_KINDS:
                raise ParseError(f"{where}: unknown message kind {kind!r}")
            out.add(rnd, sender, receiver, kind, elements, size, encrypted == "true")
        sidecar = path.with_suffix(".meta.json")
        if sidecar.exists():
            meta = _sidecar_part(sidecar, "the sidecar", read_json(sidecar), dict)
            out.context = _sidecar_part(sidecar, "context", meta.get("context", {}), dict)
            _sidecar_part(sidecar, "context raw_ids", out.context.get("raw_ids", []), list)
            out.decryptions = [
                _decryption_event(sidecar, i, d) for i, d in enumerate(
                    _sidecar_part(sidecar, "decryptions", meta.get("decryptions", []), list))]
            payloads = _sidecar_part(sidecar, "payloads", meta.get("payloads", {}), dict)
            for key, payload in payloads.items():
                index = canonical_int(key)
                if index is None or not 0 <= index < len(out.records):
                    raise ParseError(f"{sidecar}: payload index {key!r} names no record "
                                     f"of {path} ({len(out.records)} records)")
                out.records[index].payload = _sidecar_part(
                    sidecar, f"payload {key}", payload, str)
        return out
