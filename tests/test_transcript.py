"""``RoundTranscript.send``: the one channel between parties.  It hands the
receiver the sender's own object and records the message's size in closed
form from that object."""

import json
import random

import numpy as np
import pytest

from conftest import small_key
from splitgnn import cli
from splitgnn import crypto as C
from splitgnn.errors import ParseError, ProtocolError
from splitgnn.transcript import RoundTranscript


def float_payload():
    return np.arange(12.0).reshape(4, 3)


def digest_payload():
    return [C.psi_digest(b"salt", f"n{i}") for i in range(5)]


def ciphertext_payload():
    key, rng = small_key(), random.Random(0)
    return [C.encrypt(key.public, C.fixed_encode(x), rng) for x in (0.5, -1.0, 2.0)]


@pytest.mark.parametrize("kind,make,elements,width,encrypted,joined", [
    ("embedding", float_payload, 12, 8, False, False),
    ("hidden", float_payload, 12, 8, False, False),
    ("gradient", float_payload, 12, 8, False, False),
    ("psi", digest_payload, 5, 32, False, True),
    ("psi", list, 0, 32, False, True),
    ("ciphertext", ciphertext_payload, 3, None, True, False),
    ("ciphertext", list, 0, 0, True, False),
])
def test_send_returns_payload_and_records_closed_form(kind, make, elements, width,
                                                      encrypted, joined):
    payload = make()
    if width is None:  # a length prefix plus n^2's bytes
        width = 4 + ((payload[0].public.n ** 2).bit_length() + 7) // 8
    t = RoundTranscript()
    got = t.send(7, "party_1", "server", kind, payload)
    assert got is payload
    [rec] = t.records
    assert (rec.round, rec.sender, rec.receiver, rec.kind) == (7, "party_1", "server", kind)
    assert (rec.elements, rec.bytes, rec.encrypted) == (elements, elements * width, encrypted)
    assert rec.payload == (",".join(payload) if joined else None)


def test_psi_digest_array_records_its_joined_hex():
    """A digest list sent as an array of the digests' ASCII bytes, as
    ``psi_align`` returns it, is recorded as the list of strings is."""
    digests = digest_payload()
    array = np.array(digests, dtype=C.DIGEST_DTYPE)
    t = RoundTranscript()
    assert t.send(-1, "party_0", "server", "psi", array) is array
    t.send(-1, "party_1", "server", "psi", digests)
    t.send(-1, "server", "party_0", "psi", digests[1:])
    first, second, third = t.records
    assert (first.elements, first.bytes) == (second.elements, second.bytes) == (5, 160)
    assert first.payload == ",".join(digests)
    # an equal text is the last record's string; an unequal one is its own
    assert second.payload is first.payload
    assert third.payload == ",".join(digests[1:])
    # the text is built in one buffer, so a list must hold one digest length
    with pytest.raises(ProtocolError, match="digests of one length"):
        t.send(-1, "server", "party_1", "psi", [digests[0], digests[1][:-1]])
    assert len(t.records) == 3


def test_unknown_kind_records_nothing():
    t = RoundTranscript()
    with pytest.raises(ProtocolError, match="unknown message kind 'logits'"):
        t.send(0, "server", "party_0", "logits", float_payload())
    assert not t.records


@pytest.mark.parametrize("lines,where,message", [
    (["round,from,to,kind,elements,bytes,encrypted",
      "0,party_0,server,embedding,4,32,false",
      "0,server,party_0,logits,4,32,false"], ":3", "unknown message kind 'logits'"),
    (["round,from,to,kind", "0,party_0,server,embedding"], "",
     "unexpected transcript columns ['round', 'from', 'to', 'kind']"),
])
def test_load_rejects_bad_kind_and_columns(tmp_path, capsys, lines, where, message):
    path = tmp_path / "transcript.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        RoundTranscript.load(path)
    assert str(err.value) == f"{path}{where}: {message}"
    assert cli.main(["audit", "--transcript", str(path)]) == 1
    assert capsys.readouterr().err == f"config error: {path}{where}: {message}\n"


@pytest.mark.parametrize("entry", [
    {"round": 0, "elements": 8},
    {"round": 0, "elements": 8, "aggregated": "no"},
    {"round": 0, "elements": 8, "aggregated": 1},
    {"round": "0", "elements": 8, "aggregated": True},
    {"round": 0, "elements": True, "aggregated": True},
    {"round": 0, "elements": 8, "aggregated": True, "party": "party_0"},
    [0, 8, True],
])
def test_load_rejects_bad_decryption_entry(tmp_path, capsys, entry):
    path = tmp_path / "transcript.csv"
    path.write_text("round,from,to,kind,elements,bytes,encrypted\n"
                    "0,party_0,server,ciphertext,8,1056,true\n")
    good = {"round": 0, "elements": 8, "aggregated": False}
    sidecar = path.with_suffix(".meta.json")
    sidecar.write_text(json.dumps({"decryptions": [good, entry]}))
    message = (f"{sidecar}: decryption entry 1 must have exactly an integer round and "
               f"elements and a boolean aggregated, got {entry!r}")
    with pytest.raises(ParseError) as err:
        RoundTranscript.load(path)
    assert str(err.value) == message
    assert cli.main(["audit", "--transcript", str(path)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("meta,message", [
    ([{"context": {}}], "the sidecar must be an object, got [{'context': {}}]"),
    ("n0", "the sidecar must be an object, got 'n0'"),
    ({"context": ["n0", "n1"]}, "context must be an object, got ['n0', 'n1']"),
    ({"context": {"raw_ids": 5}}, "context raw_ids must be an array, got 5"),
    ({"decryptions": {"round": 0}}, "decryptions must be an array, got {'round': 0}"),
    ({"payloads": ["ab12"]}, "payloads must be an object, got ['ab12']"),
    ({"context": {"raw_ids": ["n0"]}, "payloads": {"0": 5}},
     "payload 0 must be a string, got 5"),
    ({"context": {"raw_ids": ["n0"]}, "payloads": {"0": ["n0"]}},
     "payload 0 must be a string, got ['n0']"),
])
def test_load_rejects_bad_sidecar_shape(tmp_path, capsys, meta, message):
    """A sidecar the audit cannot read is a config error naming the
    sidecar, not a traceback from inside the audit."""
    path = tmp_path / "transcript.csv"
    path.write_text("round,from,to,kind,elements,bytes,encrypted\n"
                    "0,party_0,party_1,psi,1,32,false\n")
    sidecar = path.with_suffix(".meta.json")
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(ParseError) as err:
        RoundTranscript.load(path)
    assert str(err.value) == f"{sidecar}: {message}"
    assert cli.main(["audit", "--transcript", str(path)]) == 1
    assert capsys.readouterr().err == f"config error: {sidecar}: {message}\n"


def test_load_reads_a_well_formed_sidecar(tmp_path):
    path = tmp_path / "transcript.csv"
    path.write_text("round,from,to,kind,elements,bytes,encrypted\n"
                    "0,party_0,party_1,psi,1,32,false\n")
    path.with_suffix(".meta.json").write_text(json.dumps(
        {"context": {"raw_ids": ["n0"]}, "decryptions": [], "payloads": {"0": "n0"}}))
    t = RoundTranscript.load(path)
    assert t.context == {"raw_ids": ["n0"]} and t.records[0].payload == "n0"
    assert [f.kind for f in C.transcript_audit(t).findings] == ["raw_id_leak"]


def test_save_load_save_is_byte_identical(tmp_path):
    """Every integer ``save`` writes is one ``load`` reads back, so a saved
    transcript survives a load and a second save byte for byte: PSI records
    of round -1 with their payloads, every other kind, and decryptions."""
    t = RoundTranscript(context={"raw_ids": ["n0", "n1"], "secure": True})
    for party in ("party_0", "party_1"):
        t.send(-1, party, "server", "psi", digest_payload())
    t.send(0, "party_0", "server", "ciphertext", ciphertext_payload())
    t.send(0, "server", "label", "hidden", float_payload())
    t.send(10, "label", "server", "gradient", np.zeros((1000, 12)))
    t.log_decryption(0, 3, aggregated=True)
    t.log_decryption(10, 12, aggregated=False)
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    t.save(first)
    RoundTranscript.load(first).save(second)
    assert first.read_bytes() == second.read_bytes()
    assert first.with_suffix(".meta.json").read_bytes() == \
        second.with_suffix(".meta.json").read_bytes()
