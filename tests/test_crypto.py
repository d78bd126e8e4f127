import hashlib
import random
import secrets
from functools import partial, reduce

import numpy as np
import pytest

from conftest import encoder_config, make_views, session_config, single_view, small_key
from splitgnn import crypto as C
from splitgnn import protocol as P
from splitgnn.errors import ConfigError, ContractError, DomainError
from splitgnn.transcript import RoundTranscript


@pytest.fixture(scope="module")
def keypair():
    return C.keygen(bits=512, seed=42)


@pytest.fixture()
def rng():
    return random.Random(1234)


def names(count):
    return [f"party_{i}" for i in range(count)]


def psi(id_sets, salt, transcript=None):
    """The PSI among participants named ``party_i``, sent as
    ``SplitSession.align`` sends it: every participant's half, then each
    digest list up and the server's intersection back to each.  Returns the
    intersection, the sorted digests of the common ids."""
    transcript = RoundTranscript() if transcript is None else transcript
    halves = [C.psi_align(salt, ids) for ids in id_sets]
    received = [transcript.send(-1, name, "server", "psi", mine)
                for name, mine in zip(names(len(id_sets)), halves)]
    reply = reduce(partial(np.intersect1d, assume_unique=True), received)
    for name in names(len(id_sets)):
        transcript.send(-1, "server", name, "psi", reply)
    return reply


def digests(salt, ids):
    """The sorted digests of ``ids``, as the ASCII bytes ``psi_align`` holds."""
    return sorted(C.psi_digest(salt, x).encode("ascii") for x in ids)


def encrypted_terms(vectors, keypair, rng):
    """Each participant's half of a secure sum, as ``SplitSession`` runs it:
    its fixed-point terms, placed by the key's slot layout and encrypted."""
    layout = C.slot_layout(keypair.public.n, len(vectors))
    return [[C.encrypt(keypair.public, layout.place(i, m), rng)
             for i, m in enumerate(C.fixed_encode_all(v))] for v in vectors]


def secure_sum(vectors, keypair, rng):
    """Every participant's half of a secure sum of ``vectors``, then the
    decrypting side's."""
    return C.secure_sum(encrypted_terms(vectors, keypair, rng), keypair,
                        np.shape(vectors[0]))


def secure_session(views):
    """A secure average session over ``views`` under a 512-bit key; its
    ``_uplink`` sends and logs a secure sum's messages."""
    return P.SplitSession(views, session_config(
        strategy="average", secure=True, encoder=encoder_config(kind="gcn", layers=1)))


class TestPsi:
    def test_basic_intersection(self):
        out = psi([["a", "b", "c"], ["b", "c", "d"]], b"s1")
        assert out.tolist() == digests(b"s1", ["b", "c"])

    def test_disjoint_empty(self):
        assert psi([["a"], ["b"]], b"s1").tolist() == []

    def test_three_parties_matches_plain_intersection(self):
        rng = random.Random(7)
        for _ in range(10):
            sets = [
                {f"id-{secrets.token_hex(4)}" for _ in range(50)} | common
                for common in [set()] * 3
            ]
            shared = {f"id-{rng.randrange(10**9)}" for _ in range(rng.randrange(0, 30))}
            sets = [s | shared for s in sets]
            expected = digests(b"salty", sets[0] & sets[1] & sets[2])
            assert psi(sets, b"salty").tolist() == expected

    def test_duplicates_rejected(self):
        with pytest.raises(DomainError):
            C.psi_align(b"s", ["a", "a"])

    def test_needs_two_parties(self, tiny_bundle, monkeypatch):
        # a lone participant has no one to align with: its session runs no PSI
        monkeypatch.setattr(C, "psi_align", lambda *args: pytest.fail("PSI ran"))
        session = P.SplitSession([single_view(tiny_bundle)], session_config())
        session.align()
        assert session.aligned and not session.transcript.records

    def test_transcript_has_digests_not_ids(self):
        ids = [["user-XQZW-17", "user-PLMN-93"], ["user-PLMN-93", "user-RRTT-55"]]
        t = RoundTranscript(context={"raw_ids": [x for s in ids for x in s]})
        out = psi(ids, b"fresh", t)
        assert out.tolist() == digests(b"fresh", ["user-PLMN-93"])
        assert len(t.records) == 4  # two up, two down
        for rec in t.records:
            assert rec.kind == "psi"
            assert rec.bytes == rec.elements * 32
            for raw in t.context["raw_ids"]:
                assert raw not in (rec.payload or "")
        assert C.transcript_audit(t).ok

    @pytest.mark.parametrize("id_sets", [
        [["a", "b", "c"], ["c", "b", "a"]],
        [["a", "b", "c"], ["b", "c", "d"], ["c", "b", "x"]],
        [["é", "中", "x", "ü-7"], ["中", "ü-7", "y"]],
        [[3, 14, 15], [15, 3, 9]],
        [["a"], ["b"]],
    ])
    def test_records_hold_the_sorted_digest_reference(self, id_sets):
        salt = b"ref"
        t = RoundTranscript()
        out = psi(id_sets, salt, t)
        common = set.intersection(*map(set, id_sets))
        assert out.tolist() == digests(salt, common)

        def joined(ids):
            return ",".join(sorted(C.psi_digest(salt, x) for x in ids))

        want = [(f"party_{i}", "server", joined(ids), len(ids))
                for i, ids in enumerate(id_sets)]
        want += [("server", f"party_{i}", joined(common), len(common))
                 for i in range(len(id_sets))]
        got = [(r.sender, r.receiver, r.payload, r.elements) for r in t.records]
        assert got == want
        assert all(r.bytes == 32 * r.elements and r.kind == "psi" for r in t.records)

    def test_equal_digest_lists_share_one_payload_string(self):
        ids = [f"n{i}" for i in range(50)]
        t = RoundTranscript()
        assert psi([ids, ids[::-1], list(ids)], b"s", t).tolist() == digests(b"s", ids)
        assert len(t.records) == 6
        assert len({id(r.payload) for r in t.records}) == 1
        # the first upload keeps its own text; the second, whose ids are the
        # intersection, shares one with the replies
        t = RoundTranscript()
        psi([ids, ids[:40]], b"s", t)
        texts = [id(r.payload) for r in t.records]
        assert texts[0] not in texts[1:] and len(set(texts[1:])) == 1

    def test_duplicates_refused_before_anything_is_sent(self):
        t = RoundTranscript()
        with pytest.raises(DomainError, match="^duplicate ids submitted to the PSI$"):
            psi([["a", "é"], ["é", "b", "é"]], b"s", t)
        assert not t.records

    def test_salt_changes_digests(self):
        d1 = C.psi_digest(b"salt-one", "node-7")
        d2 = C.psi_digest(b"salt-two", "node-7")
        assert d1 != d2
        assert d1 == C.psi_digest(b"salt-one", "node-7")


class TestPaillier:
    def test_zero_roundtrip(self, keypair, rng):
        assert C.decrypt(keypair, C.encrypt(keypair.public, 0, rng)) == 0

    def test_max_plaintext_roundtrip(self, keypair, rng):
        n = keypair.public.n
        assert C.decrypt(keypair, C.encrypt(keypair.public, n - 1, rng)) == n - 1

    def test_hundred_random_roundtrips(self, keypair, rng):
        n = keypair.public.n
        for _ in range(100):
            m = rng.randrange(0, n)
            assert C.decrypt(keypair, C.encrypt(keypair.public, m, rng)) == m

    def test_homomorphic_addition_thousand_pairs(self, keypair, rng):
        n = keypair.public.n
        for _ in range(1000):
            a, b = rng.randrange(0, n), rng.randrange(0, n)
            ca = C.encrypt(keypair.public, a, rng)
            cb = C.encrypt(keypair.public, b, rng)
            assert C.decrypt(keypair, ca + cb) == (a + b) % n

    def test_semantic_randomness(self, keypair, rng):
        c1 = C.encrypt(keypair.public, 5, rng)
        c2 = C.encrypt(keypair.public, 5, rng)
        assert c1.value != c2.value
        assert C.decrypt(keypair, c1) == C.decrypt(keypair, c2) == 5

    def test_deterministic_keygen(self):
        k1 = C.keygen(bits=512, seed=9)
        k2 = C.keygen(bits=512, seed=9)
        k3 = C.keygen(bits=512, seed=10)
        assert k1.public.n == k2.public.n
        assert k1.public.h == k2.public.h
        assert k1.public.n != k3.public.n
        assert k1.public.h != k3.public.h
        assert k1.p != k1.q
        assert k1.p.bit_length() == k1.q.bit_length() == 256

    def test_invalid_bits(self):
        with pytest.raises(ConfigError):
            C.keygen(bits=700, seed=0)

    @pytest.mark.parametrize("bits,seed,digest", [
        (512, 0, "552ad65520131b61"), (512, 1, "fea5cf610d27d61d"),
        (512, "crt", "42b1fca150366a7e"), (1024, 0, "8dadd6bd00c4c15f"),
        (1024, 1, "66f2823fc3d7c49f"), (1024, "crt", "445ca142cb7e3bad"),
    ])
    def test_seeded_keys_are_pinned(self, bits, seed, digest):
        """The small-prime sieve rejects only composites, so a seeded key's
        n stays the one trial division by primes up to 37 gave (SHA-256 of
        its decimal form, first 16 hex digits)."""
        n = C.keygen(bits, seed=seed).public.n
        assert hashlib.sha256(str(n).encode()).hexdigest()[:16] == digest

    def test_is_prime_below_sieve_and_past_it(self):
        limit = 5000
        sieve = [True] * limit
        sieve[0] = sieve[1] = False
        for i in range(2, limit):
            if sieve[i]:
                sieve[i * i::i] = [False] * len(sieve[i * i::i])
        assert [n for n in range(limit) if C._is_prime(n)] == \
            [n for n in range(limit) if sieve[n]]
        # composites whose factors all pass the sieve: two primes just past
        # it, and the Carmichael number 2221 * 4441 * 6661
        assert not C._is_prime(2053 * 2063)
        assert not C._is_prime(65700513721)
        assert C._is_prime(2 ** 127 - 1)

    def test_wire_roundtrip(self, keypair, rng):
        c = C.encrypt(keypair.public, 123456, rng)
        blob = ciphertext_to_bytes(c)
        assert len(blob) == 4 + keypair.public.wire_width
        back = ciphertext_from_bytes(blob, keypair.public)
        assert back.value == c.value


class ZeroBits(random.Random):
    """A generator whose every random bit is 0: ``randrange`` returns its
    lower bound."""

    def getrandbits(self, k):
        return 0


class TestFixedBaseBlinding:
    @pytest.fixture(params=["512-bit", "small"])
    def key(self, request, keypair):
        return keypair if request.param == "512-bit" else small_key()

    def test_table_power_matches_pow(self, key):
        pub = key.public
        rng = random.Random(11)
        top = (1 << pub.blind_bits) - 1
        assert pub.blind_bits == (pub.n.bit_length() + 1) // 2
        # sparse exponents too: zero low bytes, zero high bytes, one non-zero
        # byte at each position, or none
        sparse = [0, 0x1234, top & ~0xFFFF, top >> 8 << 8] + [
            d << (8 * i) for i in range((pub.blind_bits + 7) // 8) for d in (1, 0x80)
            if d << (8 * i) <= top]
        for x in [1, top, 0xFF, 1 << (pub.blind_bits - 1)] + sparse + [
                rng.randrange(1, top) for _ in range(50)]:
            assert pub.blind(x) == pow(pub.h, x, pub.n_sq)

    def test_base_is_nth_residue(self, key):
        assert C.decrypt(key, C.Ciphertext(key.public.h, key.public)) == 0

    def test_exponent_is_never_zero(self, key):
        # the least exponent a draw can give is 1, so the ciphertext is still
        # blinded by h, not the bare 1 + m*n
        pub = key.public
        c = C.encrypt(pub, 5, ZeroBits())
        assert c.value == (1 + 5 * pub.n) * pub.h % pub.n_sq != 1 + 5 * pub.n
        assert C.decrypt(key, c) == 5

    def test_table_built_on_first_encryption(self):
        key = C.keygen(bits=512, seed="lazy")
        assert "_blind_table" not in vars(key.public)
        C.encrypt(key.public, 1, random.Random(0))
        assert len(vars(key.public)["_blind_table"]) == 32


def ciphertext_to_bytes(c: C.Ciphertext) -> bytes:
    """The wire form that the transcript's ciphertext byte counts assume:
    a 4-byte width, then the value in ``wire_width`` bytes."""
    width = c.public.wire_width
    return width.to_bytes(4, "big") + c.value.to_bytes(width, "big")


def ciphertext_from_bytes(data: bytes, public) -> C.Ciphertext:
    """Inverse of ``ciphertext_to_bytes``."""
    width = int.from_bytes(data[:4], "big")
    return C.Ciphertext(int.from_bytes(data[4:4 + width], "big"), public)


def signed_decode(value: int, n: int) -> int:
    """Map a mod-n residue back to a signed integer."""
    return value - n if value > n // 2 else value


def lambda_mu_decrypt(keypair, cipher: C.Ciphertext) -> int:
    """Textbook decryption, L(c^λ mod n²)·μ mod n with λ = (p-1)(q-1) and
    μ = λ⁻¹ mod n: the oracle for the CRT path."""
    n = keypair.public.n
    lam = (keypair.p - 1) * (keypair.q - 1)
    return (pow(cipher.value, lam, n * n) - 1) // n * pow(lam, -1, n) % n


class TestCrtDecrypt:
    @pytest.fixture(scope="class", params=[512, 1024])
    def key(self, request):
        return C.keygen(bits=request.param, seed=("crt", request.param))

    def test_matches_lambda_mu(self, key):
        pub = key.public
        rng = random.Random(7)
        bound = pub.n // 4
        plain = [rng.randrange(-bound, bound) for _ in range(40)] + [0, 1, -1, bound - 1]
        cts = [C.encrypt(pub, m, rng) for m in plain]
        sums = [a + b for a, b in zip(cts, cts[1:])]
        # c^k decrypts to k·m: ciphertexts that are not fresh encryptions
        scaled = [C.Ciphertext(pow(c.value, rng.randrange(-1000, 1000) % pub.n, pub.n_sq),
                               pub) for c in cts[:20]]
        for c in cts + sums + scaled:
            assert C.decrypt(key, c) == lambda_mu_decrypt(key, c)
        for m, c in zip(plain, cts):
            assert signed_decode(C.decrypt(key, c), pub.n) == m
        for (a, b), c in zip(zip(plain, plain[1:]), sums):
            assert signed_decode(C.decrypt(key, c), pub.n) == a + b


class TestFixedPoint:
    def test_roundtrip_error_bound(self):
        rng = np.random.default_rng(5)
        for x in rng.uniform(-1000, 1000, size=200):
            back = C.fixed_decode(C.fixed_encode(float(x)))
            assert abs(back - x) <= 2.0**-24

    def test_overflow_rejected(self):
        # the range is on the encoded integer: 2^20 - 2^-24 encodes to
        # 2^44 - 1, while 2^20 - 2^-33 rounds up to 2^44
        assert C.fixed_encode(2.0**20 - 2.0**-24) == 2**44 - 1
        assert C.fixed_encode(-(2.0**20 - 2.0**-24)) == 1 - 2**44
        # 1e302 is finite, but 1e302 * 2^24 overflows to inf
        for x in (2.0**40, 2.0**20, -(2.0**20), 2.0**20 - 2.0**-33, 1e302, -1e302):
            with pytest.raises(DomainError, match="range"):
                C.fixed_encode(x)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            C.fixed_encode(float("nan"))


class TestSecureSum:
    def test_two_values(self, keypair, rng):
        out = secure_sum([np.array([0.5]), np.array([0.25])], keypair, rng)
        assert abs(out[0] - 0.75) <= 2 * 2.0**-24

    def test_all_zero_exact(self, keypair, rng):
        out = secure_sum([np.zeros(6)] * 4, keypair, rng)
        np.testing.assert_array_equal(out, np.zeros(6))

    def test_matches_plaintext_sum(self, keypair, rng):
        vecs = [np.random.default_rng(i).uniform(-5, 5, size=8) for i in range(4)]
        out = secure_sum(vecs, keypair, rng)
        np.testing.assert_allclose(out, sum(vecs), atol=4 * 2.0**-24)

    def test_negative_values(self, keypair, rng):
        out = secure_sum([np.array([-1.5, 2.0]), np.array([-2.5, -3.0])], keypair, rng)
        np.testing.assert_allclose(out, [-4.0, -1.0], atol=2 * 2.0**-24)

    def test_shape_mismatch(self, keypair, rng, monkeypatch):
        # a list one ciphertext short of the others, or of the shape's
        # element count, is refused before any decryption
        plain = recording_decrypt(monkeypatch)
        for vecs, got in (([np.zeros(3), np.zeros(4)], [3, 4]),
                          ([np.zeros(4), np.zeros(4), np.zeros(3)], [4, 4, 3])):
            received = encrypted_terms(vecs, keypair, rng)
            with pytest.raises(ContractError) as err:
                C.secure_sum(received, keypair, (4,))
            assert str(err.value) == f"expected 4 ciphertexts from each participant, got {got}"
        assert plain == []

    def test_transcript_records_ciphertext_sizes(self, keypair, rng):
        # the session meters each participant's list at a 4-byte length plus
        # the key's wire width per value; the decrypting side logs nothing
        t = RoundTranscript()
        received = [t.send(3, name, "server", "ciphertext", cts) for name, cts in
                    zip(names(2), encrypted_terms([np.ones(5), np.ones(5)], keypair, rng))]
        assert len(t.records) == 2
        width = 4 + keypair.public.wire_width
        for rec in t.records:
            assert rec.kind == "ciphertext" and rec.encrypted
            assert rec.elements == 5
            assert rec.bytes == 5 * width
        assert C.secure_sum(received, keypair, (5,)).tolist() == [2.0] * 5
        assert not t.decryptions


class TestWrapCheck:
    """The fixed-point range is the one check against modular wrap: a term
    outside it raises before any encryption, naming its party, its element
    and the range."""

    def test_average_bound_names_participant(self, tiny_bundle, rng):
        session = secure_session(make_views(tiny_bundle, [5, 5]))
        state = rng.getstate()
        for x in (2.0**20, -(2.0**20), 1e302, float("nan"), float("inf")):
            vecs = [np.array([1.0, 2.0]), np.array([0.5, x])]
            with pytest.raises(DomainError) as err:
                session._uplink(0, vecs, rng)
            assert str(err.value) == (f"party_1 element 1: value {x} is outside the "
                                      "fixed-point range: |x| * 2^24 must round below 2^44")
        assert rng.getstate() == state  # raised before any encryption
        assert not session.transcript.records and not session.transcript.decryptions

    def test_weighted_small_products_exact(self, keypair, rng):
        # weighted participants send their ω-scaled terms; the sum is exact
        # whenever every term is a multiple of 2^-24
        vecs = [np.array([[3.0, -1.5]]), np.array([[0.25, 2.0]])]
        weights = [np.array([0.5, -0.25]), np.array([-1.0, 0.125])]
        out = secure_sum([w * v for w, v in zip(weights, vecs)], keypair, rng)
        np.testing.assert_array_equal(out, [[1.25, 0.625]])

    def test_lone_value_bound(self, keypair, rng):
        # a lone term has the same bound as any other: 2^20 - 2^-24 encodes
        # to 2^44 - 1, under it, and 2^20 to 2^44
        top = 2.0**20 - 2.0**-24
        back = secure_sum([np.array([[top, -3.5]])], keypair, rng)
        np.testing.assert_array_equal(back, [[top, -3.5]])
        state = rng.getstate()
        with pytest.raises(DomainError, match=(
                r"^element 1: value 1048576.0 is outside the fixed-point range")):
            secure_sum([np.array([1.0, 2.0**20])], keypair, rng)
        assert rng.getstate() == state


def recording_decrypt(monkeypatch):
    """Replace ``crypto.decrypt`` with a wrapper that keeps every plaintext
    it returns, in call order."""
    plain, inner = [], C.decrypt

    def decrypt(keypair, cipher):
        plain.append(inner(keypair, cipher))
        return plain[-1]

    monkeypatch.setattr(C, "decrypt", decrypt)
    return plain


class TestSlotPacking:
    @pytest.mark.parametrize("terms,width,bits,slots", [
        (1, 45, 512, 11), (1, 45, 1024, 22), (1, 45, 2048, 45),
        (2, 46, 512, 11), (2, 46, 1024, 22), (2, 46, 2048, 44),
        (4, 47, 512, 10), (4, 47, 1024, 21), (4, 47, 2048, 43)])
    def test_layout_of_real_key_sizes(self, terms, width, bits, slots):
        # the layout depends only on the bit length and the term count
        for n in ((1 << (bits - 1)) + 1, (1 << bits) - 1):
            assert C.slot_layout(n, terms) == C.SlotLayout(terms, width, slots)

    def test_layout_of_small_key(self):
        # n / 2I is far above 2^44 even for a 60-bit n: one field a plaintext
        n = small_key().public.n
        for terms, width in ((1, 45), (2, 46), (4, 47)):
            assert n // (2 * terms) >= 2**44
            assert C.slot_layout(n, terms) == C.SlotLayout(terms, width, 1)

    @pytest.mark.parametrize("terms", [1, 2, 3, 4])
    def test_key_below_bound_is_refused(self, terms):
        # n // 2I below 2^44 leaves no room for one field's sum; so does
        # any n of bit length at most the width
        width = (2 * terms * 2**44 - 1).bit_length()
        for n in (2 * terms * 2**44 - 1, 2**44 + 1, (1 << width) - 1):
            with pytest.raises(ContractError, match=f"sum of {terms} terms below 2\\^44"):
                C.slot_layout(n, terms)
        assert C.slot_layout((1 << width) + 1, terms) == C.SlotLayout(terms, width, 1)

    @pytest.mark.parametrize("terms", [1, 2, 4])
    def test_extreme_fields_decode_exactly(self, keypair, terms):
        # every field at +(B-1) or -(B-1) in each term, in sign patterns that
        # put a full field next to an empty one: a borrow or carry between
        # fields would show in a neighbour
        pub = keypair.public
        layout = C.slot_layout(pub.n, terms)
        top, s = C.TERM_BOUND - 1, layout.slots
        patterns = [[top] * s, [-top] * s, [top if j % 2 else -top for j in range(s)],
                    [-top if j % 2 else top for j in range(s)]]
        rng = random.Random(3)
        for pattern in patterns:
            cts = [[C.encrypt(pub, layout.place(j, m), rng) for j, m in enumerate(pattern)]
                   for _ in range(terms)]
            columns = [sum(col[1:], col[0]) for col in zip(*cts)]
            packed = C.decrypt(keypair, sum(columns[1:], columns[0]))
            assert layout.fields(packed, s) == [terms * m for m in pattern]

    @pytest.mark.parametrize("terms", [2, 3])
    def test_packed_plaintext_matches_integer_oracle(self, keypair, monkeypatch, terms):
        plain = recording_decrypt(monkeypatch)
        gen = np.random.default_rng(terms)
        vecs = [gen.uniform(-1e4, 1e4, size=(4, 5)) for _ in range(terms)]
        out = secure_sum(vecs, keypair, random.Random(0))

        layout = C.slot_layout(keypair.public.n, terms)
        s, w, offset = layout.slots, layout.width, terms * 2**44
        sums = [sum(C.fixed_encode(float(v.flat[k])) for v in vecs) for k in range(20)]
        want = [sum(2**(j * w) * (total + offset) for j, total in enumerate(sums[g:g + s]))
                for g in range(0, 20, s)]
        assert plain == want
        assert out.shape == (4, 5)
        assert out.ravel().tolist() == [m / 2**24 for m in sums]

    def test_partial_last_group(self, keypair, monkeypatch):
        # 24 = 2 * 11 + 2 elements: three decryptions, the last of two fields
        plain = recording_decrypt(monkeypatch)
        vecs = [np.random.default_rng(i).uniform(-5, 5, size=24) for i in range(2)]
        out = secure_sum(vecs, keypair, random.Random(1))
        assert len(plain) == 3 and plain[-1] < 2**(2 * 46)
        want = [(C.fixed_encode(float(a)) + C.fixed_encode(float(b))) / 2**24
                for a, b in zip(*vecs)]
        assert out.tolist() == want

    def test_largest_encodable_values_sum_exactly(self, keypair):
        # 2^20 - 2^-24 encodes to 2^44 - 1, the largest fixed-point value
        top = 2.0**20 - 2.0**-24
        vecs = [np.array([top, -top, top, -top, 0.0, top, -top, top, -top]) for _ in range(4)]
        out = secure_sum(vecs, keypair, random.Random(2))
        assert out.tolist() == [4 * x for x in vecs[0]]

    def test_per_participant_path(self, tiny_bundle, monkeypatch):
        # a lone participant's sum is its own matrix, one term per field,
        # and the session logs the decryption as not aggregated
        session = secure_session([single_view(tiny_bundle)])
        plain = recording_decrypt(monkeypatch)
        values = np.random.default_rng(9).uniform(-100, 100, size=(3, 5))
        back = session._uplink(0, [values], random.Random(4))
        t = session.transcript
        assert [r.elements for r in t.records] == [15]
        assert len(plain) == 2
        want = [[C.fixed_encode(float(x)) / 2**24 for x in row] for row in values]
        assert back.tolist() == want
        assert [(e.elements, e.aggregated) for e in t.decryptions] == [(15, False)]
        assert [f.kind for f in C.transcript_audit(t).findings] == [
            "per_participant_decryption"]


class TestAudit:
    def test_clean_secure_transcript(self):
        t = RoundTranscript(context={"raw_ids": ["alpha-1", "beta-2"]})
        t.add(0, "party_0", "server", "ciphertext", 8, 8 * 132, encrypted=True)
        t.add(0, "server", "party_0", "gradient", 8, 64)
        t.log_decryption(0, 8, aggregated=True)
        assert C.transcript_audit(t).ok

    def test_plaintext_embeddings_flagged_each(self):
        t = RoundTranscript()
        for i in range(3):
            t.add(0, f"party_{i}", "server", "embedding", 8, 64)
        report = C.transcript_audit(t)
        assert len(report.findings) == 3
        assert all(f.kind == "plaintext_embedding" for f in report.findings)

    def test_injected_raw_id_gives_exactly_one_finding(self):
        t = RoundTranscript(context={"raw_ids": ["user-ZQXW-42"]})
        t.add(0, "party_0", "server", "psi", 1, 32, payload="deadbeef" * 8)
        t.add(0, "party_1", "server", "psi", 1, 32, payload="digest,user-ZQXW-42")
        report = C.transcript_audit(t)
        assert len(report.findings) == 1
        assert report.findings[0].kind == "raw_id_leak"
        assert report.findings[0].record_index == 1

    def test_raw_id_scan_matches_plain_substring_scan(self):
        digests = [C.psi_digest(b"salt", f"n{i}") for i in range(40)]
        present = [digests[3][10:16], digests[7][:5], digests[20][-4:] + "," + digests[21][:3]]
        absent = [x for x in ("abcdef1234", "9999999999", "0f0f0f0f0f")
                  if not any(x in d for d in digests)]
        raw_ids = present + absent + [f"n{i}" for i in range(40)] + ["n" + digests[3][:6]]
        t = RoundTranscript(context={"raw_ids": raw_ids})
        t.send(-1, "party_0", "server", "psi", digests[:25])
        t.send(-1, "party_1", "server", "psi", digests[15:])
        t.send(-1, "server", "party_0", "psi", digests[40:])
        want = []
        for i, rec in enumerate(t.records):
            leaked = [x for x in raw_ids if x in rec.payload]
            if leaked:
                want.append((i, f"message {rec.sender}->{rec.receiver} carries raw id(s) "
                                f"{leaked[:3]}"))
        assert len(absent) == 3 and [i for i, _ in want] == [0, 1]
        got = [(f.record_index, f.message) for f in C.transcript_audit(t).findings]
        assert got == want

    def test_per_participant_decryption_labeled(self):
        t = RoundTranscript()
        t.log_decryption(0, 8, aggregated=False)
        report = C.transcript_audit(t)
        assert [f.kind for f in report.findings] == ["per_participant_decryption"]

    def test_excess_decryption_flagged(self):
        t = RoundTranscript()
        t.log_decryption(1, 8, aggregated=True)
        t.log_decryption(1, 8, aggregated=True)
        report = C.transcript_audit(t)
        assert [f.kind for f in report.findings] == ["excess_decryption"]


class TestTranscriptIO:
    def test_csv_roundtrip(self, tmp_path):
        t = RoundTranscript(context={"raw_ids": ["n-1"], "secure": True})
        t.add(0, "party_0", "server", "ciphertext", 4, 528, encrypted=True)
        t.add(0, "server", "label", "hidden", 4, 32)
        t.add(0, "party_0", "server", "psi", 1, 32, payload="abc123")
        t.log_decryption(0, 4, aggregated=True)
        path = tmp_path / "transcript.csv"
        t.save(path)
        back = RoundTranscript.load(path)
        assert len(back) == 3
        assert back.records[0].encrypted and back.records[0].bytes == 528
        assert back.records[2].payload == "abc123"
        assert back.context["secure"] is True
        assert back.decryptions[0].aggregated
