"""ID alignment and additively homomorphic secure aggregation.

PSI here is a salted-hash intersection: participants share a per-session
salt that the server never sees, so the server observes only digests and the
intersection's membership by digest.  :func:`psi_digest` is the one digest
definition.  :func:`psi_align` is one participant's half of the exchange:
its digests as one sorted array of their ASCII bytes.  The server's half
intersects the arrays it receives.  The functions here only compute: the
session sends every digest list and ciphertext, and logs each decryption.

Aggregation uses Paillier encryption (g = n + 1 variant) over
fixed-point-encoded values, so the decrypting role learns element-wise sums
and nothing about any single participant's vector.

Encryption blinds with a fixed base, as in the Damgard-Jurik-Nielsen variant
(Int. J. Inf. Secur., 2010): Enc(m) = (1 + m*n) * h^x mod n^2, where the
public key's h = r0^n mod n^2 is an n-th residue drawn once per key and x is
a fresh exponent of ceil(k/2) bits for a k-bit n.  h^x comes from a table of
h^(d * 256^i) built on the key's first encryption, so one encryption costs
about k/16 multiplications mod n^2 instead of a k-bit exponentiation.  The
short exponent rests on DJN's assumption that h^x with a ceil(k/2)-bit x is
indistinguishable from a random n-th residue.  The arithmetic is Python's
built-in ``pow`` and integer products.  This is a simulation-grade
construction: correctness and auditability are the goals, not production
hardening, and constant-time arithmetic is explicitly out of scope.

Decryption is packed, in the manner of BatchCrypt (Zhang et al., USENIX ATC
2020), on the decrypting side only.  Every term of a sum is a fixed-point
value m with |m| < B = 2^44, ``fixed_encode``'s range (|x| < 2^20 before
scaling); a term outside it raises before any encryption.  For I summed
terms, a key fixes a :class:`SlotLayout`: a field width w = bitlen(2*I*B - 1)
and s = (bitlen(n) - 1) // w fields below 2^(bitlen(n) - 1), and a key with
no room for one field is refused.  For I = 2, w = 46, so one decryption
carries 11, 22 or 44 sums at 512, 1024 or 2048 bits.  Element i of a matrix
is still one ciphertext, of (m_i + B) * 2^((i mod s) * w).  The decryptor
multiplies each run of s consecutive ciphertexts into one and decrypts that:
field j then holds the sum of element j's I offset terms, which lies in
[I, 2*I*B - I], so no field borrows from or carries into its neighbour, and
the plaintext stays below 2^(s*w) < n.  Removing the public constant I*B
gives each element's sum.  The decryptor still learns only per-element sums;
the offsets and shifts are public constants fixed by bitlen(n) and I.  The
wire format, one ciphertext per value, is unchanged."""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, ContractError, CryptoError, DomainError
from .transcript import DIGEST_BYTES, RoundTranscript

# The odd primes below 2^11 and their product: one gcd with the product
# finds a candidate's small factor before any modular exponentiation.
SMALL_PRIMES = tuple(p for p in range(3, 1 << 11, 2)
                     if all(p % f for f in range(3, math.isqrt(p) + 1, 2)))
SMALL_PRIMES_PRODUCT = math.prod(SMALL_PRIMES)

# a PSI digest as psi_align holds it: the ASCII bytes of its hex string
DIGEST_DTYPE = f"S{2 * DIGEST_BYTES}"


def _is_prime(n: int, rounds: int = 40) -> bool:
    if n < 2 or n % 2 == 0:
        return n == 2
    if math.gcd(n, SMALL_PRIMES_PRODUCT) != 1:
        return n in SMALL_PRIMES
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rng = random.Random(n)
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# private set intersection


def psi_digest(salt: bytes, external_id) -> str:
    return hashlib.sha256(salt + str(external_id).encode("utf-8")).hexdigest()


def psi_align(salt: bytes, ids) -> np.ndarray:
    """One participant's half of the PSI: the salted digests of its ``ids``,
    sorted, as an array of their ASCII bytes (``DIGEST_DTYPE``).  Ids whose
    digests repeat are refused with ``DomainError``."""
    mine = np.sort(np.fromiter((psi_digest(salt, x) for x in ids), DIGEST_DTYPE, len(ids)))
    if np.any(mine[1:] == mine[:-1]):
        raise DomainError("duplicate ids submitted to the PSI")
    return mine


# ---------------------------------------------------------------------------
# Paillier encryption


VALID_KEY_BITS = (512, 1024, 2048)


@dataclass(frozen=True)
class PaillierPublicKey:
    """The modulus n and the blinding base h, an n-th residue mod n^2."""
    n: int
    h: int

    @property
    def n_sq(self) -> int:
        return self.n * self.n

    @property
    def wire_width(self) -> int:
        """Fixed byte width of one serialized ciphertext value."""
        return (self.n_sq.bit_length() + 7) // 8

    @property
    def blind_bits(self) -> int:
        """Length of a blinding exponent: ceil(k/2) for a k-bit n."""
        return (self.n.bit_length() + 1) // 2

    @cached_property
    def _blind_table(self) -> list[list[int]]:
        """Row i holds h^(d * 256^i) mod n^2 for d = 0..255, one row per
        byte of a blinding exponent; built on first use, not at keygen."""
        rows, base, n_sq = [], self.h, self.n_sq
        for _ in range((self.blind_bits + 7) // 8):
            row = [1, base]
            for _ in range(254):
                row.append(row[-1] * base % n_sq)
            rows.append(row)
            base = row[-1] * base % n_sq
        return rows

    def blind(self, x: int) -> int:
        """h^x mod n^2 for 0 <= x < 2^blind_bits: one table product per
        non-zero byte of x."""
        acc, n_sq = 1, self.n_sq
        for row in self._blind_table:
            if x & 0xFF:
                acc = acc * row[x & 0xFF] % n_sq
            x >>= 8
        return acc


@dataclass(frozen=True)
class PaillierKeyPair:
    """The public key, its primes, and CRT decryption's constants: p², q²,
    hp = L_p(g^(p-1) mod p²)^-1 mod p, hq likewise, and q^-1 mod p."""
    public: PaillierPublicKey
    p: int
    q: int
    p_sq: int
    q_sq: int
    hp: int
    hq: int
    q_inv: int


def _assemble(p: int, q: int, rng: random.Random) -> PaillierKeyPair:
    """The key pair on primes p and q, with the blinding base h = r0^n mod
    n^2 for an r0 drawn from ``rng`` coprime to n."""
    n = p * q
    p_sq, q_sq = p * p, q * q
    r0 = rng.randrange(1, n)
    while math.gcd(r0, n) != 1:
        r0 = rng.randrange(1, n)
    hp = pow((pow(n + 1, p - 1, p_sq) - 1) // p, -1, p)
    hq = pow((pow(n + 1, q - 1, q_sq) - 1) // q, -1, q)
    return PaillierKeyPair(PaillierPublicKey(n, pow(r0, n, n * n)), p, q, p_sq, q_sq,
                           hp, hq, pow(q, -1, p))


def _gen_prime(bits: int, rng: random.Random) -> int:
    for _ in range(20000):
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_prime(cand):
            return cand
    raise CryptoError(f"no {bits}-bit prime found within retry budget")


def keygen(bits: int, seed) -> PaillierKeyPair:
    """Paillier key pair, a deterministic function of ``bits`` and ``seed``.
    The blinding base h is drawn after the primes, so it leaves n unchanged."""
    if bits not in VALID_KEY_BITS:
        raise ConfigError(f"key bits must be one of {VALID_KEY_BITS}, got {bits}")
    rng = random.Random(repr(seed))
    half = bits // 2
    p = _gen_prime(half, rng)
    q = _gen_prime(half, rng)
    while q == p:
        q = _gen_prime(half, rng)
    return _assemble(p, q, rng)


class Ciphertext:
    """An element of Z_{n^2}; adding ciphertexts decrypts to plaintext
    addition."""

    __slots__ = ("value", "public")

    def __init__(self, value: int, public: PaillierPublicKey):
        self.value = value
        self.public = public

    def __add__(self, other: "Ciphertext") -> "Ciphertext":
        if self.public.n != other.public.n:
            raise CryptoError("cannot combine ciphertexts under different keys")
        return Ciphertext(self.value * other.value % self.public.n_sq, self.public)


def encrypt(public: PaillierPublicKey, plaintext: int, rng: random.Random) -> Ciphertext:
    """Enc(m) = (1 + m*n) * h^x mod n^2 (Damgard-Jurik-Nielsen blinding),
    with a fresh exponent x uniform in [1, 2^ceil(k/2)) for a k-bit n.
    Simulation-grade: see the module docstring."""
    m = plaintext % public.n
    x = rng.randrange(1, 1 << public.blind_bits)
    return Ciphertext((1 + m * public.n) * public.blind(x) % public.n_sq, public)


def decrypt(keypair: PaillierKeyPair, cipher: Ciphertext) -> int:
    """The plaintext mod n, found mod p and mod q with half-size exponents
    and joined by the Chinese remainder theorem (Paillier 1999, sec. 7)."""
    k = keypair
    if cipher.public.n != k.public.n:
        raise CryptoError("ciphertext does not match this key pair")
    mp = (pow(cipher.value, k.p - 1, k.p_sq) - 1) // k.p * k.hp % k.p
    mq = (pow(cipher.value, k.q - 1, k.q_sq) - 1) // k.q * k.hq % k.q
    return mq + (mp - mq) * k.q_inv % k.p * k.q


# ---------------------------------------------------------------------------
# fixed-point encoding


# fixed-point fraction bits: a value x is encoded as round(x * 2^SCALE_BITS)
SCALE_BITS = 24
# an encoded value's magnitude stays below TERM_BOUND = 2^FIXED_RANGE_BITS,
# the one per-term bound of every secure sum under every key
FIXED_RANGE_BITS = 44
TERM_BOUND = 1 << FIXED_RANGE_BITS


def fixed_encode(x: float) -> int:
    """round(x * 2^SCALE_BITS), refused unless x is finite and that
    magnitude is below TERM_BOUND."""
    y = x * (1 << SCALE_BITS)  # inf for a finite x past about 1e301
    m = round(y) if math.isfinite(y) else TERM_BOUND
    if abs(m) >= TERM_BOUND:
        raise DomainError(f"value {x} is outside the fixed-point range: |x| * 2^{SCALE_BITS} "
                          f"must round below 2^{FIXED_RANGE_BITS}")
    return m


def fixed_decode(m: int) -> float:
    return m / (1 << SCALE_BITS)


# ---------------------------------------------------------------------------
# secure aggregation


@dataclass(frozen=True)
class SlotLayout:
    """Where a sum of ``terms`` fixed-point values sits in a packed plaintext.

    Each term m, with |m| < TERM_BOUND, is offset to m + TERM_BOUND in
    [1, 2*TERM_BOUND); a sum of ``terms`` offset values fills one
    ``width``-bit field, and element i of a matrix goes to field i mod
    ``slots``.
    """
    terms: int
    width: int
    slots: int

    def place(self, index: int, m: int) -> int:
        """Element ``index``'s term m, offset and shifted into its field."""
        return (m + TERM_BOUND) << (index % self.slots * self.width)

    def fields(self, packed: int, count: int) -> list[int]:
        """The first ``count`` fields of a decrypted sum of placed terms,
        each less the ``terms`` offsets it holds."""
        mask, offset = (1 << self.width) - 1, self.terms * TERM_BOUND
        out = []
        for _ in range(count):
            out.append((packed & mask) - offset)
            packed >>= self.width
        return out


def slot_layout(n: int, terms: int) -> SlotLayout:
    """The packing for sums of ``terms`` values under modulus n: as many
    fields of sums below 2*terms*TERM_BOUND as fit below 2^(bitlen(n) - 1).
    A key with no room for one field is refused, as is every n with
    n // (2*terms) < TERM_BOUND."""
    width = (2 * terms * TERM_BOUND - 1).bit_length()
    slots = (n.bit_length() - 1) // width
    if not slots:
        raise ContractError(f"a {n.bit_length()}-bit key cannot hold a sum of {terms} "
                            f"terms below 2^{FIXED_RANGE_BITS}")
    return SlotLayout(terms, width, slots)


def fixed_encode_all(values) -> list[int]:
    """``fixed_encode`` of each of ``values`` in row-major order, raising at
    the first element outside the fixed-point range, named by its index."""
    encoded = []
    for idx, x in enumerate(np.ravel(np.asarray(values, dtype=np.float64))):
        try:
            encoded.append(fixed_encode(float(x)))
        except DomainError as err:
            raise DomainError(f"element {idx}: {err}") from None
    return encoded


def secure_sum(received, keypair: PaillierKeyPair, shape) -> np.ndarray:
    """The decrypting side of a secure sum: each element's sum, of ``shape``,
    over ``received``, one list per participant of one ciphertext per element
    in row-major order, each of a term placed by ``slot_layout(n,
    len(received))``.  Each element's ciphertexts are combined into one, and
    each run of ``slots`` of those into one more, which is decrypted and
    fixed-point decoded.  A list of another length than ``shape`` holds is
    refused before any decryption."""
    size, lengths = math.prod(shape), [len(cts) for cts in received]
    if any(k != size for k in lengths):
        raise ContractError(f"expected {size} ciphertexts from each participant, "
                            f"got {lengths}")
    layout = slot_layout(keypair.public.n, len(received))
    cts = [sum(col[1:], col[0]) for col in zip(*received)]
    out = []
    for start in range(0, size, layout.slots):
        group = cts[start:start + layout.slots]
        packed = decrypt(keypair, sum(group[1:], group[0]))
        out += [fixed_decode(m) for m in layout.fields(packed, len(group))]
    return np.array(out).reshape(shape)


# ---------------------------------------------------------------------------
# transcript audit


@dataclass
class Finding:
    kind: str
    message: str
    record_index: int | None = None


@dataclass
class AuditReport:
    findings: list[Finding]

    @property
    def ok(self) -> bool:
        return not self.findings

    def render(self) -> str:
        if self.ok:
            return "audit: no findings"
        lines = [f"audit: {len(self.findings)} finding(s)"]
        for f in self.findings:
            where = f" [record {f.record_index}]" if f.record_index is not None else ""
            lines.append(f"  - {f.kind}: {f.message}{where}")
        return "\n".join(lines)


def transcript_audit(transcript: RoundTranscript) -> AuditReport:
    """What a semi-honest observer should never have seen.

    Findings, not exceptions: a plaintext session is a valid run whose
    transcript simply fails the audit.
    """
    findings: list[Finding] = []
    for i, rec in enumerate(transcript.records):
        if rec.kind == "embedding" and not rec.encrypted:
            findings.append(Finding(
                "plaintext_embedding",
                f"{rec.sender} sent {rec.elements} embedding elements in plaintext "
                f"to {rec.receiver} in round {rec.round}", i))
    raw_ids = [str(x) for x in transcript.context.get("raw_ids", [])]
    if raw_ids:
        for i, rec in enumerate(transcript.records):
            if rec.payload is None:
                continue
            # an id using a character the payload lacks cannot occur in it
            chars = set(rec.payload)
            leaked = [x for x in raw_ids if chars.issuperset(x) and x in rec.payload]
            if leaked:
                findings.append(Finding(
                    "raw_id_leak",
                    f"message {rec.sender}->{rec.receiver} carries raw id(s) "
                    f"{leaked[:3]}", i))
    per_round: dict[int, int] = {}
    for ev in transcript.decryptions:
        if not ev.aggregated:
            findings.append(Finding(
                "per_participant_decryption",
                f"round {ev.round}: {ev.elements} elements decrypted without "
                f"aggregation (weaker guarantee)"))
        else:
            per_round[ev.round] = per_round.get(ev.round, 0) + 1
    for rnd, count in sorted(per_round.items()):
        if count > 1:
            findings.append(Finding(
                "excess_decryption",
                f"round {rnd}: {count} aggregated decryptions, expected at most 1"))
    return AuditReport(findings)


def fresh_salt(seed) -> bytes:
    """The session's 16-byte PSI salt, derived from ``seed``."""
    return hashlib.sha256(f"psi-salt:{seed!r}".encode()).digest()[:16]
