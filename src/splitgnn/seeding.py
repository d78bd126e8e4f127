"""Deterministic RNG streams derived from structured keys.

Every random decision in the package (parameter init, the server's dropout
masks, batch order, synthetic data, encryption blinding, the Paillier keys
and the PSI salt) draws from a stream named by a tuple such as
``(seed, "dropout", "server", layer, step)``.  The tuple is hashed (with
SHA-256 here and for the salt, and by ``random.Random``'s own string seeding
for the keys), so streams are stable across processes and platforms and two
different keys never share a stream in practice.  No draw reads the
operating system's entropy or a global random state, and no generator
outlives the work it draws for: a secure round's encryption blinding, like
its dropout, comes from a stream named by (seed, step) and built inside the
round, so a round that fails shifts no later round's draws.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stable_seed(*parts) -> list[int]:
    """Hash a key tuple into a list of uint32 words usable as an RNG seed."""
    text = "\x1f".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return [int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4)]


def stable_rng(*parts) -> np.random.Generator:
    """A fresh PCG64 generator for the stream named by ``parts``."""
    return np.random.default_rng(stable_seed(*parts))
