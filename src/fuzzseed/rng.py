"""Seed handling for reproducible stochastic runs.

All randomness in the package flows through numpy's PCG64 generator,
constructed from an explicit 64-bit integer seed. Sub-seeds for nested
work units (benchmark cells, relaunches) are derived by hashing the
parent seed together with the unit's identity, so results never depend
on execution order.
"""

import hashlib
import secrets

import numpy as np

RNG_NAME = "numpy-pcg64"

# Documented splitting scheme: blake2b over "part:part:..." (repr of each
# part), truncated to 64 bits. Stable across processes and platforms.
SEED_SCHEME = "blake2b-64 over ':'-joined parts"


def derive_seed(*parts) -> int:
    """Deterministically derive a 64-bit sub-seed from (seed, *identity)."""
    payload = ":".join(repr(p) for p in parts).encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big")


def fresh_seed() -> int:
    """Draw a new 64-bit seed from OS entropy (recorded, never implicit)."""
    return secrets.randbits(64)


def make_rng(seed: int) -> "np.random.Generator":
    return np.random.default_rng(seed)
