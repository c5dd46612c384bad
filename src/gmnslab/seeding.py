"""Labeled derivation of random streams from one root seed.

Every random consumer derives its own 64-bit key from (root seed, purpose
label) by hashing, and feeds it to a counter-based Philox generator.  Adding
a new consumer never perturbs existing streams, and any (seed, label) pair
reproduces bit-identically across machines.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np


def derive_key(seed: int, label: str) -> int:
    """64-bit stream key from a root seed and a purpose string."""
    digest = hashlib.blake2b(
        f"{seed:#x}:{label}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


@functools.cache
def _fixed_seed():
    """The all-zero seed `philox` re-keys from: Philox(key=...) would draw one
    from OS entropy, and SeedSequence(0) hash a state the re-keying overwrites.
    Made on first use, so importing does not import numpy.random."""
    class ZeroSeed(np.random.bit_generator.ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype)
    return ZeroSeed()


def philox_state(key: int, stream: int = 0) -> dict:
    """The state of philox(key, stream) before its first draw, as plain lists:
    a Philox re-keys to it, or with ["state"]["key"][1] changed to another
    stream, in 0.35 us, against 0.81 us from numpy arrays (2-core VM)."""
    return {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": [key, stream]},
            "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def philox(key: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for (key, stream); streams are independent.
    Its bits are those of np.random.Philox(key=[key, stream]): built from the
    zero seed, then given the whole state of `philox_state`."""
    bitgen = np.random.Philox(_fixed_seed())
    bitgen.state = philox_state(key, stream)
    return np.random.Generator(bitgen)


def labeled_generator(seed: int, label: str) -> np.random.Generator:
    return philox(derive_key(seed, label))
