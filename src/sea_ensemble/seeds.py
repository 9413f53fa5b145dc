"""Deterministic seed derivation for reproducible experiments.

Python's built-in hash() is salted per process, so child seeds are derived
by SHA-256 over a canonical text encoding of (master seed, label parts).
The same (master, parts) always yields the same child seed, across runs,
platforms and worker processes.

Splitting rule used throughout the harness, with s_f = derive_seed(master,
"fold", f) the seed of fold f:

    derive_seed(master, "data")      -> synthetic dataset draw
    derive_seed(master, "split")     -> k-fold split
    derive_seed(s_f, "learner", i)   -> init of learner i in fold f
    derive_seed(s_f, "bootstrap")    -> bagging resamples in fold f (one
                                        generator draws all M in order)

The method name never enters the derivation, so different methods trained
from the same master seed share data splits and initial learner parameters.
"""

from __future__ import annotations

import hashlib

_MASK63 = (1 << 63) - 1


def derive_seed(master: int, *parts: int | str) -> int:
    """Derive a child seed (63-bit nonnegative int) from a master seed and labels."""
    blob = ":".join([str(int(master))] + [str(p) for p in parts]).encode("utf-8")
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:8], "little") & _MASK63
