"""Canonical content-addressed request hashing.

A solve's output is a pure function of ``(machine, batch arrays,
background, large_writes)``.  The backend *name* is deliberately not
part of the identity: the service solves every cell on one backend, and
the registered backends are cross-validated against each other.
:func:`request_key` digests exactly those inputs into a sha256 hex
string:

* machine fields serialise as sorted-key JSON (shortest-repr float64
  round-trips, so the text is deterministic across platforms and
  process restarts — no salted Python ``hash()`` anywhere);
* batch arrays are fed to the digest as explicit little-endian bytes,
  with OST ids normalised modulo ``machine.ost_count`` first (the
  solvers only ever see the modded id, so ``ost=400`` and ``ost=64`` on
  a 336-OST machine are the same cell);
* request tags are *excluded*: they are caller-side identity metadata
  that never reaches the completion-time arithmetic, and hashing them
  would split identical cells into distinct cache entries;
* a ``None`` background hashes as its own marker rather than as a zero
  array — the cache never has to assert that the two spellings solve
  bit-identically on every backend.

The key is therefore stable across arrival order, process restarts,
worker counts and dict insertion order, which is what lets the shard
assignment in :mod:`repro.serve.service` be a pure function of it.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import asdict

import numpy as np

from ..engine import Machine, RequestBatch
from ..util import FloatArray

__all__ = ["KEY_SCHEMA", "request_key"]

#: Bumped whenever the digest layout changes; part of every digest so a
#: persisted cache from an incompatible layout can never alias a key.
KEY_SCHEMA = "repro-serve-key-v2"


def _array_bytes(array: np.ndarray, dtype: str) -> bytes:
    """``array`` as canonical little-endian bytes of ``dtype``."""
    return np.ascontiguousarray(array, dtype=dtype).tobytes()


@functools.lru_cache(maxsize=64)
def _machine_json(machine: Machine) -> bytes:
    """The machine's canonical sorted-key JSON, cached per instance.

    ``dataclasses.asdict`` deep-copies every field; at thousands of
    requests per flush that dominated the whole hashing budget, and a
    service typically sees a handful of distinct (hashable, frozen)
    machines.
    """
    return json.dumps(asdict(machine), sort_keys=True).encode("utf-8")


def request_key(
    machine: Machine,
    batch: RequestBatch,
    background: FloatArray | None,
    large_writes: bool,
) -> str:
    """The sha256 content hash identifying one solve cell."""
    digest = hashlib.sha256()
    header = {
        "schema": KEY_SCHEMA,
        "large_writes": bool(large_writes),
        "n": len(batch),
        "background": background is not None,
    }
    digest.update(json.dumps(header, sort_keys=True).encode("utf-8"))
    digest.update(_machine_json(machine))
    digest.update(_array_bytes(batch.arrival, "<f8"))
    digest.update(_array_bytes(batch.ost % machine.ost_count, "<i8"))
    digest.update(_array_bytes(batch.nbytes, "<f8"))
    if background is not None:
        digest.update(_array_bytes(np.asarray(background), "<f8"))
    return digest.hexdigest()
