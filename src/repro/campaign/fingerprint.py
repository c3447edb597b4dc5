"""Content-addressed scenario fingerprints.

The campaign engine's dedupe, resume, and result store all key on one
identity: the fingerprint of a scenario spec.  It generalizes
:meth:`repro.core.cellserver.CellServer.branch_fingerprint` — the same
digest (16-byte blake2b, as
:func:`repro.core.cellserver.content_fingerprint` computes it) applied
to *canonical JSON* instead of particle bytes, computed here with
:mod:`hashlib` so that the campaign layer loads no numpy.  Canonical
means: keys sorted recursively, compact separators, ASCII-only, no
NaN/Infinity — so the digest depends on scenario content alone, never
on dict insertion order, interpreter hash randomization, or which
process computed it.  Two campaigns submitted years apart address the
same cache entry iff they describe the same physics.

Fingerprints are exposed in two forms: raw 16-byte digests and
32-char lowercase hex for JSONL/sqlite rows and log lines.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

__all__ = [
    "canonical_json",
    "canonical_json_bytes",
    "scenario_fingerprint",
    "scenario_fingerprint_hex",
]

#: Bump when the canonical encoding itself changes incompatibly; part
#: of the hashed content so old stores can never alias new scenarios.
ENCODING_VERSION = 1

_encode = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False).encode


def canonical_json(obj: Any) -> str:
    """The unique JSON encoding of ``obj`` used for fingerprinting.

    >>> canonical_json({"b": 1, "a": [1.5, "x"]})
    '{"a":[1.5,"x"],"b":1}'
    >>> canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})
    True
    """
    return _encode(obj)


def canonical_json_bytes(obj: Any) -> bytes:
    return canonical_json(obj).encode("ascii")


def _digest(d: Mapping) -> bytes:
    """The fingerprint of a spec's dict form: what
    :attr:`~repro.campaign.spec.ScenarioSpec.fingerprint` computes."""
    prefix = b"repro.campaign.scenario/v%d:" % ENCODING_VERSION
    return hashlib.blake2b(prefix + canonical_json_bytes(d), digest_size=16).digest()


def scenario_fingerprint(spec: "ScenarioSpec | Mapping") -> bytes:
    """16-byte content digest of a scenario spec (or its dict form): the
    spec's :attr:`~repro.campaign.spec.ScenarioSpec.fingerprint`, which
    a spec object computes once; a mapping is rebuilt and encoded each
    call."""
    if not hasattr(type(spec), "fingerprint"):  # the dict form
        from .spec import spec_from_dict  # it imports this module

        spec = spec_from_dict(spec)
    return spec.fingerprint


def scenario_fingerprint_hex(spec: "ScenarioSpec | Mapping") -> str:
    """The fingerprint as 32 lowercase hex chars (store/CLI form)."""
    return scenario_fingerprint(spec).hex()
