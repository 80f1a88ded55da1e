"""Wire serialization: ship a dictionary-encoded KB to another process.

The multi-process serving topology (:mod:`repro.service.workers`) needs
each worker to hold a *replica* of the router's
:class:`~repro.kb.interned.InternedKnowledgeBase` — same dense term IDs,
same epoch, same index contents — without re-parsing N-Triples/HDT and
without re-deriving the interner from scratch (ID stability is what
makes the delta fan-out protocol work: an update envelope replayed on a
replica must intern every term to the same ID the router assigned).

The format serializes exactly the state that is expensive or
order-sensitive to rebuild:

* the **full interner table** in ID order, dead IDs included — the mask
  width (:meth:`~repro.kb.interned.InternedKnowledgeBase.term_count`)
  counts dead terms by design, and a replica that dropped them would
  assign different IDs to the next interned term;
* the **triples as flat ID digits** in SPO iteration order (one third
  the JSON of nested lists, and insertion in this order reproduces the
  live store's row layout);
* the **epoch**, restored verbatim with the mutation-log floor pinned to
  it: a replica answers ``changes_since(epoch) == []`` and
  ``changes_since(older) is None``, exactly like a store that just
  overflowed its log — honest about not knowing pre-serialization
  history;
* optionally the resident :class:`~repro.kb.idset.MaskStore` pages as
  hex bitmasks, so a warmed router ships its kernel cache instead of
  making every worker rebuild it from index scans.

Terms travel in N-Triples syntax (one canonical text form already round-
tripped by the parser suite); the byte framing is a magic header plus
zlib-compressed JSON — stdlib only, no pickle (a worker should not
execute arbitrary constructors from its parent's bytes, and the format
stays debuggable with ``zlib.decompress``).

>>> from repro.kb.wire import kb_from_bytes, kb_to_bytes
>>> replica = kb_from_bytes(kb_to_bytes(kb))
>>> replica.epoch == kb.epoch and len(replica) == len(kb)
True
"""

from __future__ import annotations

import json
import zlib
from typing import Dict, List, Optional

from repro.kb.idset import IdSet
from repro.kb.interned import InternedKnowledgeBase
from repro.kb.interner import TermInterner
from repro.kb.ntriples import parse_term

#: Bump on any incompatible change to the payload shape.
WIRE_VERSION = 1

#: Byte-framing magic; the byte after it flags the body encoding
#: (``z`` = zlib-compressed JSON, ``r`` = raw JSON).
_MAGIC = b"REMIWIRE"

_FORMAT = "remi-kb-wire"


class WireError(ValueError):
    """Bytes or payload that cannot be rehydrated into a KB."""


def kb_to_payload(kb: InternedKnowledgeBase, include_masks: bool = True) -> Dict:
    """The JSON-ready wire form of *kb* (see module docstring).

    *kb* must be quiescent for the duration of the call (the serving
    layer serializes under its update lock).  Works on live stores
    and on :class:`~repro.kb.snapshot.KbSnapshot` views alike; the
    rehydrated store is always live.  Mask pages ship only when the
    store's kernel cache is resident (and *include_masks* is left on) —
    a cold store has nothing worth shipping.
    """
    if not getattr(kb, "supports_id_queries", False):
        raise WireError(
            f"wire serialization needs a dictionary-encoded backend, got {kb!r}"
        )
    triples: List[int] = []
    extend = triples.extend
    for si, by_pred in kb._spo.items():
        for pi, objects in by_pred.items():
            for oi in objects:
                extend((si, pi, oi))
    payload: Dict = {
        "format": _FORMAT,
        "v": WIRE_VERSION,
        "name": kb.name,
        "epoch": kb.epoch,
        "facts": len(kb),
        "terms": [term.n3() for term in kb._terms],
        "triples": triples,
    }
    store = kb._masks
    if include_masks and store is not None:
        store.sync()  # pages must describe the epoch we stamp
        payload["masks"] = {
            "subjects": [
                [p, o, format(entry.to_mask(), "x")]
                for (p, o), entry in store._subjects.items()
            ],
            "objects": [
                [s, p, format(entry.to_mask(), "x")]
                for (s, p), entry in store._objects.items()
            ],
        }
    return payload


def payload_to_kb(payload: Dict) -> InternedKnowledgeBase:
    """Rehydrate a :func:`kb_to_payload` payload into a live store.

    The replica is bit-for-bit interchangeable with the source for every
    ID-space and term-space query: same dense IDs (dead ones included),
    same index contents, same epoch.  Its mutation log starts empty with
    the floor pinned at the serialized epoch, and mask pages (when
    shipped) land pre-warmed and coherent.
    """
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        raise WireError("not a remi-kb-wire payload")
    version = payload.get("v")
    if version != WIRE_VERSION:
        raise WireError(f"unsupported wire version {version!r}")
    interner = TermInterner()
    intern = interner.intern
    for index, raw in enumerate(payload["terms"]):
        term_id = intern(parse_term(raw))
        if term_id != index:
            # Two serialized rows decoded to one term: the table cannot
            # have come from a real interner and every triple ID after
            # this point would be misassigned.
            raise WireError(f"duplicate term at wire index {index}: {raw!r}")
    kb = InternedKnowledgeBase(name=payload.get("name", "kb"), interner=interner)
    width = len(interner)
    spo, pso, pos, ops = kb._spo, kb._pso, kb._pos, kb._ops
    size = 0
    flat = payload["triples"]
    if len(flat) % 3:
        raise WireError(f"triple digits not a multiple of 3: {len(flat)}")
    digits = iter(flat)
    for si, pi, oi in zip(digits, digits, digits):
        if not (0 <= si < width and 0 <= pi < width and 0 <= oi < width):
            raise WireError(f"triple ({si}, {pi}, {oi}) outside term table")
        objects = spo.setdefault(si, {}).setdefault(pi, set())
        if oi in objects:
            raise WireError(f"duplicate triple ({si}, {pi}, {oi})")
        objects.add(oi)
        pso.setdefault(pi, {}).setdefault(si, set()).add(oi)
        pos.setdefault(pi, {}).setdefault(oi, set()).add(si)
        ops.setdefault(oi, {}).setdefault(pi, set()).add(si)
        size += 1
    if size != payload.get("facts"):
        raise WireError(f"fact count mismatch: {size} != {payload.get('facts')}")
    kb._size = size
    # Epoch continuity: the replica reports the source epoch, with log
    # coverage starting here (older epochs honestly answer None).
    kb.epoch = int(payload.get("epoch", 0))
    kb._log_floor = kb.epoch
    masks = payload.get("masks")
    if masks:
        # Created after the epoch landed, so the store's watcher is born
        # coherent and the shipped pages serve without a rebuild.
        store = kb.masks
        for p, o, mask_hex in masks["subjects"]:
            store._subjects[(p, o)] = IdSet.from_mask(int(mask_hex, 16))
        for s, p, mask_hex in masks["objects"]:
            store._objects[(s, p)] = IdSet.from_mask(int(mask_hex, 16))
    return kb


def kb_to_bytes(
    kb: InternedKnowledgeBase,
    include_masks: bool = True,
    compress: bool = True,
    faults=None,
) -> bytes:
    """:func:`kb_to_payload` framed for a pipe: magic + flag + JSON body.

    *faults* (a :class:`~repro.service.faults.FaultPlan`, duck-typed to
    keep this module service-free) passes the finished frame through the
    ``corrupt-wire`` injection point: when that occurrence is scheduled,
    one byte is flipped and the receiver's rehydration raises a typed
    :class:`WireError` — the chaos harness for the resync path.
    """
    body = json.dumps(
        kb_to_payload(kb, include_masks=include_masks),
        ensure_ascii=False,
        separators=(",", ":"),
    ).encode("utf-8")
    data = _MAGIC + b"z" + zlib.compress(body, 6) if compress else _MAGIC + b"r" + body
    if faults is not None:
        data = faults.corrupt_frame(data)
    return data


def kb_from_bytes(data: bytes) -> InternedKnowledgeBase:
    """Rehydrate :func:`kb_to_bytes` output (see :func:`payload_to_kb`)."""
    if not isinstance(data, (bytes, bytearray)) or not data.startswith(_MAGIC):
        raise WireError("missing wire magic; not kb_to_bytes output")
    flag = data[len(_MAGIC) : len(_MAGIC) + 1]
    body = bytes(data[len(_MAGIC) + 1 :])
    if flag == b"z":
        try:
            body = zlib.decompress(body)
        except zlib.error as exc:
            raise WireError(f"corrupt compressed body: {exc}") from None
    elif flag != b"r":
        raise WireError(f"unknown body encoding flag {flag!r}")
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:
        raise WireError(f"corrupt wire body: {exc}") from None
    return payload_to_kb(payload)


__all__ = [
    "WIRE_VERSION",
    "WireError",
    "kb_from_bytes",
    "kb_to_bytes",
    "kb_to_payload",
    "payload_to_kb",
]
