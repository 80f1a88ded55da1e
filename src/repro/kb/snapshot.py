"""Immutable epoch views of the interned store: the MVCC read path.

A :class:`KbSnapshot` freezes one epoch of an
:class:`~repro.kb.interned.InternedKnowledgeBase` — the four SPO/PSO/
POS/OPS indexes with ``frozenset`` cells, an interner high-water mark,
and (when already materialized) the per-``(p, o)`` / ``(s, p)`` pages of
the shared :class:`~repro.kb.idset.MaskStore` — behind the exact same
:class:`~repro.kb.base.BaseKnowledgeBase` + ID-space API the live store
exposes.  Every consumer of that API (the matcher, the candidate
engine, the batch scorer, the prominence models, a whole
:class:`~repro.core.batch.BatchMiner`) therefore runs on a snapshot
unchanged, and — because a snapshot's :attr:`epoch` never moves — all
their epoch watchers are permanently quiescent: reads at a snapshot
never absorb, never repair, never wait.

Snapshots are built **copy-on-write** from the previous epoch view:
:meth:`~repro.kb.interned.InternedKnowledgeBase.at_epoch` keeps the head
snapshot, nets the mutation-log gap
(:func:`~repro.kb.epoch.net_changes`), and derives the next view by
shallow-copying the four top-level index dicts and replacing only the
rows the net delta touched; untouched rows, cells and mask pages are
shared structurally with the parent.  A gap the bounded log no longer
covers falls back to a full capture.  Content-neutral churn (paired
delete + re-add) nets to nothing and reuses the head outright.

Two invariants make the sharing safe under concurrent reads:

* everything a snapshot holds is immutable — frozensets, big-int masks,
  dicts that are never mutated after publication — so readers need no
  locks, only one atomic attribute load to pick their view;
* the interner is append-only and IDs are never reused, so the shared
  id→term table stays valid forever; the high-water mark clamps
  :meth:`KbSnapshot.term_id` / :meth:`KbSnapshot.term_count` so terms
  interned *after* the snapshot are invisible to it.

Construction is writer-side only (``at_epoch`` must not race a
mutation); the serving layer's update lock guarantees that.

:class:`FrozenEpoch` holds the read-only contract this view shares with
:class:`~repro.kb.image.ImageSnapshot`; each class keeps its own capture
code.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Optional, Set, Tuple

from repro.kb.idset import MaskStore
from repro.kb.interned import InternedKnowledgeBase, _IdIndex
from repro.kb.interner import TermInterner
from repro.kb.terms import Term
from repro.kb.triples import Triple

_Key = Tuple[int, int]


class FrozenEpoch:
    """The frozen-epoch contract of a snapshot class, listed first in
    its bases so it overrides the live store it derives from: a view of
    a frozen epoch is its own snapshot, term lookups clamp at the
    capture-time high-water mark, and mutators raise ``TypeError``."""

    #: Interner high-water mark: IDs at or past this were interned after
    #: the capture and do not exist in this view.
    _hwm: int

    def at_epoch(self):
        return self

    def snapshot(self):
        return self

    def term_id(self, term: Term) -> Optional[int]:
        """Clamped at the high-water mark: terms interned after the
        snapshot do not exist in this view."""
        term_id = self._interner.id_of(term)
        if term_id is not None and term_id >= self._hwm:
            return None
        return term_id

    def term_count(self) -> int:
        """The frozen mask universe: the interner size at capture time
        (the shared dictionary keeps growing underneath)."""
        return self._hwm

    def _readonly(self) -> TypeError:
        return TypeError(
            f"{type(self).__name__}(name={self.name!r}, epoch={self.epoch}) is an "
            "immutable epoch view; mutate the live KB and take a new snapshot"
        )

    def add(self, triple: Triple) -> bool:
        raise self._readonly()

    def discard(self, triple: Triple) -> bool:
        raise self._readonly()

    def mutate_many(self, operations) -> int:
        raise self._readonly()

    def add_all(self, triples) -> int:
        raise self._readonly()

    def copy(self, name: Optional[str] = None) -> InternedKnowledgeBase:
        """A fresh LIVE in-RAM store with this view's content and term
        IDs (the interner replays up to the high-water mark) — a new KB,
        not a new view."""
        interner = TermInterner(islice(self._terms, self._hwm))
        kb = InternedKnowledgeBase(name=name or self.name, interner=interner)
        kb.add_all(self.triples())
        return kb

    def stats(self) -> Dict[str, int]:
        stats = super().stats()
        stats["snapshot_epoch"] = self.epoch
        return stats


def _freeze_index(index: _IdIndex) -> _IdIndex:
    """A full frozen copy of one two-level index (capture path)."""
    return {
        a: {b: frozenset(cell) for b, cell in row.items()} for a, row in index.items()
    }


def _resync_cell(frozen: _IdIndex, live: _IdIndex, a: int, b: int) -> None:
    """Make ``frozen[a][b]`` match the live store, copying only the
    touched row (parent rows are shared and must never be mutated)."""
    live_row = live.get(a)
    cell = live_row.get(b) if live_row is not None else None
    row = frozen.get(a)
    if cell:
        new_row = dict(row) if row is not None else {}
        new_row[b] = frozenset(cell)
        frozen[a] = new_row
    elif row is not None and b in row:
        new_row = dict(row)
        del new_row[b]
        if new_row:
            frozen[a] = new_row
        else:
            del frozen[a]


class KbSnapshot(FrozenEpoch, InternedKnowledgeBase):
    """A read-only epoch view of an :class:`InternedKnowledgeBase`.

    Shares the parent's interner (append-only) and, structurally, every
    index row the producing epoch did not touch; read-only through
    :class:`FrozenEpoch`.  Build via
    :meth:`InternedKnowledgeBase.at_epoch`, never directly.
    """

    def __init__(self, *args, **kwargs):  # pragma: no cover - guard rail
        raise TypeError("KbSnapshot is built via InternedKnowledgeBase.at_epoch()")

    # ------------------------------------------------------------------
    # builders (writer-side only)
    # ------------------------------------------------------------------

    @classmethod
    def _shell(cls, kb: InternedKnowledgeBase) -> "KbSnapshot":
        snap = object.__new__(cls)
        snap.name = kb.name
        snap._interner = kb._interner
        snap._terms = kb._terms
        snap._size = kb._size
        snap._hwm = len(kb._terms)
        snap.epoch = kb.epoch
        # The log floor equals the epoch: changes_since() on a snapshot
        # answers [] for the current epoch and None for anything older,
        # and no watcher born on a snapshot can ever go stale.
        snap._log_floor = kb.epoch
        snap._mutation_log = None
        snap._epoch_hold = False
        snap._masks = None
        return snap

    @classmethod
    def _capture(cls, kb: InternedKnowledgeBase) -> "KbSnapshot":
        """Freeze the whole current state (first snapshot, or the gap
        outgrew the mutation log)."""
        snap = cls._shell(kb)
        snap._spo = _freeze_index(kb._spo)
        snap._pso = _freeze_index(kb._pso)
        snap._pos = _freeze_index(kb._pos)
        snap._ops = _freeze_index(kb._ops)
        live_masks = kb._masks
        if live_masks is not None:
            live_masks.sync()  # writer-side: quiescent by contract
            snap._masks = MaskStore.inherit(snap, live_masks)
        return snap

    @classmethod
    def _advance(
        cls,
        parent: "KbSnapshot",
        kb: InternedKnowledgeBase,
        net: list,
    ) -> "KbSnapshot":
        """Derive the next epoch view from *parent* plus a non-empty net
        delta: copy the four top-level dicts, resync only touched rows
        against the live store, share everything else."""
        snap = cls._shell(kb)
        spo, pso = dict(parent._spo), dict(parent._pso)
        pos, ops = dict(parent._pos), dict(parent._ops)
        touched_subject_keys: Set[_Key] = set()  # (p, o) mask pages
        touched_object_keys: Set[_Key] = set()  # (s, p) mask pages
        id_of = kb._interner.id_of
        for _, triple in net:
            si, pi, oi = id_of(triple.subject), id_of(triple.predicate), id_of(
                triple.object
            )
            # Logged mutations interned their terms, so the IDs exist.
            assert si is not None and pi is not None and oi is not None
            _resync_cell(spo, kb._spo, si, pi)
            _resync_cell(pso, kb._pso, pi, si)
            _resync_cell(pos, kb._pos, pi, oi)
            _resync_cell(ops, kb._ops, oi, pi)
            touched_subject_keys.add((pi, oi))
            touched_object_keys.add((si, pi))
        snap._spo, snap._pso, snap._pos, snap._ops = spo, pso, pos, ops
        if parent._masks is not None:
            snap._masks = MaskStore.inherit(
                snap, parent._masks, touched_subject_keys, touched_object_keys
            )
        return snap

    def __repr__(self) -> str:
        return (
            f"KbSnapshot(name={self.name!r}, epoch={self.epoch}, "
            f"facts={self._size}, terms={self._hwm})"
        )


__all__ = ["FrozenEpoch", "KbSnapshot"]
