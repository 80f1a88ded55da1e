"""The image-backed store: zero-copy reads, in-memory mutation delta.

:class:`ImageKnowledgeBase` subclasses
:class:`~repro.kb.interned.InternedKnowledgeBase` and swaps the four
dict indexes for :class:`_LazyIndex` views over the image's sorted
triple arrays, and the interner for an :class:`ImageTermTable` that
decodes terms from the mmap'd blob on demand.  Because both expose the
exact dict/interner protocol the parent's methods consume, **every**
read and mutation path — the matcher's ID-space accessors, the
MaskStore, ``add``/``discard``/``mutate_many``, the wire serializer —
runs unchanged; the subclass only overrides construction, ``at_epoch``
(snapshots must stay O(delta), see :class:`ImageSnapshot`) and ``copy``.

The mutation model is a delta overlay: a faulted index row starts as the
image's content; mutators dirty it in place (or tombstone/append whole
keys), and the frozen array is never written.  An unmutated store
therefore reads in O(pages touched) — opening a million-fact image and
mining one entity faults a handful of rows — while a mutated one behaves
exactly like the in-RAM store the epoch/MVCC machinery was built for.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.kb.idset import IdSet, MaskStore
from repro.kb.image.format import ImageError, KbImage, _TripleArray
from repro.kb.interned import InternedKnowledgeBase
from repro.kb.interner import TermInterner
from repro.kb.ntriples import parse_term
from repro.kb.snapshot import FrozenEpoch
from repro.kb.terms import Term

__all__ = ["ImageKnowledgeBase", "ImageSnapshot", "ImageTermTable"]


class _LazyIndex:
    """One two-level index (``{a: {b: {c}}}``) served lazily from a
    sorted triple array, with an in-memory overlay for mutations.

    The dict-protocol surface is exactly what
    :class:`~repro.kb.interned.InternedKnowledgeBase` uses:

    * read paths call ``get``/``items``/``__iter__``/``__len__``/
      ``__contains__`` — these fault rows from the array (``get``
      caches, ``items`` stays transient so full scans don't
      materialize the store);
    * mutation paths call ``setdefault``/``__getitem__``/
      ``__delitem__`` — these additionally mark the key **dirty**, the
      bookkeeping snapshots use to copy only the delta.

    ``_deleted`` tombstones image keys whose rows were pruned away;
    ``_novel`` tracks keys absent from the image entirely.  A row in
    ``_rows`` is always authoritative over the array.
    """

    __slots__ = ("_arr", "_rows", "_novel", "_deleted", "_dirty", "_freeze")

    def __init__(self, arr: _TripleArray, freeze: bool = False):
        self._arr = arr
        self._rows: Dict[int, Dict[int, Set[int]]] = {}
        self._novel: Set[int] = set()
        self._deleted: Set[int] = set()
        self._dirty: Set[int] = set()
        self._freeze = freeze

    def _fault(self, a: int) -> Optional[Dict[int, Set[int]]]:
        row = self._arr.row(a)
        if row is not None and self._freeze:
            return {b: frozenset(cell) for b, cell in row.items()}  # type: ignore[misc]
        return row

    # -- read protocol -------------------------------------------------

    def get(self, a: int, default=None):
        row = self._rows.get(a)
        if row is not None:
            return row
        if a in self._deleted or a in self._novel:
            return default
        row = self._fault(a)
        if row is None:
            return default
        self._rows[a] = row
        return row

    def __contains__(self, a: int) -> bool:
        if a in self._rows:
            return True
        if a in self._deleted:
            return False
        return self._arr.has(a)

    def __iter__(self) -> Iterator[int]:
        deleted = self._deleted
        for a in self._arr.keys():
            if a not in deleted:
                yield a
        novel = self._novel
        if novel:
            for a in self._rows:
                if a in novel:
                    yield a

    def __len__(self) -> int:
        return self._arr.distinct - len(self._deleted) + len(self._novel)

    def keys(self) -> Iterator[int]:
        return iter(self)

    def items(self):
        """Full ``(a, row)`` scan.  Rows faulted here are NOT cached:
        serializers and vocabulary scans walk the whole index once, and
        caching every row would silently rebuild the store in RAM."""
        rows = self._rows
        deleted = self._deleted
        for a in self._arr.keys():
            if a in deleted:
                continue
            row = rows.get(a)
            if row is None:
                row = self._fault(a)
            yield a, row
        novel = self._novel
        if novel:
            for a, row in rows.items():
                if a in novel:
                    yield a, row

    def values(self):
        for _, row in self.items():
            yield row

    # -- mutation protocol (marks keys dirty) --------------------------

    def __getitem__(self, a: int):
        row = self.get(a)
        if row is None:
            raise KeyError(a)
        self._dirty.add(a)
        return row

    def setdefault(self, a: int, default):
        rows = self._rows
        row = rows.get(a)
        if row is None:
            if a in self._deleted:
                # Resurrecting a tombstoned image key: it restarts from
                # the default, NOT the image content (its row was fully
                # pruned before the tombstone was set).
                self._deleted.discard(a)
                row = default
            else:
                row = self._fault(a)
                if row is None:
                    row = default
                    self._novel.add(a)
            rows[a] = row
        self._dirty.add(a)
        return row

    def __delitem__(self, a: int) -> None:
        rows = self._rows
        if a in rows:
            del rows[a]
            if a in self._novel:
                self._novel.discard(a)
            else:
                self._deleted.add(a)
            self._dirty.add(a)
            return
        # Defensive: mutators always fault a row before deleting it, so
        # an uncached delete only happens on direct dict-style use.
        if a not in self._deleted and self._arr.has(a):
            self._deleted.add(a)
            self._dirty.add(a)
            return
        raise KeyError(a)

    # -- snapshot support ----------------------------------------------

    def _frozen_view(self) -> "_LazyIndex":
        """An immutable view sharing the array: only DIRTY rows are
        deep-copied (frozenset cells); clean rows refault from the image
        on demand, which is what keeps capture O(delta).  Clean cached
        rows are deliberately NOT shared — the live store mutates row
        dicts and cell sets in place."""
        view = _LazyIndex(self._arr, freeze=True)
        rows = self._rows
        view_rows = view._rows
        for a in self._dirty:
            row = rows.get(a)
            if row is not None:
                view_rows[a] = {b: frozenset(cell) for b, cell in row.items()}  # type: ignore[misc]
        view._novel = set(self._novel)
        view._deleted = set(self._deleted)
        view._dirty = set(self._dirty)
        return view

    def __repr__(self) -> str:
        return (
            f"_LazyIndex({self._arr.tag}, distinct={len(self)}, "
            f"cached={len(self._rows)}, dirty={len(self._dirty)})"
        )


class _LazyTermList:
    """The ``kb._terms`` stand-in: index → Term, decoding from the image
    blob (cached) for image IDs and from the in-memory tail for terms
    interned after load.  Append-only semantics match the interner list."""

    __slots__ = ("_table",)

    def __init__(self, table: "ImageTermTable"):
        self._table = table

    def __len__(self) -> int:
        return self._table._base + len(self._table._tail)

    def __getitem__(self, term_id: int) -> Term:
        return self._table.term(term_id)

    def __iter__(self) -> Iterator[Term]:
        for term_id in range(len(self)):
            yield self._table.term(term_id)


class ImageTermTable:
    """The interner protocol over the image's serialized dictionary.

    Image IDs resolve by offset (decode cached both ways); unknown terms
    probe the sorted ``n3()``-bytes index by binary search; `intern` of
    a genuinely new term appends to an in-memory tail, preserving the
    append-only, never-reused ID contract.  Dead IDs survive load
    because every blob row serializes, referenced or not.
    """

    __slots__ = ("_image", "_base", "_cache", "_ids", "_tail", "_terms")

    def __init__(self, image: KbImage):
        self._image = image
        self._base = image.term_count
        self._cache: Dict[int, Term] = {}
        self._ids: Dict[Term, int] = {}
        self._tail: List[Term] = []
        self._terms = _LazyTermList(self)

    def term(self, term_id: int) -> Term:
        if term_id < 0:
            raise IndexError(f"term IDs are non-negative, got {term_id}")
        base = self._base
        if term_id >= base:
            return self._tail[term_id - base]
        term = self._cache.get(term_id)
        if term is None:
            term = parse_term(self._image.term_text(term_id))
            self._cache[term_id] = term
            self._ids.setdefault(term, term_id)
        return term

    def id_of(self, term: Term) -> Optional[int]:
        term_id = self._ids.get(term)
        if term_id is not None:
            return term_id
        term_id = self._image.find_term_bytes(term.n3().encode("utf-8"))
        if term_id is not None:
            self._ids[term] = term_id
            self._cache.setdefault(term_id, term)
        return term_id

    def intern(self, term: Term) -> int:
        term_id = self.id_of(term)
        if term_id is not None:
            return term_id
        term_id = self._base + len(self._tail)
        self._tail.append(term)
        self._ids[term] = term_id
        return term_id

    def decode(self, ids) -> frozenset:
        term = self.term
        return frozenset(term(i) for i in ids)

    def decode_set(self, ids) -> set:
        term = self.term
        return {term(i) for i in ids}

    def __contains__(self, term: Term) -> bool:
        return self.id_of(term) is not None

    def __len__(self) -> int:
        return self._base + len(self._tail)

    def __iter__(self) -> Iterator[Term]:
        return iter(self._terms)

    def __repr__(self) -> str:
        return f"ImageTermTable(image_terms={self._base}, tail={len(self._tail)})"


class ImageKnowledgeBase(InternedKnowledgeBase):
    """A dictionary-encoded store served zero-copy from a KB image.

    Construction never walks the triples: it mmaps the file, wires the
    lazy indexes/term table and (when the image ships them) seeds the
    MaskStore from the precomputed pages — O(pages touched) until reads
    arrive.  Mutations layer an in-memory epoch delta over the frozen
    image; ``epoch``/``changes_since``/``at_epoch`` behave exactly as on
    the in-RAM store, so serving, fan-out and MVCC reads work unchanged.

    >>> kb = ImageKnowledgeBase("dataset.remimg")  # doctest: +SKIP
    """

    supports_id_queries = True
    supports_snapshots = True

    def __init__(
        self,
        source: "str | Path | KbImage",
        name: Optional[str] = None,
    ):
        if isinstance(source, KbImage):
            image = source
        elif isinstance(source, (str, Path)):
            image = KbImage(source)
        else:
            raise ImageError(
                f"ImageKnowledgeBase opens image FILES, got {type(source).__name__}; "
                "build one with `remi build-image` (or repro.kb.image.write_image), "
                "or use the 'interned' backend for in-memory triples"
            )
        self._image = image
        self.name = name if name is not None else image.name
        table = ImageTermTable(image)
        self._interner = table  # type: ignore[assignment]
        self._terms = table._terms  # type: ignore[assignment]
        self._spo = _LazyIndex(image.spo)  # type: ignore[assignment]
        self._pso = _LazyIndex(image.pso)  # type: ignore[assignment]
        self._pos = _LazyIndex(image.pos)  # type: ignore[assignment]
        self._ops = _LazyIndex(image.ops)  # type: ignore[assignment]
        self._size = image.fact_count
        self._masks = None
        self._snap_head = None
        # The image epoch is the store's birth epoch; the log floor sits
        # there so changes_since() answers [] now and None for anything
        # older — same contract wire rehydration establishes.
        self.epoch = image.epoch
        self._log_floor = image.epoch
        pages = image.mask_pages()
        if pages is not None:
            # Seed AFTER the epoch is set: the store's EpochWatcher is
            # born at the current epoch, so the pages load in coherent.
            store = self._masks = MaskStore(self)
            for p, o, mask_hex in pages["subjects"]:
                store._subjects[(p, o)] = IdSet.from_mask(int(mask_hex, 16))
            for s, p, mask_hex in pages["objects"]:
                store._objects[(s, p)] = IdSet.from_mask(int(mask_hex, 16))

    # ------------------------------------------------------------------
    # image plumbing
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, path: "str | Path", name: Optional[str] = None) -> "ImageKnowledgeBase":
        """Open an image file (alias for the constructor, reads aloud)."""
        return cls(path, name=name)

    @property
    def image(self) -> KbImage:
        return self._image

    @property
    def image_path(self) -> str:
        """The backing file — what the worker fleet bootstraps from."""
        return self._image.path

    @property
    def image_epoch(self) -> int:
        """The epoch frozen into the image; ``epoch`` moves past it as
        the delta overlay accumulates mutations."""
        return self._image.epoch

    def close(self) -> None:
        """Release the mmap.  The store must not be used afterwards."""
        self._image.close()

    # ------------------------------------------------------------------
    # epoch snapshots
    # ------------------------------------------------------------------

    def at_epoch(self):
        """The immutable view at the current epoch, O(delta) to build.

        The parent's COW path would do, but :class:`ImageSnapshot`
        captures by copying only dirty overlay rows — untouched image
        content is re-served from the shared frozen arrays, preserving
        the O(pages touched) cost profile even across snapshots.
        Repeated calls at one epoch return the same object (the façade's
        session-roll noop relies on identity).
        """
        from repro.kb.epoch import net_changes

        head = self._snap_head
        if head is not None:
            if head.epoch == self.epoch:
                return head
            changes = self.changes_since(head.epoch)
            if changes is not None and not net_changes(changes):
                return head
        snap = ImageSnapshot._capture(self)
        self._snap_head = snap
        return snap

    # ------------------------------------------------------------------
    # copies
    # ------------------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> InternedKnowledgeBase:
        """A fully in-RAM live store with identical content AND identical
        ID assignments (the interner replays in ID order, dead IDs too)."""
        interner = TermInterner(self._terms)
        kb = InternedKnowledgeBase(name=name or self.name, interner=interner)
        kb.add_all(self.triples())
        return kb

    def stats(self) -> Dict[str, int]:
        stats = super().stats()
        stats["image_epoch"] = self.image_epoch
        return stats

    def __repr__(self) -> str:
        return (
            f"ImageKnowledgeBase(path={self.image_path!r}, facts={self._size}, "
            f"terms={len(self._interner)}, epoch={self.epoch})"
        )


class ImageSnapshot(FrozenEpoch, ImageKnowledgeBase):
    """A read-only epoch view of an :class:`ImageKnowledgeBase`.

    The image analogue of :class:`~repro.kb.snapshot.KbSnapshot`, with
    the same :class:`~repro.kb.snapshot.FrozenEpoch` contract, built by
    copying only the mutation delta — the four lazy views share the
    mmap'd arrays with the live store and refault clean rows on demand,
    so capturing a snapshot of an unmutated million-fact image is O(1).
    """

    def __init__(self, *args, **kwargs):  # pragma: no cover - guard rail
        raise TypeError("ImageSnapshot is built via ImageKnowledgeBase.at_epoch()")

    @classmethod
    def _capture(cls, kb: ImageKnowledgeBase) -> "ImageSnapshot":
        snap = object.__new__(cls)
        snap.name = kb.name
        snap._image = kb._image
        snap._interner = kb._interner
        snap._terms = kb._terms
        snap._hwm = len(kb._terms)
        snap._size = kb._size
        snap.epoch = kb.epoch
        snap._log_floor = kb.epoch
        snap._mutation_log = None
        snap._epoch_hold = False
        snap._snap_head = None
        snap._spo = kb._spo._frozen_view()
        snap._pso = kb._pso._frozen_view()
        snap._pos = kb._pos._frozen_view()
        snap._ops = kb._ops._frozen_view()
        snap._masks = None
        live_masks = kb._masks
        if live_masks is not None:
            live_masks.sync()  # writer-side: quiescent by contract
            snap._masks = MaskStore.inherit(snap, live_masks)
        return snap

    def __repr__(self) -> str:
        return (
            f"ImageSnapshot(path={self.image_path!r}, epoch={self.epoch}, "
            f"facts={self._size}, terms={self._hwm})"
        )
