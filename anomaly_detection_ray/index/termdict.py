"""Term dictionary serving — eager or row-group-pruned lazy.

The global term dictionary (``stats.parquet``: term-sorted (term, df,
cttf)) backs every dictionary surface of the query engine: df lookups
for BM25 idf, and the prefix-bounded range scans behind prefix /
wildcard / regexp / fuzzy rewrites (Lucene's TermsEnum family —
``MultiTermQuery`` rewrites enumerate a sorted-term range the same way).

Two serving modes:

- **EAGER** (file ≤ ``budget_bytes``): the whole term column in RAM,
  Arrow binary search — O(log V) lookups, zero read amplification. The
  right mode for any dictionary that fits (a 10M-term corpus is ~100 MB).
- **LAZY** (bigger): only the per-row-group ``[min, max]`` term
  boundaries live in RAM (parquet column statistics — ~48 bytes per
  128k-term group, so a 10⁹-term dictionary costs ~0.4 MB resident);
  point lookups and range scans read JUST the intersecting row groups
  through a small LRU. Parquet statistics may be truncated, but the spec
  keeps them VALID bounds (truncated max ≥ real max), and a max pyarrow
  dropped (``''`` for a term over 4096 bytes) is bounded by the next
  group's max (unbounded if no later group has one), so pruning can only
  over-read, never miss a term.

Row groups are written term-sorted by ``build._finalize_index``
(row_group_size=131072), so the groups' ranges are ordered and pruning
is a bisect over the boundary arrays. Legacy indexes (one giant row
group, or no usable statistics) simply stay eager.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator

import pyarrow as pa
import pyarrow.parquet as pq

from .termscan import TermSlice

# upper bound of a prefix range [p, p + MAX_CODEPOINT)
MAX_CODEPOINT = "\U0010ffff"


def _monotone_bounds(mins: list[str], maxs: list[str]) -> tuple[list[str], list[str]]:
    """Make the per-group boundary arrays monotone non-decreasing so the
    prune bisect is sound. Parquet statistics may be TRUNCATED (a min
    rounded down, a max rounded up), which can leave stats locally out of
    order even though the row groups themselves are globally term-sorted
    — and a bisect over an unsorted array can skip an intersecting group
    (a silent miss). A running cumulative max restores monotonicity while
    staying a valid bound in both directions: for maxs, cummax ≥ each
    group's stat ≥ its true max; for mins, every earlier group's stat is
    ≤ its own true min ≤ this group's true min (groups are sorted), so
    cummax(min stats)[g] ≤ true min[g]. Either replacement can only
    OVER-read a neighbouring group, never miss one.

    A max pyarrow dropped (``MAX_CODEPOINT``, unbounded) would carry to
    every later group through the cummax, so first, in a backward pass,
    it is bounded by the next group's max statistic: group g's true max
    < group g+1's true min ≤ its true max ≤ its max statistic. The last
    group's dropped max (or one with no bounded max after it) stays
    unbounded."""
    mins, maxs = list(mins), list(maxs)
    for i in range(len(maxs) - 2, -1, -1):
        if maxs[i] == MAX_CODEPOINT:
            maxs[i] = maxs[i + 1]
    for i in range(1, len(mins)):
        if mins[i] < mins[i - 1]:
            mins[i] = mins[i - 1]
        if maxs[i] < maxs[i - 1]:
            maxs[i] = maxs[i - 1]
    return mins, maxs


def _arrow_bisect(col: pa.Array, needle: str, side: str) -> int:
    """Binary search over a sorted Arrow string array (no materialize)."""
    lo, hi = 0, len(col)
    while lo < hi:
        mid = (lo + hi) // 2
        v = col[mid].as_py()
        if v < needle or (side == "right" and v == needle):
            lo = mid + 1
        else:
            hi = mid
    return lo


class TermDictionary:
    """``path`` is either ONE term-sorted parquet file or a DIRECTORY of
    globally-sorted part files (``build._write_global_stats``' layout
    for indexes of more than one term range). Both modes
    flatten to one ordered row-group list; everything downstream (eager
    load, boundary pruning, the LRU) is layout-blind."""

    def __init__(self, path: str, budget_bytes: int = 1 << 30, cache_groups: int = 64):
        import os

        self.path = path
        if os.path.isdir(path):
            files = sorted(
                os.path.join(path, n) for n in os.listdir(path) if n.endswith(".parquet")
            )
        else:
            files = [path]
        self._pfs = [pq.ParquetFile(f) for f in files]
        if os.path.isdir(path):
            # consistency check against the finalize's in-dir manifest: a
            # reader racing a re-finalize's directory swap could mix two
            # layouts — fail loudly (caller retries) rather than serve a
            # dictionary whose parts are not in global term order
            import json

            meta_path = os.path.join(path, "_dict_meta.json")
            if os.path.exists(meta_path):
                with open(meta_path) as f:
                    meta = json.load(f)
                rows = sum(pf.metadata.num_rows for pf in self._pfs)
                if len(files) != meta["n_parts"] or rows != meta["n_terms"]:
                    raise RuntimeError(
                        "stats dictionary directory is inconsistent with its "
                        "manifest (concurrent finalize swap?) — reopen and retry"
                    )
        # flattened (file, row-group) list in global term order
        self._grp: list[tuple[int, int]] = [
            (fi, gi)
            for fi, pf in enumerate(self._pfs)
            for gi in range(pf.metadata.num_row_groups)
        ]
        self.n_terms = sum(pf.metadata.num_rows for pf in self._pfs)
        total_bytes = sum(os.path.getsize(f) for f in files)
        self.eager = total_bytes <= budget_bytes or len(self._grp) <= 1
        self._all: TermSlice | None = None
        self._mins: list[str] | None = None
        self._maxs: list[str] | None = None
        self._cache: OrderedDict[int, TermSlice] = OrderedDict()
        self._cache_groups = max(1, int(cache_groups))
        if not self.eager:
            mins, maxs = [], []
            for fi, gi in self._grp:
                meta = self._pfs[fi].metadata
                term_idx = meta.schema.to_arrow_schema().get_field_index("term")
                st = meta.row_group(gi).column(term_idx).statistics
                if st is None:
                    mins = None
                    break
                # pyarrow drops a bound over its 4096-byte statistics
                # limit (as '', or both bounds via has_min_max=False); no
                # term is empty, so a dropped min reads as '' and a
                # dropped max as unbounded above — else the group would
                # be pruned from every lookup
                lo, hi = (st.min, st.max) if st.has_min_max else ("", "")
                mins.append(lo if isinstance(lo, str) else lo.decode())
                maxs.append((hi if isinstance(hi, str) else hi.decode()) or MAX_CODEPOINT)
            if mins is None:
                self.eager = True  # no usable statistics → load it all
            else:
                self._mins, self._maxs = _monotone_bounds(mins, maxs)
        if self.eager:
            parts = [pf.read(columns=["term", "df"]) for pf in self._pfs]
            t = parts[0] if len(parts) == 1 else pa.concat_tables(parts)
            self._all = TermSlice(t["term"].combine_chunks(), t["df"].to_numpy())

    def __len__(self) -> int:
        return self.n_terms

    # ---- group access (lazy mode) ----

    def _group(self, g: int) -> TermSlice:
        hit = self._cache.get(g)
        if hit is not None:
            self._cache.move_to_end(g)
            return hit
        fi, gi = self._grp[g]
        t = self._pfs[fi].read_row_group(gi, columns=["term", "df"])
        val = TermSlice(t["term"].combine_chunks(), t["df"].to_numpy())
        self._cache[g] = val
        while len(self._cache) > self._cache_groups:
            self._cache.popitem(last=False)
        return val

    def _groups_for_range(self, lo: str, hi: str) -> range:
        """Row groups whose [min, max] intersects [lo, hi) — a bisect
        over the ordered boundary arrays."""
        import bisect

        # first group whose max >= lo; last group whose min < hi
        g0 = bisect.bisect_left(self._maxs, lo)
        g1 = bisect.bisect_left(self._mins, hi)
        return range(g0, min(g1, len(self._mins)))

    # ---- lookups ----

    def df(self, term: str) -> int:
        slices = [self._all] if self.eager else (
            self._group(g) for g in self._groups_for_range(term, term + "\x00"))
        for sl in slices:
            i = _arrow_bisect(sl.terms, term, "left")
            if i < len(sl.terms) and sl.terms[i].as_py() == term:
                return int(sl.df[i])
        return 0

    def iter_ranges(self, prefix: str = "") -> Iterator[tuple[TermSlice, int, int]]:
        """``(slice, lo, hi)``: the rows ``[lo, hi)`` of each held slice
        that cover exactly [prefix, prefix + MAX_CODEPOINT), in global
        term order. Eager mode yields the one term column; lazy mode one
        (pruned, LRU-cached) row group at a time, so a full-dictionary
        scan never holds more than a group in memory. A slice keeps what
        is built over it (its fuzzy trie) for as long as it is held."""
        hi_key = prefix + MAX_CODEPOINT if prefix else None
        if self.eager:
            slices = [self._all]
        else:
            groups = (
                self._groups_for_range(prefix, hi_key)
                if prefix else range(len(self._grp))
            )
            slices = (self._group(g) for g in groups)
        for sl in slices:
            lo = _arrow_bisect(sl.terms, prefix, "left") if prefix else 0
            hi = _arrow_bisect(sl.terms, hi_key, "left") if prefix else len(sl.terms)
            if hi > lo:
                yield sl, lo, hi

    def iter_slices(self, prefix: str = "") -> Iterator[pa.Array]:
        """The term chunks of :meth:`iter_ranges`."""
        for sl, lo, hi in self.iter_ranges(prefix):
            yield sl.terms.slice(lo, hi - lo)
