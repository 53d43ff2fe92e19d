"""BM25 top-k + Boolean query engine over built index segments.

Serves the query surface the reference plugin pushes down to
OpenSearch/Lucene (SURVEY.md §2.A): BM25 top-k (north rule), conjunctive
posting-list intersection (A2), term filters (A3), with global stats
(N, avgdl, df) from the manifest so scores are identical regardless of
how the corpus was sliced/partitioned (the DFS-stats model).

One scoring path: exact vectorized BM25 over each query term's decoded
postings, one ``np.bincount`` accumulation, rank-identical to the
brute-force oracle with scores equal to 1e-9. Block-max pruning was
measured slower than this on every ``perfbench`` ``search`` request kind,
warm or cold, and was removed.

Every postings read — BM25 scoring, conjunctive intersection, multi-term
(prefix/wildcard/regexp/fuzzy/terms) unions — goes through one LRU cache
of decoded per-term arrays, byte-capped by ``postings_cache_bytes``.
Each entry is sorted by doc id once, at insert, and has the scoped
tombstone filter already applied.

An engine instance holds the term-stats dictionary and a pyarrow
dataset over the postings files (loaded once — use as an actor-pool
member for serving). Under the same ``preload_bytes`` budget it also
holds the docmap's metadata columns in memory, each loaded on first use;
aggregations read them for a request's hit set, computed once. Chunk
reads go through Parquet predicate pushdown on the ``term`` column; rows
are term-sorted so row-group stats prune.
"""

from __future__ import annotations

import json
import os
from glob import glob

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from ..functions.analyzer import Analyzer
from ..functions.bm25 import idf as bm25_idf
from ..functions.bm25 import tf_norm
from .build import MANIFEST_NAME
from .segments import DECODE_COLUMNS, POSTINGS_SCHEMA
# not used here: perfbench/trace.py wraps query.decode_block by this name
from .segments import decode_block  # noqa: F401


def _arrow_bisect(arr, term: str, side: str = "left") -> int:
    """Binary search over a SORTED Arrow string array without
    materializing it into Python (O(log n) ``.as_py()`` probes — the
    dictionary stays in Arrow buffers, which is what survives a 10^9-term
    vocabulary; round-1 built a Python dict over every term)."""
    lo, hi = 0, len(arr)
    while lo < hi:
        mid = (lo + hi) // 2
        v = arr[mid].as_py()
        if v < term or (side == "right" and v == term):
            lo = mid + 1
        else:
            hi = mid
    return lo


_SUB_METRIC_ARROW = {
    "min": "min", "max": "max", "avg": "mean", "sum": "sum",
    "value_count": "count", "cardinality": "count_distinct",
}
# a stats agg's response keys → the Arrow aggregate behind each
_STATS_KERNEL = {"count": "count", "min": "min", "max": "max", "avg": "mean", "sum": "sum"}


def _calendar_boundaries(lo_ms: int, hi_ms: int, unit: str) -> np.ndarray:
    """Every calendar bucket start in [lo_ms, hi_ms] (both are already
    calendar floors) — the gap-fill enumeration for calendar
    date_histograms."""
    from ..stages.window import CALENDAR_UNITS

    u = CALENDAR_UNITS[unit]
    if u == "W":
        return np.arange(lo_ms, hi_ms + 1, 7 * 86_400_000, dtype=np.int64)
    step = {"M": 1, "Q": 3, "Y": 12}[u]
    m_lo = np.int64(lo_ms).astype("datetime64[ms]").astype("datetime64[M]").astype(np.int64)
    m_hi = np.int64(hi_ms).astype("datetime64[ms]").astype("datetime64[M]").astype(np.int64)
    months = np.arange(m_lo, m_hi + 1, step, dtype=np.int64)
    return months.astype("datetime64[M]").astype("datetime64[ms]").astype(np.int64)


def _parse_sort_keys(spec) -> list[tuple[str, bool]]:
    """OpenSearch sort spec → [(field, ascending)]: a string, a dict,
    or a list of either; dict values are "asc"/"desc" or {"order": …}."""
    if not spec:
        return []
    if isinstance(spec, (str, dict)):
        spec = [spec]
    keys = []
    for s in spec:
        if isinstance(s, str):
            keys.append((s, True))
        else:
            ((f, d),) = s.items()
            order = d.get("order", "asc") if isinstance(d, dict) else d
            keys.append((f, str(order).lower() != "desc"))
    return keys


def pd_isna(v) -> bool:
    import pandas as pd

    try:
        return bool(pd.isna(v))
    except (TypeError, ValueError):
        return False


def _py_scalar(v):
    return v.item() if hasattr(v, "item") else v


def _terms_ranking(g: pa.Table, key: str, order: dict | None,
                   plan: list[tuple[str, str, str]]) -> pa.Array:
    """Row order of the grouped terms table ``g`` (one row per bucket)
    for the OpenSearch terms-agg ``order`` option: ``_count`` (default,
    desc) / ``_key`` / a metric sub-agg name / a dotted ``name.metric``
    path into a stats sub-agg. Ties break on (key asc), like
    OpenSearch's total ordering; a null metric (an empty bucket's
    avg/min/max) sorts last either direction."""
    if not order:
        return pc.sort_indices(g, [("doc_id_count", "descending"), (key, "ascending")])
    if len(order) != 1:
        raise ValueError("terms order must name exactly one sort target")
    ((target, direction),) = order.items()
    d = "ascending" if str(direction).lower() == "asc" else "descending"
    if target == "_key":
        return pc.sort_indices(g, [(key, d)])  # keys are unique per bucket
    if target == "_count":
        return pc.sort_indices(g, [("doc_id_count", d), (key, "ascending")])
    name, dot, stat = target.partition(".")
    ops = {n: (o, f) for n, o, f in plan}
    if name not in ops:
        raise ValueError(f"terms order references unknown sub-aggregation {target!r}")
    op, field = ops[name]
    if op == "stats":
        if not dot:
            raise ValueError(f"ordering on stats agg {name!r} needs a dotted path (e.g. {name}.avg)")
        if stat not in _STATS_KERNEL:
            raise ValueError(f"stats agg {name!r} has no {stat!r} value")
        kernel = _STATS_KERNEL[stat]
    else:
        if dot:
            raise ValueError(f"sub-aggregation {name!r} is single-valued; drop the .{stat}")
        kernel = _SUB_METRIC_ARROW[op]
    v = g[f"{field}_{kernel}"]
    if kernel == "sum":
        v = pc.fill_null(v, 0)  # the sum of no values reads 0.0, not null
    return pc.sort_indices(pa.table({"v": v, "k": g[key]}),
                           [("v", d), ("k", "ascending")], null_placement="at_end")


def _metric_value(op: str, n: int, kernel):
    """The OpenSearch value of metric ``op`` over ``n`` non-null values,
    at the top level and in every bucket alike: ``kernel(name)`` reads
    one Arrow aggregate (``min``/``max``/``mean``/``sum``/
    ``count_distinct``) of those values. Over no values avg/min/max are
    null, sum is 0.0 and the counts 0; ``stats`` is the composite dict.
    ``cardinality`` is EXACT distinct here (OpenSearch's is an
    approximate HLL — documented difference, same contract otherwise);
    min/max keep the column's own type."""
    if op == "value_count":
        return n
    if op == "stats":
        if n == 0:
            return {"count": 0, "min": None, "max": None, "avg": None, "sum": 0.0}
        return {"count": n, "min": kernel("min"), "max": kernel("max"),
                "avg": float(kernel("mean")), "sum": float(kernel("sum"))}
    if n == 0:
        return {"sum": 0.0, "cardinality": 0}.get(op)
    v = kernel(_SUB_METRIC_ARROW[op])
    return float(v) if op in ("avg", "sum") else v


class _FixedWidth:
    """Histogram key rule ``floor(v / interval) × interval`` (OpenSearch
    semantics incl. negative values); the gap-fill steps by ``interval``.
    ``dtype`` is the key type: float for ``histogram``, int64 epoch-ms
    for a ``fixed_interval`` date_histogram (the same tumbling-window
    rule as the events side, ``dataStart -= dataStart % interval``)."""

    def __init__(self, interval: float, dtype=np.float64):
        self.interval, self.dtype = float(interval), dtype

    def keys(self, vals: np.ndarray) -> np.ndarray:
        iv = self.interval
        return (np.floor(vals.astype(np.float64) / iv) * iv).astype(self.dtype)

    def fill(self, lo, hi) -> np.ndarray:
        iv = self.interval
        return np.arange(lo, hi + iv / 2, iv).astype(self.dtype)


class _Calendar:
    """Histogram key rule for a ``calendar_interval`` date_histogram
    (week/month/quarter/year — variable-width UTC buckets, which modulo
    arithmetic can't express): epoch-ms calendar floors; the gap-fill
    enumerates calendar boundaries."""

    def __init__(self, unit: str):
        self.unit = unit

    def keys(self, vals: np.ndarray) -> np.ndarray:
        from ..stages.window import calendar_floor_ms

        return calendar_floor_ms(vals.astype(np.int64), self.unit)[0]

    def fill(self, lo, hi) -> np.ndarray:
        return _calendar_boundaries(lo, hi, self.unit)


def _sub_agg_plan(sub_aggs: dict) -> list[tuple[str, str, str]]:
    """Validate a nested-aggs dict into [(name, op, field)] — metric
    sub-aggregations only (OpenSearch allows bucket-in-bucket nesting;
    this engine supports the metric layer the reference actually
    composes, e.g. the per-feature aggs inside the entity composite)."""
    plan = []
    for name, spec in sub_aggs.items():
        if not isinstance(spec, dict) or len(spec) != 1:
            raise ValueError(f"sub-aggregation {name!r} must be a single metric agg")
        op = next(iter(spec))
        if op != "stats" and op not in _SUB_METRIC_ARROW:
            raise ValueError(
                f"unsupported sub-aggregation {op!r} "
                f"(stats or {sorted(_SUB_METRIC_ARROW)})"
            )
        plan.append((name, op, spec[op]["field"]))
    return plan


def _intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elements of sorted ``a`` that are in sorted ``b``: one binary
    search into ``b`` per element of ``a`` (pass the smaller set as ``a``)."""
    if b.size == 0:
        return b
    pos = np.searchsorted(b, a).clip(max=b.size - 1)
    return a[b[pos] == a]


def _topk_with_ties(doc_ids: np.ndarray, scores: np.ndarray, k: int) -> list[tuple[int, float]]:
    """Top-k by (score desc, doc_id asc) without fully sorting all docs."""
    n = scores.size
    if n == 0:
        return []
    if n > 4 * k:
        kth_val = -np.partition(-scores, k - 1)[k - 1]
        # keep everything ≥ kth score so doc-id tie-break at the boundary is exact
        sel = np.flatnonzero(scores >= kth_val)
        doc_ids, scores = doc_ids[sel], scores[sel]
    order = np.lexsort((doc_ids, -scores))[:k]
    return [(int(doc_ids[i]), float(scores[i])) for i in order]


class QueryEngine:
    def __init__(self, index_dir: str, preload_bytes: int = 2 << 30,
                 postings_cache_bytes: int = 256 << 20,
                 dict_budget_bytes: int = 1 << 30):
        from collections import OrderedDict

        with open(os.path.join(index_dir, MANIFEST_NAME)) as f:
            self.manifest = json.load(f)
        self.index_dir = index_dir
        self.n_docs = int(self.manifest["n_docs"])
        self.avgdl = float(self.manifest["avgdl"])
        self.analyzer = Analyzer(self.manifest.get("analyzer_mode", "code"))
        # the indexed text field's source column (None on legacy manifests)
        self.text_field = self.manifest.get("text_field")
        # file list comes FROM the manifest (not a glob): slices become
        # visible only at the atomic manifest flip, so a crashed/partial
        # segment add can never serve half-finalized postings. Each file
        # carries its slice id for SCOPED tombstones (updates kill only
        # copies in slices older than the re-add).
        import re

        pairs = sorted(
            (
                os.path.join(index_dir, s["dir"], "postings", p["path"]),
                int(re.search(r"(\d+)$", s["dir"]).group(1)),
            )
            for s in self.manifest["slices"]
            for p in s["partitions"]
        )
        files = [f for f, _ in pairs]
        self._files = files
        self._file_slice = [sid for _, sid in pairs]
        # A serving engine instance (one per query actor) holds the term
        # dictionary in memory always, and — when the index fits
        # ``preload_bytes`` — the posting tables too (Lucene keeps them
        # mmapped; per-query parquet take() across many part files costs
        # hundreds of ms). Larger indexes fall back to on-disk take().
        total = sum(os.path.getsize(f) for f in files)
        self._preloaded = total <= preload_bytes
        self._tables: list[pa.Table] | None = [] if self._preloaded else None
        self._datasets = None if self._preloaded else [pads.dataset(f, format="parquet") for f in files]
        # Term dictionary: each part file is term-SORTED (build's lexsort),
        # so the dictionary is just each file's Arrow term column + binary
        # search — no O(vocab) Python loop, no per-actor Python dict.
        self._term_cols: list[pa.Array] = []
        for fi, f in enumerate(files):
            if self._preloaded:
                tbl = pq.read_table(f, columns=DECODE_COLUMNS)
                self._tables.append(tbl)
                self._term_cols.append(tbl["term"].combine_chunks())
            else:
                self._term_cols.append(
                    pq.read_table(f, columns=["term"])["term"].combine_chunks()
                )
        # global term dictionary (stats.parquet, term-sorted): eager
        # in-RAM Arrow bisect when it fits dict_budget_bytes, else a
        # row-group-pruned lazy view — the 10^9-vocab serving path
        # (see index/termdict.py)
        from .termdict import TermDictionary

        self._dict = TermDictionary(
            os.path.join(index_dir, "stats.parquet"), budget_bytes=dict_budget_bytes
        )
        self._docmap_parts = [
            (
                int(re.search(r"(\d+)$", s["dir"]).group(1)),
                sorted(glob(os.path.join(index_dir, s["dir"], "docmap", "*.parquet"))),
            )
            for s in self.manifest["slices"]
        ]
        docmap = sorted(f for _, fs in self._docmap_parts for f in fs)
        self._docmap = pads.dataset(docmap, format="parquet") if docmap else None
        # The docmap counts against the same preload_bytes budget: when it
        # fits next to the preloaded postings, its columns are held in
        # memory (each loaded on first use); a larger docmap is scanned
        # per request with predicate pushdown.
        used = total if self._preloaded else 0
        self.docmap_in_memory = sum(os.path.getsize(f) for f in docmap) <= preload_bytes - used
        self._dm_schema: pa.Schema | None = None
        self._dm_ids: np.ndarray | None = None  # sorted live doc ids
        self._dm_take: pa.Array | None = None  # their rows in the file-order docmap
        self._dm_cols: dict[str, pa.Array] = {}
        # The one postings cache: term -> decoded (docs, tfs, dls), docs
        # sorted by id, tombstones applied; LRU, byte-capped by
        # postings_cache_bytes (the newest entry always stays). Varint
        # decode is the serving path's dominant cost, and repeated query
        # vocabulary hits the cache; cache_stats() reports the counters.
        self._cache: OrderedDict[str, tuple] = OrderedDict()
        self._cache_bytes = 0
        self._cache_cap = int(postings_cache_bytes)
        self._cache_hits = self._cache_misses = self._cache_evictions = 0
        self.store_positions = bool(self.manifest.get("store_positions", False))
        self._positions_ds = None  # lazy: only phrase queries open the sidecar
        # tombstones (Lucene .liv analogue): docs filtered at decode time;
        # global stats (n_docs/avgdl/df) stay STALE until compaction —
        # exactly Lucene's delete-before-merge semantics, so a delete
        # never changes a live doc's BM25 score.
        from .lifecycle import load_tombstones

        self.deleted, self._del_lf = load_tombstones(index_dir, self.manifest)

    # ---------- postings access ----------

    def _live(self, docs: np.ndarray, slices) -> np.ndarray:
        """Scoped-tombstone survival mask (see lifecycle.live_mask)."""
        from .lifecycle import live_mask

        return live_mask(docs, slices, self.deleted, self._del_lf)

    def df(self, term: str) -> int:
        return self._dict.df(term)

    def chunks_for(self, terms: list[str]) -> pa.Table:
        """The chunk rows (``DECODE_COLUMNS`` + ``slice``) of ``terms``."""
        by_file: dict[int, list[int]] = {}
        for t in terms:
            for fi, col in enumerate(self._term_cols):
                lo = _arrow_bisect(col, t, "left")
                hi = _arrow_bisect(col, t, "right")
                if hi > lo:
                    by_file.setdefault(fi, []).extend(range(lo, hi))
        if not by_file:
            return POSTINGS_SCHEMA.empty_table().select(DECODE_COLUMNS).append_column(
                "slice", pa.array([], pa.int64())
            )
        parts = []
        for fi, rows in sorted(by_file.items()):
            if self._preloaded:
                t = self._tables[fi].take(sorted(rows))
            else:
                t = self._datasets[fi].take(sorted(rows), columns=DECODE_COLUMNS)
            parts.append(
                t.append_column(
                    "slice",
                    pa.array(np.full(t.num_rows, self._file_slice[fi], np.int64)),
                )
            )
        return pa.concat_tables(parts)

    def term_arrays(self, term: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decoded (docs, tfs, dls) of one term across all part files,
        sorted by doc id (read-only, shared with the cache)."""
        return self._postings([term])[term]

    def _postings(self, terms: list[str]) -> dict[str, tuple]:
        """``term_arrays`` of each of ``terms`` through the cache; the
        misses are read with one ``chunks_for`` and one bulk decode."""
        out: dict[str, tuple] = {}
        misses = []
        for t in dict.fromkeys(terms):
            hit = self._cache.get(t)
            if hit is None:
                misses.append(t)
            else:
                self._cache.move_to_end(t)
                out[t] = hit
        self._cache_hits += len(out)
        self._cache_misses += len(misses)
        if not misses:
            return out
        from . import segments

        chunks = self.chunks_for(misses)
        docs, tfs, dls, off = segments.decode_chunks_bulk(chunks, int(self.manifest.get("block_size", 128)))
        counts = np.diff(off)
        # each posting's term, as its index in ``misses``
        tix = np.repeat(pc.index_in(chunks["term"], value_set=pa.array(misses, pa.string())).to_numpy(), counts)
        if self.deleted.size:
            keep = self._live(docs, np.repeat(chunks["slice"].to_numpy(), counts))
            docs, tfs, dls, tix = docs[keep], tfs[keep], dls[keep], tix[keep]
        # a doc gets one contribution per term, added in term order, so
        # sorting within a term (stable: ties keep the chunks' row order)
        # leaves every BM25 sum bit-identical
        order = np.lexsort((docs, tix))
        bounds = np.searchsorted(tix[order], np.arange(len(misses) + 1))
        for i, t in enumerate(misses):
            sel = order[bounds[i]:bounds[i + 1]]
            entry = (docs[sel], tfs[sel], dls[sel])
            for a in entry:
                a.setflags(write=False)
            out[t] = entry
            self._cache[t] = entry
            self._cache_bytes += sum(a.nbytes for a in entry)
        while self._cache_bytes > self._cache_cap and len(self._cache) > 1:
            _, ev = self._cache.popitem(last=False)
            self._cache_bytes -= sum(a.nbytes for a in ev)
            self._cache_evictions += 1
        return out

    def cache_stats(self) -> dict[str, int]:
        """Counters of the postings cache: lookups that hit and missed,
        entries evicted, bytes and entries held, and the byte cap."""
        return {
            "hits": self._cache_hits,
            "misses": self._cache_misses,
            "evictions": self._cache_evictions,
            "bytes": self._cache_bytes,
            "entries": len(self._cache),
            "cap_bytes": self._cache_cap,
        }

    # ---------- BM25 ----------

    def query_terms(self, query: str) -> list[str]:
        return sorted(set(self.analyzer.tokens(query)))

    def bm25_topk(self, query: str, k: int = 10) -> list[tuple[int, float]]:
        docs, scores = self.bm25_scores(query)
        return _topk_with_ties(docs, scores, k)

    def bm25_scores(self, query: str) -> tuple[np.ndarray, np.ndarray]:
        """Full exact BM25 accumulation: (sorted matching doc_ids, their
        scores) — the building block every ranked query scores from."""
        terms = self.query_terms(query)
        docs_parts, imp_parts = [], []
        for t in terms:
            docs_t, tfs_t, dls_t = self.term_arrays(t)
            if docs_t.size == 0:
                continue
            w = float(bm25_idf(self.df(t), self.n_docs))
            docs_parts.append(docs_t)
            imp_parts.append(w * tf_norm(tfs_t, dls_t, self.avgdl))
        if not docs_parts:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        docs = np.concatenate(docs_parts)
        imps = np.concatenate(imp_parts)
        max_doc = int(docs.max()) if docs.size else 0
        if max_doc < 4 * self.n_docs:
            # dense doc-id space → bincount accumulation (no sort)
            scores = np.bincount(docs, weights=imps, minlength=max_doc + 1)
            hit = np.flatnonzero(np.bincount(docs, minlength=max_doc + 1))
            return hit.astype(np.int64), scores[hit]
        uniq, inv = np.unique(docs, return_inverse=True)
        scores = np.zeros(uniq.size, dtype=np.float64)
        np.add.at(scores, inv, imps)
        return uniq.astype(np.int64), scores

    # ---------- Boolean ----------

    def conjunctive(self, query: str) -> np.ndarray:
        """Sorted doc_ids containing ALL query terms (filter context,
        SURVEY.md §2.A2 — ``ParseUtils.java:321,370-376``): the cached
        sorted doc arrays intersected rarest term first."""
        terms = sorted(self.query_terms(query), key=self.df)
        if not terms:
            return np.empty(0, dtype=np.int64)
        result = self.term_docs(terms[0])
        for t in terms[1:]:
            if result.size == 0:
                break
            result = _intersect_sorted(result, self.term_docs(t))
        return result

    def term_docs(self, term: str) -> np.ndarray:
        return self.term_arrays(term)[0]

    def prefix_terms(self, prefix: str, max_expansions: int | None = None) -> list[str]:
        """Dictionary terms starting with ``prefix`` — a binary-search
        range over the term-sorted global stats (the reason the
        dictionary is stored sorted), like Lucene's TermRangeEnum."""
        terms: list[str] = []
        for sl in self._dict.iter_slices(prefix):
            terms.extend(sl.to_pylist())
            if max_expansions is not None and len(terms) >= max_expansions:
                break  # slices arrive in term order — Lucene keeps first-N
        if max_expansions is not None:
            terms = terms[:max_expansions]
        return terms

    def prefix_docs(self, prefix: str, max_expansions: int | None = None) -> np.ndarray:
        """Sorted doc_ids containing ANY term with the given prefix
        (filter-context prefix query): dictionary range scan → union of
        the matched terms' postings."""
        return self.union_docs(self.prefix_terms(prefix, max_expansions))

    def union_docs(self, terms: list[str]) -> np.ndarray:
        """Sorted doc_ids containing ANY of ``terms`` (multi-term query
        rewrite: postings union), read through the postings cache."""
        parts = [p[0] for p in self._postings(terms).values()]
        if len(parts) <= 1:
            return parts[0] if parts else np.empty(0, dtype=np.int64)
        cat = np.concatenate(parts)
        if cat.size == 0:
            return cat
        mx = int(cat.max())
        if mx < 8 * max(self.n_docs, 1):
            # dense id space: bitmap dedup is O(n), no sort
            flags = np.zeros(mx + 1, dtype=bool)
            flags[cat] = True
            return np.flatnonzero(flags).astype(np.int64)
        return np.unique(cat)

    # ---------- multi-term queries (wildcard / regexp / fuzzy) ----------

    def _scan_terms(self, prefix: str, anchored_regex: str,
                    max_expansions: int | None = None) -> list[str]:
        """Dictionary terms matching an anchored regex, scanning only the
        ``prefix``-bounded range of the sorted vocabulary — one vectorized
        RE2 match over the Arrow slice (see termscan module docstring)."""
        terms: list[str] = []
        for sl in self._dict.iter_slices(prefix):
            terms.extend(
                sl.filter(pc.match_substring_regex(sl, anchored_regex)).to_pylist()
            )
            if max_expansions is not None and len(terms) >= max_expansions:
                break  # first-N in term order (Lucene); slices are ordered
        if max_expansions is not None:
            terms = terms[:max_expansions]
        return terms

    def wildcard_terms(self, pattern: str, max_expansions: int | None = None) -> list[str]:
        """Lucene WildcardQuery: ``*`` = any run, ``?`` = one char."""
        from .termscan import wildcard_prefix, wildcard_to_regex

        return self._scan_terms(
            wildcard_prefix(pattern), wildcard_to_regex(pattern), max_expansions
        )

    def wildcard_docs(self, pattern: str, max_expansions: int | None = None) -> np.ndarray:
        return self.union_docs(self.wildcard_terms(pattern, max_expansions))

    def regexp_terms(self, pattern: str, max_expansions: int | None = None) -> list[str]:
        """Lucene RegexpQuery: the pattern must match the WHOLE term
        (anchored). Both this engine (Arrow) and the DuckDB oracle run
        RE2, so semantics agree by construction."""
        from .termscan import regexp_prefix

        return self._scan_terms(
            regexp_prefix(pattern), f"^(?:{pattern})$", max_expansions
        )

    def regexp_docs(self, pattern: str, max_expansions: int | None = None) -> np.ndarray:
        return self.union_docs(self.regexp_terms(pattern, max_expansions))

    def fuzzy_terms(
        self,
        term: str,
        fuzziness: int | str = "AUTO",
        prefix_length: int = 0,
        transpositions: bool = False,
        max_expansions: int | None = 50,
    ) -> list[str]:
        """Lucene FuzzyQuery rewrite: dictionary terms within
        ``fuzziness`` edits of ``term`` (AUTO = 0/1/2 by term length),
        sharing its first ``prefix_length`` chars, closest-first (ties in
        term order) capped at ``max_expansions``. ``transpositions=True``
        = OSA distance (``transpositions=False`` is the
        DuckDB-``levenshtein`` exact oracle mode). The ``prefix_length``
        range of the dictionary is walked as a trie
        (``termscan.fuzzy_expand``): one DP row per distinct live prefix,
        never per term, and only the kept terms become Python strings."""
        from .termscan import _rank_matches, auto_fuzziness, fuzzy_expand

        max_edits = auto_fuzziness(term) if fuzziness == "AUTO" else int(fuzziness)
        pre = term[: max(0, int(prefix_length))]
        terms, dist, _ = fuzzy_expand(self._dict.iter_ranges(pre), term, max_edits,
                                      transpositions)
        # closest-first ranking runs over ALL slices' matches (Lucene's
        # FuzzyQuery boosts by edit distance across the whole enum)
        return terms.take(pa.array(_rank_matches(dist, max_expansions))).to_pylist()

    def fuzzy_docs(self, term: str, **kwargs) -> np.ndarray:
        return self.union_docs(self.fuzzy_terms(term, **kwargs))

    # ---------- phrase queries (positional sidecar) ----------

    def _position_keys(self, terms: list[str]) -> dict[str, np.ndarray]:
        """term → sorted int64 keys ``(doc_id << 32) | position`` from the
        positional sidecar (``build_index(store_positions=True)``). The
        sidecar is term-hash partitioned and term-sorted per part, so the
        read prunes to the query terms' row groups."""
        if not self.store_positions:
            raise ValueError(
                "index was built without store_positions=True; phrase queries unavailable"
            )
        if self._positions_ds is None:
            import re
            from glob import glob as _glob

            self._positions_ds = [
                (
                    int(re.search(r"(\d+)$", s["dir"]).group(1)),
                    pads.dataset(files, format="parquet"),
                )
                for s in self.manifest["slices"]
                if (files := sorted(_glob(
                    os.path.join(self.index_dir, s["dir"], "positions", "*.parquet")
                )))
            ]
        term_filter = pads.field("term").isin(list(set(terms)))
        parts = []
        for sid, ds in self._positions_ds:
            t = ds.to_table(filter=term_filter)
            if self.deleted.size and t.num_rows:
                keep = self._live(t["doc_id"].to_numpy().astype(np.int64), sid)
                t = t.filter(pa.array(keep))
            parts.append(t)
        tbl = pa.concat_tables(parts) if parts else None
        if tbl is None:
            return {t: np.empty(0, dtype=np.int64) for t in set(terms)}
        out: dict[str, np.ndarray] = {}
        for t in set(terms):
            sub = tbl.filter(pc.equal(tbl["term"], t))
            lst = sub["positions"].combine_chunks()
            pos = lst.values.to_numpy(zero_copy_only=False).astype(np.int64)
            counts = np.diff(lst.offsets.to_numpy(zero_copy_only=False).astype(np.int64))
            docs = np.repeat(sub["doc_id"].to_numpy().astype(np.int64), counts)
            out[t] = np.sort((docs << np.int64(32)) | pos)
        return out

    def phrase(self, query: str, slop: int = 0) -> np.ndarray:
        """Sorted doc_ids whose analyzed token stream contains the query
        tokens CONSECUTIVELY (match_phrase, filter context). One
        vectorized key-walk verifies adjacency across every candidate
        doc at once: start from the first term's (doc, pos) keys and
        keep those whose successor key exists for each following term —
        no per-doc loop, no text access.

        ``slop > 0`` relaxes to IN-ORDER proximity: the terms must appear
        in query order within a window of ``len(terms)-1+slop`` positions
        (∃ p_1<…<p_k with p_k−p_1 ≤ k−1+slop). This is the in-order
        subset of Lucene's sloppy phrase — the reordering-at-cost-2 moves
        Lucene also accepts are deliberately NOT matched (documented
        divergence; in-order-within-window is the semantics the SQL twin
        can state exactly). Vectorized greedy chain: from every start
        position, hop to each next term's EARLIEST later occurrence
        (searchsorted) — greedy minimizes the end for a fixed start, so
        the window test is exact."""
        terms = self.analyzer.tokens(query)
        if not terms:
            return np.empty(0, dtype=np.int64)
        if len(terms) == 1:
            return self.term_docs(terms[0])
        keys = self._position_keys(terms)
        if slop <= 0:
            s = keys[terms[0]]
            for i, t in enumerate(terms[1:], start=1):
                if s.size == 0:
                    break
                s = s[np.isin(s + np.int64(i), keys[t], assume_unique=False)]
            return np.unique(s >> np.int64(32)).astype(np.int64)
        cur = keys[terms[0]]
        start = cur
        for t in terms[1:]:
            if cur.size == 0:
                break
            nxt = keys[t]
            if nxt.size == 0:
                cur = start = cur[:0]
                break
            idx = np.searchsorted(nxt, cur + np.int64(1), side="left")
            ok = idx < nxt.size
            cand = nxt[np.minimum(idx, nxt.size - 1)]
            ok &= (cand >> np.int64(32)) == (cur >> np.int64(32))
            cur, start = cand[ok], start[ok]
        m = (cur - start) <= np.int64(len(terms) - 1 + slop)
        return np.unique(start[m] >> np.int64(32)).astype(np.int64)

    def phrase_prefix(self, query: str, max_expansions: int | None = 50) -> np.ndarray:
        """match_phrase_prefix (autocomplete): the query's last token is a
        PREFIX — it expands to dictionary terms (first ``max_expansions``
        in term order, Lucene semantics; ``None`` = all, the exact-twin
        mode) and the phrase key-walk's final step accepts any of them."""
        terms = self.analyzer.tokens(query)
        if not terms:
            return np.empty(0, dtype=np.int64)
        expansions = self.prefix_terms(terms[-1], max_expansions)
        if not expansions:
            return np.empty(0, dtype=np.int64)
        if len(terms) == 1:
            return self.union_docs(expansions)
        keys = self._position_keys(terms[:-1] + expansions)
        last_keys = np.unique(np.concatenate([keys[t] for t in expansions]))
        s = keys[terms[0]]
        for i, t in enumerate(terms[1:-1], start=1):
            if s.size == 0:
                break
            s = s[np.isin(s + np.int64(i), keys[t])]
        if s.size:
            s = s[np.isin(s + np.int64(len(terms) - 1), last_keys)]
        return np.unique(s >> np.int64(32)).astype(np.int64)

    # ---------- docmap (metadata columns) ----------

    def docmap(self) -> pads.Dataset:
        if self._docmap is None:
            raise FileNotFoundError("index has no docmap")
        return self._docmap

    def _has_docmap(self) -> bool:
        """False for a legitimately-empty index (e.g. compacted after
        deleting everything), which has zero docmap rows."""
        if self._docmap is None and self.n_docs != 0:
            raise FileNotFoundError("index has no docmap")
        return self._docmap is not None

    def docmap_schema(self) -> pa.Schema:
        """Union of the docmap files' schemas (update files need not
        repeat every keep_col); only ``doc_id`` without docmap files."""
        if self._dm_schema is None:
            schemas = [pq.read_schema(f) for _, fs in self._docmap_parts for f in fs]
            self._dm_schema = (pa.unify_schemas(schemas) if schemas
                               else pa.schema([("doc_id", pa.int64())]))
        return self._dm_schema

    def is_docmap_field(self, field: str) -> bool:
        return field in self.docmap_schema().names

    def live_ids(self) -> np.ndarray:
        """Sorted doc ids of the live docmap rows (scoped tombstones
        applied), read once per engine — an engine serves one manifest
        generation."""
        if self._dm_ids is None:
            if not self._has_docmap():
                self._dm_ids = np.empty(0, dtype=np.int64)
            elif self.docmap_in_memory:
                parts = [(sid, pq.read_table(f, columns=["doc_id"])["doc_id"])
                         for sid, fs in self._docmap_parts for f in fs]
                ids = np.concatenate([c.to_numpy() for _, c in parts]).astype(np.int64)
                rows = np.arange(ids.size)
                if self.deleted.size:
                    slices = np.repeat([sid for sid, _ in parts], [len(c) for _, c in parts])
                    rows = rows[self._live(ids, slices)]
                rows = rows[np.argsort(ids[rows], kind="stable")]
                self._dm_take = pa.array(rows)
                self._dm_ids = ids[rows]
            else:
                t = self.live_docmap(columns=["doc_id"])
                self._dm_ids = np.sort(t["doc_id"].to_numpy().astype(np.int64))
        return self._dm_ids

    def docmap_column(self, field: str) -> pa.Array:
        """``field`` of every live docmap row, aligned with
        :meth:`live_ids`. In memory: read once across the slices, null
        where a file lacks the column. Over budget: one scan per call."""
        col = self._dm_cols.get(field)
        if col is not None:
            return col
        if not (self.docmap_in_memory and self._has_docmap()):
            return self.docmap_rows([field])[field].combine_chunks()
        if field == "doc_id":
            col = pa.array(self.live_ids())
        else:
            self.live_ids()  # sets the live row selection
            typ = self.docmap_schema().field(field).type
            parts = []
            for _, fs in self._docmap_parts:
                for f in fs:
                    have = field in pq.read_schema(f).names
                    t = pq.read_table(f, columns=[field] if have else [])
                    parts.append(t[field].cast(typ) if have else
                                 pa.chunked_array([pa.nulls(t.num_rows, typ)]))
            col = pa.chunked_array([c for p in parts for c in p.chunks], typ)
            col = col.take(self._dm_take).combine_chunks()
        self._dm_cols[field] = col
        return col

    def docmap_rows(self, columns: list[str], docs: np.ndarray | None = None) -> pa.Table:
        """Live docmap rows in doc_id order — ``doc_id`` plus ``columns``
        — for the sorted doc-id array ``docs`` (None = every live row).
        In memory the rows are found by binary search on the cached
        doc_id column; over budget by one pushdown scan."""
        cols = [c for c in dict.fromkeys(columns) if c != "doc_id"]
        if not self._has_docmap():
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             **{c: pa.nulls(0) for c in cols}})
        if not self.docmap_in_memory:
            filt = None if docs is None else pc.field("doc_id").isin(docs)
            t = self.live_docmap(columns=["doc_id", *cols], filter=filt)
            return t.take(pa.array(np.argsort(t["doc_id"].to_numpy(), kind="stable")))
        ids = self.live_ids()
        pos = None
        if docs is not None:
            pos = np.minimum(np.searchsorted(ids, docs), max(ids.size - 1, 0))
            pos = pos[ids[pos] == docs] if ids.size else pos[:0]
        out = {"doc_id": pa.array(ids if pos is None else ids[pos])}
        for c in cols:
            col = self.docmap_column(c)
            out[c] = col if pos is None else col.take(pa.array(pos))
        return pa.table(out)

    def live_docmap(self, columns: list[str], filter=None) -> pa.Table:
        """Docmap restricted to live rows (scoped tombstones applied per
        slice) by a per-slice parquet scan — the path of a docmap over
        the engine's ``preload_bytes`` budget.

        ``columns``/``filter`` push straight down into the per-slice
        parquet scan (row-group pruning + column projection), so a
        metadata predicate over a 10^12-doc corpus reads matching row
        groups of the needed columns, not the whole docmap. Requesting a
        column a slice lacks null-fills it (update files need not repeat
        every keep_col)."""
        if not self._has_docmap():
            return pa.schema([("doc_id", pa.int64())]).empty_table()
        if "doc_id" not in columns:
            columns = ["doc_id", *columns]  # tombstone filtering needs it
        # every file is read against the union schema: a column a file
        # lacks reads null with its TRUE type (a merged slice may hold
        # files of both kinds)
        target = self.docmap_schema()
        parts = []
        for sid, files in self._docmap_parts:
            if not files:
                continue
            ds = pads.dataset(files, format="parquet", schema=target)
            try:
                t = ds.to_table(columns=columns, filter=filter)
            except (pa.ArrowInvalid, KeyError):
                # predicate references a column no docmap file has → no
                # row can match it
                continue
            if self.deleted.size and t.num_rows:
                keep = self._live(t["doc_id"].to_numpy().astype(np.int64), sid)
                t = t.filter(pa.array(keep))
            parts.append(t)
        if not parts:
            return pa.schema([target.field(c) for c in columns]).empty_table()
        return pa.concat_tables(parts, promote_options="default")

    # ---------- restricted query DSL (SURVEY §2.A4) ----------

    def execute_filter(self, query: dict | None) -> np.ndarray:
        """bool/term/range/match AST → sorted doc_ids (filter context)."""
        from .queryast import QueryCompiler

        if getattr(self, "_compiler", None) is None:
            self._compiler = QueryCompiler(self)
        return self._compiler.execute(query)

    def count(self, query: dict | None = None) -> int:
        """Hit count of a filter-DSL query (the _count API)."""
        return int(self.execute_filter(query).size)

    def index_stats(self) -> dict:
        """The _stats/_cat-indices surface: corpus + segment shape and
        on-disk size, straight from the manifest (no postings access)."""
        return {
            "n_docs": self.n_docs,
            "n_deleted": int(self.deleted.size),
            "n_terms": int(self.manifest.get("n_terms", 0)),
            "avgdl": self.avgdl,
            "total_tokens": int(self.manifest.get("total_tokens", 0)),
            "n_slices": len(self.manifest["slices"]),
            "n_partitions": len(self._files),
            "postings_bytes": int(sum(os.path.getsize(f) for f in self._files)),
            "store_positions": self.store_positions,
            "analyzer_mode": self.manifest.get("analyzer_mode", "code"),
        }

    def more_like_this(
        self,
        text: str,
        k: int = 10,
        max_query_terms: int = 25,
        min_term_freq: int = 1,
        min_doc_freq: int = 2,
        exclude_doc: int | None = None,
    ) -> list[tuple[int, float]]:
        """Lucene MoreLikeThis over ``like`` text: analyze, keep terms
        with tf ≥ min_term_freq and df ≥ min_doc_freq, rank by the
        classic tf·idf interestingness (ties by term), take the top
        ``max_query_terms``, then run disjunctive BM25 top-k with that
        term set (our exact scorer IS the should-OR accumulation).
        ``exclude_doc`` drops the source doc from the results (MLT's
        include=false default)."""
        from collections import Counter

        import math

        tf = Counter(self.analyzer.tokens(text))
        scored = []
        for t, f in tf.items():
            if f < min_term_freq:
                continue
            df = self.df(t)
            if df < min_doc_freq:
                continue
            scored.append((-(f * math.log(max(self.n_docs, 1) / df)), t))
        scored.sort()
        terms = sorted(t for _, t in scored[:max_query_terms])
        if not terms:
            return []
        hits = self.bm25_topk(" ".join(terms), k + (1 if exclude_doc is not None else 0))
        if exclude_doc is not None:
            hits = [(d, s) for d, s in hits if d != exclude_doc][:k]
        return hits

    # ---------- aggregations over a hit set ----------
    # Every aggregation takes ``docs``, the sorted doc-id array of the
    # request's hits (``execute_filter`` of a filter query, or the set
    # ``search`` counts in ``hits.total``), so one request evaluates its
    # query once however many aggregations it carries.

    def _agg_values(self, docs: np.ndarray | None, field: str) -> pa.ChunkedArray:
        """Non-null ``field`` values of the ``docs`` rows (None = all)."""
        return pc.drop_null(self.docmap_rows([field], docs)[field])

    def _agg_floats(self, docs: np.ndarray, field: str) -> np.ndarray:
        return self._agg_values(docs, field).to_numpy().astype(np.float64)

    def terms_agg(self, docs: np.ndarray, field: str, size: int = 10,
                  sub_aggs: dict | None = None, order: dict | None = None) -> list[dict]:
        """Terms aggregation over ``docs``: the top-``size`` buckets of a
        docmap column, each ``{"key", "doc_count"}`` plus its nested
        metric SUB-AGGREGATIONS keyed by name — the reference's central
        agg composition (a terms/composite bucket per entity wrapping
        per-feature metric aggs, the shape
        ``AbstractRetriever.parseBucket`` consumes and ParseUtils
        generates; without sub-aggs it is the facet OpenSearch pairs
        with every search). ``order`` follows OpenSearch terms-agg
        ordering (see :func:`_terms_ranking`; default doc_count desc,
        key asc). Missing values drop out of the buckets (OpenSearch's
        default). One column-pruned scan and one Arrow group_by serve
        every metric; the buckets are ranked in Arrow and only the
        returned ones become Python dicts."""
        sub_aggs = sub_aggs or {}
        top_hits = {n: s["top_hits"] for n, s in sub_aggs.items()
                    if isinstance(s, dict) and "top_hits" in s}
        plan = _sub_agg_plan({n: s for n, s in sub_aggs.items() if n not in top_hits})
        th_fields = {f for th in top_hits.values()
                     for f, _ in _parse_sort_keys(th.get("sort"))}
        t = self.docmap_rows(sorted({field, *(f for _, _, f in plan), *th_fields}), docs)
        t = t.filter(pc.is_valid(t[field]))
        g = self._grouped(t, plan, (field,))
        rows = g.take(_terms_ranking(g, field, order, plan)[:size]).to_pylist()
        buckets = [{"key": r[field], **self._bucket(r, plan)} for r in rows]
        if top_hits:
            self._attach_top_hits(t, field, buckets, top_hits)
        return buckets

    def metric_agg(self, docs: np.ndarray, field: str, op: str):
        """Metric aggregation over ``docs`` — the min/max/avg/sum/
        value_count/cardinality/stats/extended_stats aggs OpenSearch
        pairs with searches (the reference issues these shapes over its
        result indices, e.g. the max-ts agg in ``SearchFeatureDao``);
        values per :func:`_metric_value`, from direct Arrow kernels."""
        valid = self._agg_values(docs, field)
        if op == "extended_stats":
            n = int(len(valid))
            if n == 0:
                return {"count": 0, "min": None, "max": None, "avg": None,
                        "sum": 0.0, "sum_of_squares": 0.0, "variance": None,
                        "std_deviation": None, "std_deviation_bounds": None}
            v = valid.to_numpy().astype(np.float64)
            avg = float(v.mean())
            var = float(v.var())  # population variance, like OpenSearch
            std = float(np.sqrt(var))
            return {
                "count": n,
                "min": float(v.min()),
                "max": float(v.max()),
                "avg": avg,
                "sum": float(v.sum()),
                "sum_of_squares": float((v * v).sum()),
                "variance": var,
                "std_deviation": std,
                "std_deviation_bounds": {"upper": avg + 2 * std,
                                         "lower": avg - 2 * std},
            }
        if op != "stats" and op not in _SUB_METRIC_ARROW:
            raise ValueError(f"unsupported metric aggregation {op!r}")
        return _metric_value(op, len(valid), lambda k: getattr(pc, k)(valid).as_py())

    def histogram_agg(self, docs: np.ndarray, field: str, rule,
                      sub_aggs: dict | None = None, min_doc_count: int = 0) -> list[dict]:
        """Histogram-family aggregation: buckets keyed by ``rule.keys`` of
        the docs' column (:class:`_FixedWidth` for ``histogram`` and a
        ``fixed_interval`` date_histogram, :class:`_Calendar` for a
        ``calendar_interval`` one), each with its nested metric
        sub-aggregations. Empty buckets between populated ones
        (``rule.fill``) are emitted with the empty-set metric values
        unless ``min_doc_count`` > 0, matching min_doc_count=0's default
        gap-filling."""
        plan = _sub_agg_plan(sub_aggs or {})
        t = self.docmap_rows(sorted({field, *(f for _, _, f in plan)}), docs)
        t = t.filter(pc.is_valid(t[field]))
        if t.num_rows == 0:
            return []
        keys = rule.keys(t[field].to_numpy(zero_copy_only=False))
        g = self._grouped(t.append_column("__key", pa.array(keys)), plan)
        by_key = {r["__key"]: r for r in g.to_pylist()}
        ks = sorted(by_key)
        if min_doc_count <= 0:
            ks = rule.fill(ks[0], ks[-1]).tolist()
        else:
            ks = [k for k in ks if by_key[k]["doc_id_count"] >= min_doc_count]
        return [{"key": k, **self._bucket(by_key.get(k, {}), plan)} for k in ks]

    def range_agg(self, docs: np.ndarray, field: str, ranges: list[dict],
                  sub_aggs: dict | None = None) -> list[dict]:
        """Range aggregation: explicit [from, to) buckets (half-open like
        OpenSearch; either bound optional) over the docs' column, each
        with its nested metric sub-aggregations. Buckets may overlap —
        each aggregates its own rows, exactly like OpenSearch; one Arrow
        group_by over the (bucket, row) pairs serves them all."""
        plan = _sub_agg_plan(sub_aggs or {})
        t = self.docmap_rows(sorted({field, *(f for _, _, f in plan)}), docs)
        t = t.filter(pc.is_valid(t[field]))
        vals = t[field].to_numpy(zero_copy_only=False).astype(np.float64)
        inside = np.ones((len(ranges), vals.size), dtype=bool)
        for i, r in enumerate(ranges):
            if r.get("from") is not None:
                inside[i] &= vals >= float(r["from"])
            if r.get("to") is not None:
                inside[i] &= vals < float(r["to"])
        which, rows = np.nonzero(inside)
        g = self._grouped(t.take(rows).append_column("__key", pa.array(which)), plan)
        by_bucket = {r["__key"]: r for r in g.to_pylist()}
        out = []
        for i, r in enumerate(ranges):
            lo, hi = r.get("from"), r.get("to")
            key = r.get("key") or f"{'*' if lo is None else lo}-{'*' if hi is None else hi}"
            b = {"key": key, **self._bucket(by_bucket.get(i, {}), plan)}
            if lo is not None:
                b["from"] = float(lo)
            if hi is not None:
                b["to"] = float(hi)
            out.append(b)
        return out

    def percentiles_agg(self, docs: np.ndarray, field: str,
                        percents=(1, 5, 25, 50, 75, 95, 99)) -> dict:
        """Percentiles aggregation over the matching docs' column —
        OpenSearch's default percents and response shape
        ({"values": {"50.0": v, …}}). EXACT (numpy linear interpolation)
        where OpenSearch serves a t-digest approximation — same contract,
        documented difference (the events-side feature aggs offer the
        mergeable t-digest variant, ``functions/sketches.py``)."""
        vals = self._agg_floats(docs, field)
        if vals.size == 0:
            return {"values": {f"{float(p)}": None for p in percents}}
        qs = np.percentile(vals, list(percents))
        return {"values": {f"{float(p)}": float(v) for p, v in zip(percents, qs)}}

    def suggest_terms(self, text: str, size: int = 5, max_edits: int = 2,
                      prefix_length: int = 1,
                      suggest_mode: str = "missing") -> list[dict]:
        """OpenSearch TERM SUGGESTER (the ``"suggest"`` envelope
        section): per analyzed token, dictionary terms within
        ``max_edits`` Levenshtein edits sharing the first
        ``prefix_length`` characters, ordered by (edit distance asc,
        doc freq desc, term asc) — OpenSearch's score-then-frequency
        default. ``suggest_mode="missing"`` (the default) suggests only
        for tokens absent from the index; ``"always"`` suggests for
        every token (the candidate never includes the token itself, the
        one term at distance 0). Candidates come from the fuzzy query's
        trie walk over the dictionary's prefix range
        (``termscan.fuzzy_expand``), so the lazy 10⁹-vocab mode prunes
        the same row groups a prefix query would, and only the returned
        options become Python strings."""
        from .termscan import fuzzy_expand

        if suggest_mode not in ("missing", "always"):
            raise ValueError(f"unsupported suggest_mode {suggest_mode!r}")
        out = []
        for tok in self.analyzer.tokens(text):
            entry = {"text": tok, "options": []}
            if not (suggest_mode == "missing" and self.df(tok) > 0):
                terms, dist, df = fuzzy_expand(
                    self._dict.iter_ranges(tok[:prefix_length]), tok, max_edits)
                other = np.flatnonzero(dist > 0)
                top = other[np.lexsort((-df[other], dist[other]))][:size]
                entry["options"] = [
                    {"text": t, "distance": int(dist[i]), "freq": int(df[i])}
                    for t, i in zip(terms.take(pa.array(top)).to_pylist(), top)
                ]
            out.append(entry)
        return out

    def percentile_ranks_agg(self, docs: np.ndarray, field: str,
                             values) -> dict:
        """percentile_ranks aggregation: for each given value, the
        percentage of the matching docs' column at or below it —
        OpenSearch's inverse-percentiles response shape
        ({"values": {"500.0": 55.1}}). EXACT where OpenSearch serves a
        t-digest approximation (same documented difference as
        :meth:`percentiles_agg`)."""
        vals = np.sort(self._agg_floats(docs, field))
        out = {}
        for v in values:
            if vals.size == 0:
                out[f"{float(v)}"] = None
            else:
                out[f"{float(v)}"] = float(
                    np.searchsorted(vals, float(v), side="right") / vals.size * 100.0
                )
        return {"values": out}

    def significant_terms_agg(self, docs: np.ndarray, field: str,
                              size: int = 10) -> list[dict]:
        """significant_terms over a keyword docmap column: terms
        overrepresented in the MATCHING docs (foreground) vs the whole
        live index (background), scored with OpenSearch's default JLH
        heuristic — (fg% − bg%) × (fg%/bg%), terms with fg% ≤ bg%
        dropped — top ``size`` by (score desc, key asc). Buckets carry
        doc_count (foreground), bg_count and score. Two Arrow
        value_counts serve the request."""
        bg = self._agg_values(None, field)
        fg = self._agg_values(docs, field)
        bg_total, fg_total = len(bg), len(fg)
        bg_counts = {d["values"]: d["counts"] for d in pc.value_counts(bg).to_pylist()}
        if fg_total == 0 or bg_total == 0:
            return []
        buckets = []
        for d in pc.value_counts(fg).to_pylist():
            term, fg_n = d["values"], d["counts"]
            bg_n = bg_counts[term]  # fg ⊆ bg, always present
            fg_pct = fg_n / fg_total
            bg_pct = bg_n / bg_total
            if fg_pct <= bg_pct:
                continue  # JLH keeps only overrepresented terms
            score = (fg_pct - bg_pct) * (fg_pct / bg_pct)
            buckets.append({"key": term, "doc_count": int(fg_n),
                            "bg_count": int(bg_n), "score": float(score)})
        buckets.sort(key=lambda b: (-b["score"], b["key"]))
        return buckets[:size]

    # -------------------------------------------------- sub-aggregations

    @staticmethod
    def _grouped(t: pa.Table, plan: list[tuple[str, str, str]],
                 keys: tuple[str, ...] = ("__key",)) -> pa.Table:
        """One Arrow ``group_by(keys)`` pass computing ``doc_id_count``
        plus every distinct (field, kernel) the sub-agg plan needs, each
        field's non-null ``count`` among them; one row per bucket."""
        aggs = {("doc_id", "count")}
        for _, op, f in plan:
            aggs.add((f, "count"))
            for o in (_STATS_KERNEL.values() if op == "stats" else (_SUB_METRIC_ARROW[op],)):
                aggs.add((f, o))
        return t.group_by(list(keys)).aggregate(sorted(aggs))

    @staticmethod
    def _bucket(row: dict, plan: list[tuple[str, str, str]]) -> dict:
        """A bucket's ``doc_count`` and sub-agg values from its group row
        (``{}`` for an empty bucket): single-value aggs → {"value": v},
        stats → the composite, per :func:`_metric_value`."""
        out = {"doc_count": int(row.get("doc_id_count", 0))}
        for name, op, f in plan:
            v = _metric_value(op, int(row.get(f"{f}_count") or 0),
                              lambda k, f=f: row[f"{f}_{k}"])
            out[name] = v if op == "stats" else {"value": v}
        return out

    @staticmethod
    def _attach_top_hits(t, field: str, buckets: list[dict],
                         top_hits: dict[str, dict]) -> None:
        """Restricted ``top_hits`` sub-aggregation: the top-N docs of
        each bucket by a FIELD sort (missing-last, doc_id tie-break; no
        sort → doc_id asc, the score-less filter-context order). One
        pandas sort + groupby-head serves all buckets."""
        import pandas as pd  # noqa: F401 (to_pandas())

        df_all = t.to_pandas()
        keys = {b["key"] for b in buckets}
        df_all = df_all[df_all[field].isin(keys)]
        for name, th in top_hits.items():
            n = int(th.get("size", 3))
            sort_keys = _parse_sort_keys(th.get("sort"))
            by = [f for f, _ in sort_keys] + ["doc_id"]
            asc = [a for _, a in sort_keys] + [True]
            d = df_all.sort_values(by=by, ascending=asc,
                                   na_position="last", kind="mergesort")
            groups = d.groupby(field, sort=False)
            per_key: dict = {}
            for key, g in groups:
                hits = []
                for rec in g.head(n).to_dict("records"):
                    h = {"_id": int(rec["doc_id"])}
                    if sort_keys:
                        h["sort"] = [
                            None if pd_isna(rec[f]) else _py_scalar(rec[f])
                            for f, _ in sort_keys
                        ]
                    hits.append(h)
                per_key[key] = hits
            for b in buckets:
                b[name] = {"hits": {
                    "total": {"value": b["doc_count"], "relation": "eq"},
                    "hits": per_key.get(b["key"], []),
                }}

    def composite_agg(self, docs: np.ndarray, sources: list[dict],
                      size: int = 10, after: dict | None = None,
                      sub_aggs: dict | None = None) -> dict:
        """Composite aggregation with after-key pagination — THE agg the
        reference drives HC detection with (``CompositeRetriever`` pages
        (entity…) buckets with per-feature metric sub-aggs,
        ``CompositeAggregationBuilder`` + afterKey). ``sources`` is the
        OpenSearch list-of-single-source-terms shape
        ``[{name: {"terms": {"field": f}}}, …]``; buckets come back in
        the total (source₁, source₂, …) ascending key order, ``after``
        resumes strictly past that key, and the response carries
        ``after_key`` = the last returned bucket's key (absent on the
        final page, like OpenSearch). Missing-value rows drop out
        (missing_bucket=false default). One pruned scan + one Arrow
        group_by serves every page request."""
        if not sources:
            raise ValueError("composite needs at least one source")
        names, fields = [], []
        for s in sources:
            ((name, spec),) = s.items()
            if "terms" not in spec:
                raise ValueError("composite sources support terms on a docmap column")
            names.append(name)
            fields.append(spec["terms"]["field"])
        plan = _sub_agg_plan(sub_aggs or {})
        t = self.docmap_rows(sorted({*fields, *(f for _, _, f in plan)}), docs)
        for f in fields:
            t = t.filter(pc.is_valid(t[f]))
        rows = self._grouped(t, plan, tuple(fields)).to_pylist()

        def key_tuple(r):
            return tuple(r[f] for f in fields)

        rows.sort(key=key_tuple)
        if after is not None:
            cursor = tuple(after[n] for n in names)
            rows = [r for r in rows if key_tuple(r) > cursor]
        page = rows[:size]
        buckets = []
        for r in page:
            kt = key_tuple(r)
            buckets.append({"key": dict(zip(names, kt)), **self._bucket(r, plan)})
        out = {"buckets": buckets}
        if buckets and len(rows) > size:
            out["after_key"] = dict(buckets[-1]["key"])
        return out

    def bm25_search_after(
        self, query: str, k: int = 10, search_after: tuple[int, float] | None = None
    ) -> list[tuple[int, float]]:
        """Deep pagination (OpenSearch ``search_after``): the next ``k``
        hits strictly after the cursor — the previous page's LAST HIT
        ``(doc_id, score)``, exactly as pages return them — in (score
        desc, doc_id asc) order. Page boundaries are exact because the
        sort key is total: paging through every hit reproduces the full
        ranking (tested). Scores every match, the same reason OpenSearch
        charges deep pagination linearly."""
        uniq, scores = _after_cursor(*self.bm25_scores(query), search_after)
        return _topk_with_ties(uniq, scores, k)


def _after_cursor(uniq: np.ndarray, scores: np.ndarray,
                  search_after: tuple[int, float] | None) -> tuple[np.ndarray, np.ndarray]:
    """The hits strictly after a ``(doc_id, score)`` cursor in (score
    desc, doc_id asc) order (all of them without a cursor)."""
    if search_after is None:
        return uniq, scores
    after_doc, after_score = int(search_after[0]), float(search_after[1])
    keep = (scores < after_score) | ((scores == after_score) & (uniq > after_doc))
    return uniq[keep], scores[keep]


def _match_text_and_default(body: dict) -> tuple[str, bool]:
    """Text of a ``match`` clause + whether it uses the DEFAULT operator
    semantics (operator=or, minimum_should_match absent/≤1). Long-form
    options change the HIT SET, not the per-doc BM25 score — ``boost``
    (handled by :func:`_match_boost`) changes neither. Percentage msm
    values ("75%") are valid OpenSearch requests — they classify as
    non-default here and are evaluated by filter context (queryast's
    parse_msm), never crashed on."""
    ((_f, spec),) = body.items()
    text = spec["query"] if isinstance(spec, dict) else str(spec)
    if not isinstance(spec, dict):
        return text, True
    msm = spec.get("minimum_should_match", 1)
    try:
        msm_default = int(msm) <= 1  # ints and plain "N" strings
    except (TypeError, ValueError):
        msm_default = False  # "75%" and friends → filter context decides
    return text, (spec.get("operator", "or") == "or" and msm_default)


def _match_boost(body: dict) -> float:
    """Long-form ``boost`` of a match clause (Lucene multiplies the
    clause's score by it; hit sets are unaffected)."""
    ((_f, spec),) = body.items()
    return float(spec.get("boost", 1.0)) if isinstance(spec, dict) else 1.0


def _split_scoring_clause(
    query: dict | None,
) -> tuple[str | None, list[tuple], dict | None, bool, float]:
    """Separate the SCORING part of an OpenSearch-shaped query from its
    filter-context remainder: a top-level ``match`` (or a bool whose
    ``must`` contains exactly one match) scores with BM25; everything
    else stays a filter. The composed bool(filter… ∧ must match) shape is
    exactly what the reference's ParseUtils generates
    (``ParseUtils.java:314-331``).

    A match with ``operator=and`` / ``minimum_should_match`` still scores
    with BM25 (docs matching all/enough terms have identical OR-sum and
    AND-sum scores — the non-matching terms contribute 0), but the HIT
    SET shrinks, so the clause itself stays in the filter-context
    residual: the scored page and ``hits.total`` are intersected with its
    conjunctive/msm semantics instead of silently widening to the OR
    match.

    Returns ``(required_text, optional_clauses, residual,
    union_defines_hits, text_boost)`` — ``text_boost`` is the required
    match's long-form ``boost`` (scores scale by it; hit sets don't):
    ``optional_clauses`` are scorable ``should`` clauses — they
    contribute ADDITIVE scores (Lucene's BooleanQuery sums every
    matching clause's score) but never define the hit set when a
    ``must``/filter is present (OpenSearch's msm-defaults-to-0 rule; the
    repo's queryast applies the same rule in filter context). A bool of
    ONLY scorable shoulds has no required text: the hit set is their
    union. Each entry is tagged: ``("match", text, constraint, boost)``
    scores additive BM25 × boost over the text (``constraint`` = the
    clause itself when operator/msm shrink its matching set),
    ``("leaf", clause)`` is a
    non-match leaf scored by :func:`_leaf_should_scores` (term → BM25 /
    norms-off idf; multi-term and set queries → Lucene's constant-score
    rewrite, 1.0). A should list containing any UNscorable clause
    (phrase, nested bool) falls back to filter context for the whole
    list — hit sets stay right, those scores read 1.0."""
    if not query:
        return None, [], None, False, 1.0
    ((kind, body),) = query.items()
    if kind == "match":
        text, default = _match_text_and_default(body)
        return text, [], (None if default else dict(query)), False, _match_boost(body)
    if kind == "bool":
        musts = list(body.get("must", []))
        scoring = [m for m in musts if isinstance(m, dict) and "match" in m]
        shoulds = list(body.get("should", []))
        # tag every scorable should clause; None marks an unscorable one
        optional: list[tuple] = []
        all_scorable = True
        for s in shoulds:
            tagged = _tag_clause(s)
            if tagged is None:
                all_scorable = False
            else:
                optional.append(tagged)
        msm_explicit = body.get("minimum_should_match") is not None
        if msm_explicit:
            # an explicit bool-level msm makes shoulds hit-set-defining —
            # leave them entirely to filter context, no additive scoring
            optional = []
        if len(scoring) == 1:
            text, default = _match_text_and_default(scoring[0]["match"])
            boost = _match_boost(scoring[0]["match"])
            residual = {k: v for k, v in body.items()}
            if default:
                # default-operator match: lift it out of the residual
                residual["must"] = [m for m in musts if m is not scoring[0]]
                if not residual["must"]:
                    residual.pop("must")
                if shoulds and not msm_explicit:
                    # with a must present, shoulds are scoring-only
                    # (OpenSearch msm-defaults-to-0); once the must is
                    # lifted the residual bool would reinterpret them as
                    # a required union — drop them (scores ride
                    # ``optional``)
                    residual.pop("should", None)
            # else: the match stays in the residual's must — filter
            # context applies its operator/msm while its text scores,
            # and the residual's must keeps its shoulds scoring-only
            return text, optional, ({"bool": residual} if residual else None), False, boost
        if not scoring and not msm_explicit and optional and all_scorable:
            # should-only bool of scorable clauses, no scoring must.
            # OpenSearch's msm default: 1 when the bool has no
            # must/filter (the union IS the hit set), 0 otherwise
            # (shoulds are scoring-only and the residual alone defines
            # the hits).
            union_hits = not (body.get("must") or body.get("filter"))
            residual = {k: v for k, v in body.items() if k != "should"}
            return None, optional, ({"bool": residual} if residual else None), union_hits, 1.0
    return None, [], query, False, 1.0


# should-context leaf kinds with a Lucene-defined score: term (BM25 on
# the text field / norms-off idf on keyword), constant_score (its
# boost), everything else a constant-score rewrite (MultiTermQuery
# CONSTANT_SCORE_REWRITE, TermInSetQuery, ids, range, exists → 1.0).
# match_phrase is deliberately absent: PhraseQuery scores by phrase
# frequency, which this engine doesn't track — those stay in filter
# context rather than score wrong.
_LEAF_SHOULD_KINDS = {"term", "terms", "prefix", "wildcard", "regexp",
                      "fuzzy", "range", "exists", "ids", "constant_score"}


def _leaf_should_scores(engine: QueryEngine, clause: dict) -> tuple[np.ndarray, np.ndarray]:
    """(matching docs, per-doc scores) of a non-match should clause,
    following Lucene's query-context scoring:

    - ``term`` on the indexed TEXT field = a TermQuery: full BM25
      (idf × tf_norm) with the engine's stale-stats df, exactly like a
      one-term match.
    - ``term`` on a keyword (docmap) column: keyword fields omit norms,
      so Lucene's BM25 collapses to idf — freq=1 and dl=avgdl=1 make
      tf_norm exactly 1 in the (k1+1) convention (BM25Similarity with
      norms omitted decodes dl=1). df is the LIVE matching count (the
      docmap is tombstone-filtered), N stays manifest n_docs for
      consistency with text idf's stale-stats semantics.
    - every other kind (terms/prefix/wildcard/regexp/fuzzy/range/exists):
      Lucene rewrites these to constant score 1.0 per matching doc
      (MultiTermQuery CONSTANT_SCORE_REWRITE — OpenSearch's default
      ``rewrite``)."""
    ((kind, body),) = clause.items()
    if kind == "term":
        ((field, value),) = body.items()
        if not engine.is_docmap_field(field):
            docs, tfs, dls = engine.term_arrays(str(value))
            if docs.size == 0:
                return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
            w = float(bm25_idf(engine.df(str(value)), engine.n_docs))
            return docs, w * tf_norm(tfs, dls, engine.avgdl)
        docs = engine.execute_filter(clause)
        w = float(bm25_idf(int(docs.size), engine.n_docs)) if docs.size else 0.0
        return docs, np.full(docs.size, w, dtype=np.float64)
    docs = engine.execute_filter(clause)
    w = float(body.get("boost", 1.0)) if kind == "constant_score" else 1.0
    return docs, np.full(docs.size, w, dtype=np.float64)


def _tag_clause(clause) -> tuple | None:
    """Tag one should / dis_max clause for :func:`_clause_scores`:
    ``("match", text, constraint, boost)`` for a match (``constraint``
    = the clause itself when operator/msm shrink its matching set),
    ``("leaf", clause)`` for a scorable leaf kind, None for a clause
    this engine can't score (phrase, nested bool)."""
    if not isinstance(clause, dict) or len(clause) != 1:
        return None
    (kind,) = clause.keys()
    if kind == "match":
        text, default = _match_text_and_default(clause["match"])
        return ("match", text, None if default else clause, _match_boost(clause["match"]))
    return ("leaf", clause) if kind in _LEAF_SHOULD_KINDS else None


def _clause_scores(engine: QueryEngine, entry: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(matching docs, per-doc scores) of one tagged clause: a match
    scores BM25 × its boost over the docs its own operator/msm admit; a
    leaf scores through :func:`_leaf_should_scores`."""
    if entry[0] == "leaf":
        return _leaf_should_scores(engine, entry[1])
    _, text, constraint, boost = entry
    d, s = engine.bm25_scores(text)
    if boost != 1.0:
        s = s * boost
    if constraint is not None:
        keep = np.isin(d, engine.execute_filter(constraint), assume_unique=True)
        d, s = d[keep], s[keep]
    return d, s


def _scored_union(
    engine: QueryEngine, entries: list[tuple]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score every tagged clause: (sorted union of their matching docs,
    the union index of each scored (clause, doc) pair, its score)."""
    parts = [_clause_scores(engine, e) for e in entries]
    docs = np.concatenate([d for d, _ in parts] + [np.empty(0, dtype=np.int64)])
    sc = np.concatenate([s for _, s in parts] + [np.empty(0, dtype=np.float64)])
    uniq, inv = np.unique(docs, return_inverse=True)
    return uniq.astype(np.int64), inv, sc


def _bm25_scores_multi(
    engine: QueryEngine, clauses: list[tuple]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Additive scoring over independent should/must clauses — Lucene's
    BooleanQuery sums every matching clause's score, so a term repeated
    across clauses counts once PER CLAUSE (a single concatenated query
    would dedupe it). Each clause is tagged (see :func:`_tag_clause`)
    and scored by :func:`_clause_scores`. Returns (sorted doc_ids,
    summed scores, union of per-clause matching doc sets) — the union
    IS the hit set of a should-only bool, so callers never re-decode
    postings to count hits."""
    uniq, inv, sc = _scored_union(engine, clauses)
    out = np.zeros(uniq.size)
    np.add.at(out, inv, sc)
    # each part is exactly its clause's matching set, so uniq is the
    # union of per-clause hits
    return uniq, out, uniq


def _parse_fixed_interval_ms(s: str) -> int:
    """OpenSearch fixed_interval units → milliseconds (ms/s/m/h/d; the
    calendar units y/M/w/q need calendar arithmetic and raise)."""
    import re

    m = re.fullmatch(r"(\d+)(ms|s|m|h|d)", s.strip())
    if not m:
        raise ValueError(
            f"unsupported fixed_interval {s!r} (use <n>ms|s|m|h|d; "
            "calendar intervals are not supported)"
        )
    mult = {"ms": 1, "s": 1000, "m": 60_000, "h": 3_600_000, "d": 86_400_000}
    return int(m.group(1)) * mult[m.group(2)]


def _dis_max_scores(engine: QueryEngine, spec: dict) -> tuple[np.ndarray, np.ndarray]:
    """Lucene DisjunctionMaxQuery scoring: per doc, the BEST sub-query
    score plus ``tie_breaker`` × the sum of the others. Sub-queries score
    like should clauses (match = BM25, constraint-masked for
    operator/msm; leaf kinds per :func:`_leaf_should_scores`); an
    unscorable sub-query (phrase, nested bool) raises rather than score
    wrong. Returns (sorted matching docs — the union, per-doc scores)."""
    tie = float(spec.get("tie_breaker", 0.0))
    entries = []
    for c in spec.get("queries", []):
        entry = _tag_clause(c)
        if entry is None:
            raise ValueError(f"dis_max cannot score sub-query kind {list(c)}")
        entries.append(entry)
    uniq, inv, sc = _scored_union(engine, entries)
    total = np.zeros(uniq.size, dtype=np.float64)
    best = np.zeros(uniq.size, dtype=np.float64)
    np.add.at(total, inv, sc)
    np.maximum.at(best, inv, sc)
    return uniq, best + tie * (total - best)


def search(engine: QueryEngine, body: dict, source_files: list[str] | None = None,
           text_col: str = "content") -> dict:
    """OpenSearch ``_search``-shaped request → response envelope — the
    composed surface a user of the reference actually exchanges:

        {"query": …, "size": k, "from": n, "search_after": [score, id],
         "aggs": {name: {"terms": {"field": f, "size": s}}},
         "highlight": {"fields": {…}}}

    →   {"hits": {"total": {"value": n, "relation": "eq"},
                  "hits": [{"_id", "_score", "_source", "highlight"?}]},
         "aggregations": {name: {"buckets": [{"key", "doc_count"}]}}}

    Query context: a top-level ``match`` (or single bool-must match)
    scores with BM25 over the residual filter, evaluated once: the hit
    set it leaves is what the page ranks, ``hits.total`` counts and
    every aggregation reads;
    pure filter context returns constant score 1.0 in doc_id order
    (OpenSearch's filter/constant_score behavior). ``aggs`` = terms,
    histogram / date_histogram, range, composite, filters, metric,
    percentile and significant_terms aggregations over the full matching
    set (not just the page), like OpenSearch; bucket aggs take metric
    sub-aggs. ``highlight`` needs ``source_files`` — this index stores
    metadata + lineage hashes in the docmap, not the text, so snippets
    read exactly the hit rows back from the source parquet (predicate
    pushdown), trading _source storage for corpus-scale index size."""
    size = int(body.get("size", 10))
    frm = int(body.get("from", 0))
    if frm > 0 and body.get("search_after") is not None:
        # OpenSearch rejects from>0 combined with search_after — a
        # malformed request must error, not return a silently-wrong page
        raise ValueError("`from` parameter must be set to 0 when `search_after` is used")
    if body.get("sort"):
        if body.get("search_after") is not None:
            raise ValueError("field sort with search_after is not supported; "
                             "page with from/size")
        return _search_sorted(engine, body, source_files=source_files,
                              text_col=text_col)
    query = body.get("query")
    if query and next(iter(query)) in ("query_string", "simple_query_string"):
        # Lucene string syntax lowers to the structured DSL first, so
        # scoring/aggs/pagination ride the existing bool machinery
        from .querystring import lower_query_string

        query = lower_query_string(engine, query)
        body = {**body, "query": query}
    text, optional, residual, union_hits, text_boost = _split_scoring_clause(query)
    if text_boost <= 0:
        # Lucene requires a positive boost; a non-positive one would
        # invalidate the scale-invariant ranking shortcuts below
        raise ValueError(f"boost must be positive, got {text_boost}")

    if body.get("collapse") is not None:
        if body.get("search_after") is not None:
            raise ValueError("collapse with search_after is not supported")
        kind0 = next(iter(query)) if query else None
        if text is None or optional or kind0 == "dis_max":
            raise ValueError("collapse supports single-match (optionally "
                             "filtered) queries")
    if query and next(iter(query)) == "dis_max":
        # Lucene DisjunctionMaxQuery: hit set = union of sub-queries,
        # score = best + tie_breaker × rest (text/optional are already
        # None/[] — the splitter treats dis_max as pure residual)
        if body.get("search_after") is not None:
            raise ValueError("search_after supports pure match queries")
        hitset, sc_d = _dis_max_scores(engine, query["dis_max"])
        page = _topk_with_ties(hitset, sc_d, frm + size)[frm:]
        hits = [{"_id": int(d), "_score": float(s)} for d, s in page]
    elif text is not None or optional:
        if body.get("search_after") is not None and (residual is not None or optional):
            raise ValueError("search_after supports pure match queries")
        # the residual filter is evaluated once: it bounds the scored
        # page, hits.total and the aggregations alike
        allowed = None if residual is None else engine.execute_filter(residual)
        if not optional:
            # hit set = docs matching any query term ∧ filter
            # (OpenSearch's hit count for an OR match)
            hitset, sc = engine.bm25_scores(text)
            if allowed is not None:
                keep = np.isin(hitset, allowed, assume_unique=True)
                hitset, sc = hitset[keep], sc[keep]
            collapse = body.get("collapse")
            if body.get("search_after") is not None:
                # boost scales scores uniformly, so the unboosted cursor is
                # the request cursor ÷ boost and page scores scale back up
                sa = body["search_after"]
                page = _topk_with_ties(*_after_cursor(
                    hitset, sc, (int(sa[1]), float(sa[0]) / text_boost)), size)
            elif collapse:
                page = _collapse_page(engine, hitset, sc, collapse["field"], frm, size)
            else:
                page = _topk_with_ties(hitset, sc, frm + size)[frm:]
            if text_boost != 1.0:
                # positive scale: ranking unchanged, reported _score scales
                page = [(d, s * text_boost) for d, s in page]
        else:
            # additive should scoring (BooleanQuery sum). The HIT SET:
            # the must match if present; else the should union when the
            # bool has no must/filter (msm default 1); else the residual
            # alone (shoulds scoring-only, msm default 0).
            docs_u, scores_u, hit_union = _bm25_scores_multi(
                engine,
                ([("match", text, None, text_boost)] if text is not None else [])
                + optional,
            )
            if text is not None:
                hitset = engine.union_docs(engine.query_terms(text))
            elif union_hits:
                hitset = hit_union  # per-clause union, already decoded
            else:
                hitset = None
            if allowed is not None:
                hitset = allowed if hitset is None else \
                    hitset[np.isin(hitset, allowed, assume_unique=True)]
            if hitset is None:  # defensive: split() never produces this
                hitset = docs_u
            # score each hit (docs matching only scoring-optional clauses
            # outside the hit set never page; hits matching no scoring
            # term rank last at 0.0, doc-id order)
            if docs_u.size:
                idx = np.minimum(np.searchsorted(docs_u, hitset), docs_u.size - 1)
                sc = np.where(docs_u[idx] == hitset, scores_u[idx], 0.0)
            else:
                sc = np.zeros(hitset.size)
            page = _topk_with_ties(hitset, sc, frm + size)[frm:]
        hits = [{"_id": int(d), "_score": float(s)} for d, s in page]  # exact: search_after cursors need the unrounded sort value
    else:
        hitset = engine.execute_filter(query)
        # pure filter context scores 1.0 in doc order; a top-level
        # constant_score wrapper scores its boost instead
        const = 1.0
        if query and next(iter(query)) == "constant_score":
            const = float(query["constant_score"].get("boost", 1.0))
        hits = [{"_id": int(d), "_score": const} for d in hitset[frm:frm + size]]

    _attach_source(engine, hits)

    if body.get("highlight") and text is not None:
        if not source_files:
            raise ValueError("highlight needs source_files (text is not stored in the index)")
        from ..stages.highlight import snippets_for_hits

        snips = snippets_for_hits(
            engine, source_files, text,
            [(h["_id"], h["_score"]) for h in hits], text_col=text_col,
        )
        for h, s in zip(hits, snips):
            h["highlight"] = {text_col: [s["snippet"]]}

    out = {"hits": {"total": {"value": int(hitset.size), "relation": "eq"}, "hits": hits}}
    _apply_aggs(engine, body, hitset, out)
    _apply_suggest(engine, body, out)
    return out


def _apply_suggest(engine: QueryEngine, body: dict, out: dict) -> None:
    """The ``"suggest"`` envelope section: named term suggesters
    ({name: {"text": …, "term": {…}}}) → {name: [per-token entries]}."""
    suggest = body.get("suggest")
    if not suggest:
        return
    out["suggest"] = {}
    for name, spec in suggest.items():
        term = spec.get("term")
        if term is None:
            raise ValueError(f"suggester {name!r}: only the term suggester is supported")
        out["suggest"][name] = engine.suggest_terms(
            str(spec["text"]),
            size=int(term.get("size", 5)),
            max_edits=int(term.get("max_edits", 2)),
            prefix_length=int(term.get("prefix_length", 1)),
            suggest_mode=term.get("suggest_mode", "missing"),
        )


def _attach_source(engine: QueryEngine, hits: list[dict]) -> None:
    """_source from the docmap (metadata + lineage hash; text lives in
    the source parquet by design): just the page's rows, looked up by
    doc id."""
    if hits and engine._docmap is not None:
        ids = np.unique([h["_id"] for h in hits])
        t = engine.docmap_rows(engine.docmap_schema().names, ids)
        rows = {r["doc_id"]: r for r in t.to_pylist()}
        for h in hits:
            src = dict(rows.get(h["_id"], {}))
            src.pop("doc_id", None)
            h["_source"] = src


def _apply_aggs(engine: QueryEngine, body: dict, docs: np.ndarray, out: dict) -> None:
    """The ``"aggregations"`` envelope section, every aggregation over
    ``docs`` — the request's sorted hit set."""
    aggs = body.get("aggs") or body.get("aggregations")
    if aggs:
        out["aggregations"] = {}
        metric_ops = {"min", "max", "avg", "sum", "value_count", "cardinality",
                      "stats", "extended_stats"}
        for name, spec in aggs.items():
            sub = spec.get("aggs") or spec.get("aggregations")
            if "terms" in spec:
                tm = spec["terms"]
                out["aggregations"][name] = {"buckets": engine.terms_agg(
                    docs, tm["field"], int(tm.get("size", 10)),
                    sub_aggs=sub, order=tm.get("order"))}
                continue
            if "percentiles" in spec:
                p_spec = spec["percentiles"]
                out["aggregations"][name] = engine.percentiles_agg(
                    docs, p_spec["field"],
                    percents=tuple(p_spec.get("percents", (1, 5, 25, 50, 75, 95, 99))),
                )
                continue
            if "percentile_ranks" in spec:
                pr = spec["percentile_ranks"]
                out["aggregations"][name] = engine.percentile_ranks_agg(
                    docs, pr["field"], list(pr["values"]))
                continue
            if "significant_terms" in spec:
                sg = spec["significant_terms"]
                out["aggregations"][name] = {"buckets": engine.significant_terms_agg(
                    docs, sg["field"], size=int(sg.get("size", 10)))}
                continue
            if "histogram" in spec or "date_histogram" in spec:
                h = spec.get("histogram") or spec["date_histogram"]
                if "histogram" in spec:
                    rule = _FixedWidth(h["interval"])
                elif "calendar_interval" in h:
                    rule = _Calendar(h["calendar_interval"])
                else:
                    rule = _FixedWidth(_parse_fixed_interval_ms(h["fixed_interval"]), np.int64)
                out["aggregations"][name] = {"buckets": engine.histogram_agg(
                    docs, h["field"], rule, sub_aggs=sub,
                    min_doc_count=int(h.get("min_doc_count", 0)))}
                continue
            if "range" in spec:
                r = spec["range"]
                out["aggregations"][name] = {"buckets": engine.range_agg(
                    docs, r["field"], list(r["ranges"]), sub_aggs=sub)}
                continue
            if "composite" in spec:
                c = spec["composite"]
                out["aggregations"][name] = engine.composite_agg(
                    docs, list(c.get("sources", ())),
                    size=int(c.get("size", 10)),
                    after=c.get("after"), sub_aggs=sub)
                continue
            if "filters" in spec:
                # named filter buckets: each inner query intersects the
                # main matching set independently (OpenSearch's filters
                # agg; buckets keep the request's key order)
                named = spec["filters"]["filters"]
                buckets = {}
                for key, fq in named.items():
                    buckets[key] = {"doc_count": int(np.intersect1d(
                        docs, engine.execute_filter(fq), assume_unique=True).size)}
                out["aggregations"][name] = {"buckets": buckets}
                continue
            op = next((o for o in metric_ops if o in spec), None)
            if op is None:
                raise ValueError(
                    f"unsupported aggregation {list(spec)} "
                    f"(terms, percentiles or {sorted(metric_ops)})"
                )
            v = engine.metric_agg(docs, spec[op]["field"], op)
            out["aggregations"][name] = (
                v if op in ("stats", "extended_stats") else {"value": v})


def _collapse_page(engine: QueryEngine, uniq: np.ndarray, sc: np.ndarray,
                   field: str, frm: int, size: int) -> list[tuple[int, float]]:
    """Field collapsing (OpenSearch ``collapse``) of the hit set ``uniq``
    (sorted) with BM25 scores ``sc``: the ranking with
    only the BEST-scoring doc of each ``field`` value kept (first in
    (score desc, doc_id asc) order; null values form one group), then
    from/size paged. ``hits.total`` stays the UNCOLLAPSED count, like
    OpenSearch. Charges linearly in the matching-set size — collapse
    cannot be pruned, same as the engine it mirrors."""
    import pandas as pd

    if uniq.size == 0:
        return []
    t = engine.docmap_rows([field], uniq)
    dmap = t.to_pandas().set_index("doc_id")[field]
    order = np.lexsort((uniq, -sc))
    vals = dmap.reindex(uniq[order])
    first = ~pd.Series(vals.to_numpy()).duplicated().to_numpy()
    idx = order[first][frm:frm + size]
    return [(int(d), float(s)) for d, s in zip(uniq[idx], sc[idx])]


def _search_sorted(engine: QueryEngine, body: dict,
                   source_files: list[str] | None = None,
                   text_col: str = "content") -> dict:
    """Field-sorted ``_search`` (``"sort": [{field: "asc"|"desc"}, …]`` —
    the shape the reference uses everywhere it reads results back, e.g.
    execution_end_time desc in the top-anomaly queries): hits come back
    in the metadata sort order with missing values LAST either direction
    and a doc_id ascending tie-break; ``_score`` is null, OpenSearch's
    track_scores=false behavior. Aggregations still run over the full
    matching set. Deep sorts charge linearly in the matching-set size,
    exactly like OpenSearch."""
    size = int(body.get("size", 10))
    frm = int(body.get("from", 0))
    query = body.get("query")
    if query and next(iter(query)) in ("query_string", "simple_query_string"):
        from .querystring import lower_query_string

        query = lower_query_string(engine, query)
    if body.get("collapse") is not None:
        raise ValueError("collapse with a field sort is not supported")
    keys = _parse_sort_keys(body["sort"])
    if any(f == "_score" for f, _ in keys):
        raise ValueError("sort by _score is the default ranking; omit `sort`")

    docs = engine.execute_filter(query)
    df = engine.docmap_rows(sorted({f for f, _ in keys}), docs).to_pandas()
    df = df.sort_values(by=[f for f, _ in keys] + ["doc_id"],
                        ascending=[a for _, a in keys] + [True],
                        na_position="last", kind="mergesort")
    page = df.iloc[frm:frm + size]
    hits = [
        {"_id": int(rec["doc_id"]), "_score": None,
         "sort": [None if pd_isna(rec[f]) else _py_scalar(rec[f]) for f, _ in keys]}
        for rec in page.to_dict("records")
    ]
    _attach_source(engine, hits)
    if body.get("highlight"):
        raise ValueError("highlight with a field sort is not supported; "
                         "use the relevance-ranked form")
    out = {"hits": {"total": {"value": int(docs.size), "relation": "eq"}, "hits": hits}}
    _apply_aggs(engine, body, docs, out)
    # the term suggester does not depend on the query or its order
    _apply_suggest(engine, body, out)
    return out
