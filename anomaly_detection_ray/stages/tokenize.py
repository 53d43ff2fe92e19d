"""Phase-1 SPIMI stage: tokenize + in-batch combine → posting chunks.

The map-side combiner of the index build (SURVEY.md §7.1 M1/M2). The
build calls it per batch of each read block inside one plain
``map_batches`` task function (``index.build._index_block``), next to
:class:`DocMap` on the same rows; the analyzer's regexes are compiled in ``__init__`` and ship
pickled with the task. Each input batch of corpus rows produces one
output row per distinct ``(term, doc_bucket)`` in the batch — a
compressed partial posting chunk — NOT one row per (term, doc) triple.
This is the partial pre-aggregation that keeps the partition exchange
small: a stopword-like hot term ('import', 'return') contributes one
chunk per batch instead of one row per occurrence.

:class:`DocMap` produces the per-doc metadata rows of the docmap and
the content-sha256 lineage invariant.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np
import pyarrow as pa

from ..functions.analyzer import Analyzer
from ..index import segments
from ..index.segments import POSTINGS_SCHEMA


class TokenizeCombine:
    """corpus batch (doc_id, <text_col>) → posting-chunk rows.

    Replaces the Lucene analysis + in-memory inversion the reference
    assumes from OpenSearch (SPIMI: Manning et al. IIR ch. 4).
    """

    def __init__(
        self,
        text_col: str = "content",
        id_col: str = "doc_id",
        mode: str = "code",
        bucket_shift: int = 17,
        block_size: int = 128,
        stopwords=None,
    ):
        self.analyzer = Analyzer(mode=mode, stopwords=stopwords)
        self.text_col = text_col
        self.id_col = id_col
        self.bucket_shift = bucket_shift
        self.block_size = block_size

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pylist()
        doc_ids = batch[self.id_col].to_numpy().astype(np.int64)
        term_freqs = self.analyzer.term_freqs

        terms: list[str] = []
        dids: list[int] = []
        tfs: list[int] = []
        dls: list[int] = []
        for did, text in zip(doc_ids, texts):
            c: Counter = term_freqs(text if text is not None else "")
            if not c:
                continue
            dl = sum(c.values())
            terms.extend(c.keys())
            tfs.extend(c.values())
            dids.extend([did] * len(c))
            dls.extend([dl] * len(c))
        if not terms:
            return POSTINGS_SCHEMA.empty_table()

        did_arr = np.asarray(dids, dtype=np.int64)
        tf_arr = np.asarray(tfs, dtype=np.int64)
        dl_arr = np.asarray(dls, dtype=np.int64)
        bucket_arr = did_arr >> self.bucket_shift

        uniq, codes = segments.rank_terms(pa.array(terms, pa.string()))
        order = np.lexsort((did_arr, bucket_arr, codes))
        codes, did_arr = codes[order], did_arr[order]
        tf_arr, dl_arr, bucket_arr = tf_arr[order], dl_arr[order], bucket_arr[order]

        # run boundaries where (term code, bucket) changes
        change = np.empty(codes.size, dtype=bool)
        change[0] = True
        np.not_equal(codes[1:], codes[:-1], out=change[1:])
        change[1:] |= bucket_arr[1:] != bucket_arr[:-1]
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], codes.size)
        # the index's one encoder and block rule (through the module, so
        # a traced worker sees the wrapped function)
        return segments.encode_rows_batched(uniq.take(pa.array(codes[starts])), bucket_arr[starts],
                                            did_arr, tf_arr, dl_arr, starts, ends, self.block_size)


class DocMap:
    """corpus batch → docmap rows (doc_id, metadata, dl, content_sha256).

    The sha256 column is the per-row lineage invariant from
    BASELINE.json's input_hint — the built index's docmap must carry the
    exact content hash of the source rows.
    """

    def __init__(self, text_col: str = "content", id_col: str = "doc_id",
                 keep_cols=("repo", "path", "commit", "lang")):
        # NOTE: no tokenization here — doc lengths live inside the
        # posting chunks (segments.py), so the docmap pass is a cheap
        # hash-and-project and the corpus text is analyzed exactly once.
        self.text_col = text_col
        self.id_col = id_col
        self.keep_cols = keep_cols

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pylist()
        sha = [hashlib.sha256((t or "").encode("utf-8")).hexdigest() for t in texts]
        cols = {self.id_col: batch[self.id_col]}
        for c in self.keep_cols:
            if c in batch.column_names:
                cols[c] = batch[c]
        cols["content_sha256"] = pa.array(sha)
        return pa.table(cols)


POSITIONS_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("doc_id", pa.int64()),
        ("positions", pa.list_(pa.int32())),
    ]
)


class PositionRows:
    """corpus batch → positional-posting rows (term, doc_id, positions)
    for the OPTIONAL phrase-query sidecar (``build_index(
    store_positions=True)``). Lucene keeps positions inline in its
    postings; here they live in a separate parquet sidecar so the
    BM25/conjunctive hot path's postings codec stays untouched and
    non-phrase users pay nothing.

    Vectorized per batch: one global lexsort of (term code, doc) over
    the concatenated token stream, positions per (term, doc) are the
    stable-order run segments — no per-term Python loop."""

    def __init__(self, text_col: str = "content", id_col: str = "doc_id", mode: str = "code"):
        self.analyzer = Analyzer(mode=mode)
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pylist()
        doc_ids = batch[self.id_col].to_numpy().astype(np.int64)
        toks_per_doc = [self.analyzer.tokens(t or "") for t in texts]
        lens = np.fromiter(map(len, toks_per_doc), dtype=np.int64, count=len(toks_per_doc))
        total = int(lens.sum())
        if total == 0:
            return POSITIONS_SCHEMA.empty_table()
        doc_rep = np.repeat(doc_ids, lens)
        offs = np.concatenate(([0], np.cumsum(lens)))[:-1]
        pos = (np.arange(total) - np.repeat(offs, lens)).astype(np.int32)

        uniq, codes = segments.rank_terms(
            pa.array([t for toks in toks_per_doc for t in toks], pa.string()))
        order = np.lexsort((doc_rep, codes))  # stable: positions stay ascending
        codes, doc_rep, pos = codes[order], doc_rep[order], pos[order]
        change = np.empty(codes.size, dtype=bool)
        change[0] = True
        np.not_equal(codes[1:], codes[:-1], out=change[1:])
        change[1:] |= doc_rep[1:] != doc_rep[:-1]
        starts = np.flatnonzero(change)
        list_offs = np.append(starts, codes.size).astype(np.int32)
        return pa.table(
            {
                "term": uniq.take(pa.array(codes[starts])),
                "doc_id": pa.array(doc_rep[starts]),
                "positions": pa.ListArray.from_arrays(pa.array(list_offs), pa.array(pos)),
            },
            schema=POSITIONS_SCHEMA,
        )
