"""Corpus-level language-model statistics — unigram-LM NLL quality
scoring and tf-idf keyword extraction.

Training-data pipelines score documents against a corpus language model
(CCNet-style perplexity filtering) and tag them with their most
characteristic terms. Both reduce to the same two-pass Ray Data shape:

1. ONE distributed counting pass — each batch pre-aggregates its own
   (term, token_count, doc_count) partials (a combiner: the corpus text
   never leaves the map task), then an exchange on the term merges
   them. Only dictionary-sized rows shuffle.
2. The merged frequency table broadcasts ONCE via ``ray.put`` (the
   decontamination pattern — each scoring actor fetches it once in
   ``__init__``, zero-copy plasma, never per batch), and ONE stateless
   scoring pass maps each document's tokens against it.

At 100 TB the counting shuffle is bounded by vocabulary, not corpus,
and the broadcast is the small side; the scoring pass is embarrassingly
parallel. Tokenization is the ``simple`` analyzer, whose exact SQL twin
(``regexp_extract_all(lower(text), '[a-z0-9]+')``) backs the DuckDB
oracles.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.analyzer import Analyzer
from ..util import pool


def _flat_tokens(texts: list, analyzer: Analyzer) -> tuple[np.ndarray, np.ndarray]:
    """All docs' tokens flattened + per-doc counts."""
    tok_lists = analyzer.tokens_batch([t or "" for t in texts])
    counts = np.fromiter((len(t) for t in tok_lists), dtype=np.int64, count=len(tok_lists))
    flat = np.concatenate([np.asarray(t, dtype=object) for t in tok_lists]) \
        if counts.sum() else np.empty(0, dtype=object)
    return flat, counts


def _count_batch(batch: pa.Table, text_col: str) -> pa.Table:
    """Per-batch (term, c, df) partial: c = token instances, df = docs
    containing the term. Exact under summation because every doc lives in
    exactly one batch."""
    flat, counts = _flat_tokens(batch[text_col].to_pylist(), Analyzer("simple"))
    if not flat.size:
        return pa.table({"term": pa.array([], pa.string()),
                         "c": pa.array([], pa.int64()),
                         "df": pa.array([], pa.int64())})
    doc_of = np.repeat(np.arange(len(counts)), counts)
    g = pd.DataFrame({"t": flat, "d": doc_of}).groupby("t", sort=False)
    agg = g.agg(c=("d", "size"), df=("d", "nunique")).reset_index()
    return pa.table({"term": pa.array(agg["t"], pa.string()),
                     "c": pa.array(agg["c"].to_numpy(np.int64)),
                     "df": pa.array(agg["df"].to_numpy(np.int64))})


def _term_sums(t: pa.Table) -> pa.Table:
    """(term, c, df) rows → one row per term, c and df summed (a batch
    partial's merge in a term-keyed reducer)."""
    g = t.group_by("term", use_threads=False).aggregate([("c", "sum"), ("df", "sum")])
    return pa.table([g["term"], g["c_sum"], g["df_sum"]], names=["term", "c", "df"])


def term_table(ds, text_col: str = "text"):
    """documents Dataset → pandas (term, c, df): the corpus unigram
    table. Per-batch combiners, merged per term on the exchange — the
    corpus never shuffles, only vocabulary-sized partials do."""
    from .exchange import group_by_key

    partial = ds.map_batches(
        lambda b: _count_batch(b, text_col), batch_format="pyarrow", zero_copy_batch=True
    )
    merged = group_by_key(partial, ["term"], _term_sums,
                          pa.schema([("term", pa.string()), ("c", pa.int64()), ("df", pa.int64())]))
    return merged.to_pandas().sort_values("term").reset_index(drop=True)


def broadcast_term_table(tbl: pd.DataFrame):
    """ray.put the (term → c, df) arrays once; scoring actors ray.get it
    once each (plasma zero-copy), never per batch."""
    import ray

    return ray.put({
        "terms": tbl["term"].to_numpy(object),
        "c": tbl["c"].to_numpy(np.int64),
        "df": tbl["df"].to_numpy(np.int64),
        "total": int(tbl["c"].sum()),
    })


class _Scorer:
    """Shared setup: fetch the broadcast table once per actor and keep it
    as the SORTED arrays it arrives as — lookups are ``np.searchsorted``
    over the term array (the term-dictionary pattern). A Python dict of
    the full vocabulary would cost ~100 B/term of per-actor heap (tens of
    GB at a 10⁸-term web vocabulary); the sorted-array view adds nothing
    beyond the broadcast itself (~16 B/term numeric + the strings)."""

    def __init__(self, table_ref, text_col: str, id_col: str):
        import ray

        t = table_ref if isinstance(table_ref, dict) else ray.get(table_ref)
        self.terms = t["terms"]  # term-sorted (term_table sorts)
        self.logp = np.log(t["c"] / t["total"])
        self.df = t["df"].astype(np.float64)
        self.analyzer = Analyzer("simple")
        self.text_col, self.id_col = text_col, id_col

    def _lookup(self, tokens: np.ndarray, values: np.ndarray) -> np.ndarray:
        """values[vocab index of token], NaN for out-of-vocabulary."""
        if not len(self.terms):
            return np.full(len(tokens), np.nan)
        idx = np.searchsorted(self.terms, tokens)
        idx_c = np.minimum(idx, len(self.terms) - 1)
        hit = self.terms[idx_c] == tokens
        return np.where(hit, values[idx_c], np.nan)


class UnigramNLL(_Scorer):
    """doc → mean negative log-likelihood (nats/token) under the corpus
    unigram LM — the quality signal CCNet thresholds on (low NLL ≈
    in-distribution text). Token-less docs emit no row (the SQL AVG over
    zero rows drops them too)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        flat, counts = _flat_tokens(batch[self.text_col].to_pylist(), self.analyzer)
        ids = batch[self.id_col].to_numpy()
        if not flat.size:
            return pa.table({"doc_id": pa.array([], batch[self.id_col].type),
                             "nll_nats": pa.array([], pa.float64())})
        lp = self._lookup(flat, self.logp)
        offs = np.concatenate(([0], np.cumsum(counts)))
        keep = counts > 0
        # reduceat over NON-EMPTY starts only: clamping empty docs' starts
        # instead would steal the preceding doc's tail segment
        sums = np.add.reduceat(lp, offs[:-1][keep])
        nll = -sums / counts[keep]
        return pa.table({"doc_id": pa.array(ids[keep]),
                         "nll_nats": pa.array(np.round(nll, 6))})


class TfIdfTopK(_Scorer):
    """doc → its top-k terms by tf·idf (idf = ln(N/df)), rank 1..k, ties
    broken by term ascending — deterministic keyword extraction for
    corpus tagging/mixing decisions."""

    def __init__(self, table_ref, n_docs: int, text_col: str, id_col: str, k: int = 3):
        super().__init__(table_ref, text_col, id_col)
        self.n_docs = int(n_docs)
        self.k = int(k)

    def __call__(self, batch: pa.Table) -> pa.Table:
        flat, counts = _flat_tokens(batch[self.text_col].to_pylist(), self.analyzer)
        ids = batch[self.id_col].to_numpy()
        empty = pa.table({"doc_id": pa.array([], batch[self.id_col].type),
                          "rank": pa.array([], pa.int64()),
                          "term": pa.array([], pa.string()),
                          "score": pa.array([], pa.float64())})
        if not flat.size:
            return empty
        doc_of = np.repeat(np.arange(len(counts)), counts)
        tf = (pd.DataFrame({"d": doc_of, "t": flat})
              .groupby(["d", "t"], sort=False).size().reset_index(name="tf"))
        idf = np.log(self.n_docs / self._lookup(tf["t"].to_numpy(object), self.df))
        tf["score"] = np.round(tf["tf"].to_numpy(np.float64) * idf, 6)
        # rank AFTER rounding so engine and SQL twin break ties on the
        # same rounded values
        tf = tf.sort_values(["d", "score", "t"], ascending=[True, False, True],
                            kind="stable")
        tf["rank"] = tf.groupby("d", sort=False).cumcount() + 1
        top = tf[tf["rank"] <= self.k]
        return pa.table({"doc_id": pa.array(ids[top["d"].to_numpy()]),
                         "rank": pa.array(top["rank"].to_numpy(np.int64)),
                         "term": pa.array(top["t"], pa.string()),
                         "score": pa.array(top["score"].to_numpy(np.float64))})


def doc_nll(ds, text_col: str = "text", id_col: str = "doc_id", concurrency=None):
    """documents Dataset → (doc_id, nll_nats) Dataset."""
    ref = broadcast_term_table(term_table(ds, text_col))
    return ds.map_batches(
        UnigramNLL,
        fn_constructor_kwargs=dict(table_ref=ref, text_col=text_col, id_col=id_col),
        batch_format="pyarrow", zero_copy_batch=True, concurrency=pool(concurrency),
    )


def tfidf_keywords(ds, n_docs: int | None = None, k: int = 3,
                   text_col: str = "text", id_col: str = "doc_id", concurrency=None):
    """documents Dataset → (doc_id, rank, term, score) Dataset, rank ≤ k."""
    ref = broadcast_term_table(term_table(ds, text_col))
    n = int(n_docs) if n_docs is not None else ds.count()
    return ds.map_batches(
        TfIdfTopK,
        fn_constructor_kwargs=dict(table_ref=ref, n_docs=n, text_col=text_col,
                                   id_col=id_col, k=k),
        batch_format="pyarrow", zero_copy_batch=True, concurrency=pool(concurrency),
    )


def ccnet_quality_buckets(ds, text_col: str = "text", id_col: str = "doc_id",
                          concurrency=None):
    """CCNet-style quality BUCKETING (Wenzek et al. 2020, "CCNet:
    Extracting High Quality Monolingual Datasets from Web Crawl Data" —
    public recipe): score every doc with the unigram-LM NLL, then split
    the corpus into equal-size head / middle / tail thirds by score rank
    (head = lowest NLL = most in-distribution). The standard use is
    keeping head+middle (or sampling tail at a reduced rate) for LM
    pretraining.

    → Dataset (doc_id, nll_r, bucket) with bucket ∈ head/middle/tail.

    Rank semantics are exact and deterministic: order by (nll rounded to
    6 dp, doc_id) — the rounding makes the SQL twin's sort key identical
    despite summation-order float drift, the id tie-break makes the
    split reproducible. Distributed shape: the one unavoidable global
    exchange is the sort (CCNet's split is a corpus-wide quantile by
    definition); the split itself is ``split_at_indices`` — a
    metadata-level slice of the sorted blocks, no second shuffle, no
    driver materialization. At extreme scale the thresholds could come
    from a sample instead; this exact path keeps the oracle twin
    value-exact."""
    import pyarrow.compute as pc

    nll = doc_nll(ds, text_col, id_col, concurrency=concurrency)
    nll = nll.map_batches(
        lambda b: b.set_column(
            b.column_names.index("nll_nats"), "nll_r",
            pc.round(b["nll_nats"], ndigits=6)),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    s = nll.sort(["nll_r", id_col])
    n = s.count()
    k1, k2 = (n + 2) // 3, (2 * n + 2) // 3  # = |{rk: 3rk//n == 0}|, <= 1
    parts = s.split_at_indices([k1, k2])

    def lab(name):
        def f(b: pa.Table) -> pa.Table:
            return b.append_column("bucket", pa.array([name] * b.num_rows))
        return f

    labeled = [p.map_batches(lab(nm), batch_format="pyarrow")
               for p, nm in zip(parts, ("head", "middle", "tail"))]
    out = labeled[0]
    for p in labeled[1:]:
        out = out.union(p)
    return out
