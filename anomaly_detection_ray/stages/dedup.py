"""Deduplication stages for large-scale training-data pipelines.

Five flavors, each a Ray-Data-first composition (no driver-side loops):

- **exact**: sha256(text) → per-block (hash, min doc_id, count) partials
  merged per hash. The hash column keeps the shuffle payload small
  (never shuffles the text itself); 256-bit hashes make collisions a
  non-issue.
- **n-gram Jaccard (exact)**: distinct k-token shingles → explode
  (shingle, doc) → pair generation per shingle → per-pair intersection
  over the docs' shingle sets → Jaccard via |A∩B| / (|A|+|B|−|A∩B|).
  Exact and SQL-expressible; pair generation is capped per-shingle by
  ``max_shingle_df`` (a frequency-stop: a shingle shared by thousands
  of docs carries no dedup signal but quadratic pair cost — the cap is
  part of the operator's declared semantics and mirrored in the oracle).
- **MinHash + LSH**: per-batch signatures → explode (band, band_hash,
  doc) → pairs per bucket → exact-Jaccard verify.
  The scale path for near-dup at 10^12 docs (probabilistic recall).
- **SimHash**: 64-bit sketch per doc; near-dup = hamming ≤ r within
  LSH buckets on bit-chunks.
- **embedding cosine**: see stages/ann.py (block matmul).

Every grouping step is :func:`.exchange.exchange_by_key` on the REAL
grouping key (a text hash, a shingle, a bucket, a doc id, a pair): no
group spans two parts, so each reducer task runs over its whole part
as ONE Arrow table — sort once, walk the runs of equal keys — and
returns a typed Arrow table for any row count, zero included.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.analyzer import Analyzer
from ..functions.minhash import MinHasher, batch_shingle_hashes, simhash
from .exchange import group_by_key, key_runs, sum_blocks

_I64 = pa.int64()
_SHINGLE_T = pa.list_(_I64)
_PAIRS = pa.schema([("doc_a", _I64), ("doc_b", _I64)])
_JACCARD = pa.schema([("doc_a", _I64), ("doc_b", _I64), ("jaccard", pa.float64())])
_HAMMING = pa.schema([("doc_a", _I64), ("doc_b", _I64), ("hamming", _I64)])
_LABELS = pa.schema([("node", _I64), ("label", _I64)])


def _run_pairs(starts: np.ndarray, ends: np.ndarray, max_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions (a, b), a < b, of every pair inside each run of 2 to
    ``max_size`` rows."""
    size = ends - starts
    sel = (size >= 2) & (size <= max_size)
    out_a, out_b = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for s, n in zip(starts[sel], size[sel]):
        a, b = np.triu_indices(n, k=1)
        out_a.append(s + a)
        out_b.append(s + b)
    return np.concatenate(out_a), np.concatenate(out_b)


def _i64(col) -> np.ndarray:
    return pc.cast(col, _I64).to_numpy()


# ---------------- exact ----------------

def _text_groups(t: pa.Table) -> pa.Table:
    """(doc_id, n_dups, text_sha) rows → one row per text_sha: min
    doc_id, summed n_dups (a block's partial and the merge alike)."""
    g = t.group_by("text_sha", use_threads=False).aggregate([("doc_id", "min"), ("n_dups", "sum")])
    return pa.table([g["doc_id_min"], g["n_dups_sum"], g["text_sha"]], names=["doc_id", "n_dups", "text_sha"])


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id"):
    """→ one row per distinct text: (doc_id = min id, n_dups)."""

    def partial(batch: pa.Table) -> pa.Table:
        h = [hashlib.sha256((t or "").encode()).hexdigest() for t in batch[text_col].to_pylist()]
        return _text_groups(pa.table({"doc_id": pc.cast(batch[id_col], _I64),
                                      "n_dups": np.ones(batch.num_rows, np.int64),
                                      "text_sha": pa.array(h, pa.string())}))

    return group_by_key(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True), ["text_sha"],
        lambda t: _text_groups(t).select(["doc_id", "n_dups"]).rename_columns([id_col, "n_dups"]),
        pa.schema([("doc_id", _I64), ("n_dups", _I64), ("text_sha", pa.string())]),
    )


# ---------------- n-gram Jaccard (exact) ----------------

def _shingle_table(batch: pa.Table, text_col: str, id_col: str, k: int) -> pa.Table:
    """docs batch → (doc_id, shingles: sorted distinct 64-bit shingle ids)
    — the shared primitive of the ngram/minhash paths. Tokenization is
    per doc (one C-regex findall); shingle ids come from ONE batched
    token-hash call + k vectorized mix steps
    (``functions/minhash.batch_shingle_hashes``) — no per-position
    string building (was the suite's slowest stage in round 2)."""
    analyzer = Analyzer("simple")
    toks = [analyzer.tokens(t or "") for t in batch[text_col].to_pylist()]
    vals, offs = batch_shingle_hashes(toks, k)
    return pa.table({
        "doc_id": pc.cast(batch[id_col], _I64),
        "shingles": pa.ListArray.from_arrays(
            pa.array(offs.astype(np.int32)), pa.array(vals, _I64)
        ),
    })


def _doc_shingles(ds, text_col: str, id_col: str, k: int):
    def shingles(batch: pa.Table) -> pa.Table:
        return _shingle_table(batch, text_col, id_col, k)

    return ds.map_batches(shingles, batch_format="pyarrow", zero_copy_batch=True)


def _pair_table(a: np.ndarray, b: np.ndarray) -> pa.Table:
    return pa.table([pa.array(a, _I64), pa.array(b, _I64)], schema=_PAIRS)


_SIDES = pa.schema([("key", _I64), ("side", pa.int32()), ("doc_a", _I64), ("doc_b", _I64),
                    ("shingles", _SHINGLE_T)])


def _verify_pairs_exact(doc_sh, cand, threshold: float, min_shared: int = 1):
    """Exact-Jaccard verification of candidate pairs over the docs' FULL
    distinct-shingle sets — Dataset end-to-end, two exchanges, no driver
    round-trip, and only 64-bit ids move (never text).

    ``doc_sh``: Dataset (doc_id, shingles) — ALL docs; ``cand``: Dataset
    (doc_a, doc_b), which may hold one pair many times (candidate
    generation re-emits a pair once per shared shingle / LSH band).

    1. Attach, keyed on the doc id: every doc's shingle row and every
       candidate instance once per endpoint (``side`` 0 = doc_a, 1 =
       doc_b). A part holds ALL instances of a pair keyed on one end, so
       it counts them per (pair, side) and keeps each pair once — the
       duplicates never reach the array-bearing rows — and drops pairs
       sharing fewer than ``min_shared`` qualifying shingles (a declared
       semantic parameter: mirror it in any SQL twin via GROUP BY pair
       HAVING count(*) >= m). Each kept row takes its doc's shingle set
       with ``pc.index_in`` + ``take`` (Arrow's ``join`` rejects the
       list-typed ``shingles`` payload). Docs with no pair row drop.
    2. Jaccard, keyed on the pair: its two rows meet; |A∩B| / |A∪B| by
       a sorted-array intersect, kept when ≥ ``threshold``."""

    def pair_rows(b: pa.Table) -> pa.Table:
        da, db = _i64(b["doc_a"]), _i64(b["doc_b"])
        n = da.size
        return pa.table([
            np.concatenate([da, db]), np.repeat(np.int32([0, 1]), n),
            np.concatenate([da, da]), np.concatenate([db, db]),
            pa.ListArray.from_arrays(pa.array(np.zeros(2 * n + 1, np.int32)), pa.array([], _I64)),
        ], schema=_SIDES)

    def doc_rows(b: pa.Table) -> pa.Table:
        none = np.full(b.num_rows, -1, np.int64)
        return pa.table([_i64(b["doc_id"]), none.astype(np.int32), none, none, b["shingles"]],
                        schema=_SIDES)

    def attach(t: pa.Table) -> pa.Table:
        side = t["side"].to_numpy()
        docs, inst = t.filter(pa.array(side < 0)), t.filter(pa.array(side >= 0))
        a, b, s = inst["doc_a"].to_numpy(), inst["doc_b"].to_numpy(), inst["side"].to_numpy()
        order = np.lexsort((s, b, a))
        starts, ends = key_runs(a[order], b[order], s[order])
        rows = inst.take(order[starts[ends - starts >= min_shared]])
        idx = pc.index_in(rows["key"], value_set=docs["key"].combine_chunks())
        rows = rows.filter(pc.is_valid(idx))
        return rows.set_column(4, "shingles", docs["shingles"].take(idx.drop_null()))

    def jaccard(t: pa.Table) -> pa.Table:
        a, b, s = t["doc_a"].to_numpy(), t["doc_b"].to_numpy(), t["side"].to_numpy()
        order = np.lexsort((s, b, a))
        starts, ends = key_runs(a[order], b[order])
        both = starts[ends - starts == 2]
        first, second = order[both], order[both + 1]
        sh = t["shingles"].combine_chunks()
        offs, vals = sh.offsets.to_numpy(), sh.values.to_numpy()
        jac = np.empty(first.size, np.float64)
        for n, (i, j) in enumerate(zip(first, second)):
            x, y = vals[offs[i]:offs[i + 1]], vals[offs[j]:offs[j + 1]]
            inter = np.intersect1d(x, y, assume_unique=True).size
            union = x.size + y.size - inter
            jac[n] = inter / union if union else 1.0
        keep = jac >= threshold
        return pa.table([a[first][keep], b[first][keep], jac[keep]], schema=_JACCARD)

    legs = (doc_sh.map_batches(doc_rows, batch_format="pyarrow", zero_copy_batch=True)
            .union(cand.map_batches(pair_rows, batch_format="pyarrow", zero_copy_batch=True)))
    return group_by_key(group_by_key(legs, ["key"], attach, _SIDES), ["doc_a", "doc_b"], jaccard, _SIDES)


def _collect_pairs(ds) -> pa.Table:
    """A pairs Dataset in the driver, sorted by (doc_a, doc_b) — the small
    deliverable; at cluster scale consume the Dataset from the pair
    functions' ``collect=False`` instead."""
    import ray

    t = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    return t.take(pc.sort_indices(t, [("doc_a", "ascending"), ("doc_b", "ascending")]))


def ngram_jaccard_pairs(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 3,
    threshold: float = 0.8,
    max_shingle_df: int = 50,
    collect: bool = True,
    min_shared: int = 1,
):
    """→ (doc_a, doc_b, jaccard): candidate pairs share ≥ ``min_shared``
    shingles with df ≤ max_shingle_df (the frequency-stop — hot shingles
    carry no dedup signal but quadratic pair cost), then exact Jaccard
    over the docs' FULL distinct-shingle sets, kept when ≥ threshold.

    Everything runs as Datasets end-to-end: explode → candidate pairs
    per shingle (one exchange on the shingle id) → distributed verify
    join; only the final verified pairs are collected (``collect=False``
    returns the Dataset)."""
    # materialized: the candidate and verify exchanges both read it
    doc_sh = _doc_shingles(ds, text_col, id_col, k).materialize()

    def explode(b: pa.Table) -> pa.Table:
        sh = b["shingles"].combine_chunks()
        return pa.table({
            "doc_id": np.repeat(_i64(b["doc_id"]), np.diff(sh.offsets.to_numpy())),
            "shingle": sh.flatten(),
        })

    def shingle_pairs(t: pa.Table) -> pa.Table:
        sh, ids = t["shingle"].to_numpy(), t["doc_id"].to_numpy()
        order = np.lexsort((ids, sh))
        ids = ids[order]
        a, b = _run_pairs(*key_runs(sh[order]), max_shingle_df)
        return _pair_table(ids[a], ids[b])

    cand = group_by_key(doc_sh.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True),
                        ["shingle"], shingle_pairs, pa.schema([("doc_id", _I64), ("shingle", _I64)]))
    verified = _verify_pairs_exact(doc_sh, cand, threshold, min_shared=min_shared)
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
    collect: bool = True,
):
    """LSH candidates → exact-Jaccard verification → (doc_a, doc_b, jaccard).

    Dataset end-to-end: the shared shingle-id stage feeds both the band
    leg (signatures) and the verify leg (full shingle sets); candidates
    come from one exchange on the (band, band_key) bucket and flow
    straight into the distributed doc-id-keyed verify join
    (``_verify_pairs_exact``, which also dedupes cross-band repeats) —
    no driver round-trip, no text fetch."""
    doc_sh = _doc_shingles(ds, text_col, id_col, k).materialize()
    bands = doc_sh.map_batches(
        lambda b: _minhash_bands(b, n_hashes, n_bands, seed),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def bucket_pairs(t: pa.Table) -> pa.Table:
        band, key, ids = t["band"].to_numpy(), t["band_key"].to_numpy(), t["doc_id"].to_numpy()
        order = np.lexsort((ids, key, band))
        band, key, ids = band[order], key[order], ids[order]
        first, _ = key_runs(band, key, ids)  # each doc once per bucket
        band, key, ids = band[first], key[first], ids[first]
        a, b = _run_pairs(*key_runs(band, key), 200)  # degenerate bucket guard
        return _pair_table(ids[a], ids[b])

    cand = group_by_key(bands, ["band", "band_key"], bucket_pairs,
                        pa.schema([("doc_id", _I64), ("band", pa.int32()), ("band_key", _I64)]))
    verified = _verify_pairs_exact(doc_sh, cand, threshold)
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
                           collect: bool = True):
    """Near-dups by SimHash: bucket on each of 4 16-bit chunks (any pair
    within hamming ≤ 3 of 64 bits shares ≥1 identical chunk when ≤3 bits
    differ across 4 chunks — pigeonhole), verify hamming inside buckets."""
    return hamming_near_dup_pairs(simhash_sketch(ds, text_col, id_col), id_col="doc_id",
                                  hash_col="simhash", max_hamming=max_hamming, collect=collect)


def hamming_near_dup_pairs(sk, id_col: str = "doc_id", hash_col: str = "simhash",
                           max_hamming: int = 3, n_chunks: int = 4, max_bucket: int = 500,
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
    a 24-byte row per sketch; text/pixels never shuffle either way.

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
    buckets = pa.schema([("doc_id", _I64), ("chunk", pa.int32()), ("chunk_key", _I64), ("sketch", _I64)])

    def explode(batch: pa.Table) -> pa.Table:
        sketch = _i64(batch[hash_col])
        h = sketch.view(np.uint64)
        ids = _i64(batch[id_col])
        vals = [((h >> np.uint64(bits * c)) & mask).astype(np.int64) for c in range(n_chunks)]
        if chunk_pairs:
            probes = [(ci * n_chunks + cj, (vals[ci] << np.int64(bits)) | vals[cj])
                      for ci in range(n_chunks) for cj in range(ci + 1, n_chunks)]
        else:
            probes = list(enumerate(vals))
        return pa.table([
            np.tile(ids, len(probes)),
            np.repeat(np.int32([c for c, _ in probes]), ids.size),
            np.concatenate([k for _, k in probes]),
            np.tile(sketch, len(probes)),
        ], schema=buckets)

    def bucket_pairs(t: pa.Table) -> pa.Table:
        c, key, ids, sk = (t[n].to_numpy() for n in ("chunk", "chunk_key", "doc_id", "sketch"))
        order = np.lexsort((ids, key, c))
        first, _ = key_runs(c[order], key[order], ids[order])  # each doc once per bucket
        keep = order[first]
        c, key, ids, sk = c[keep], key[keep], ids[keep], sk[keep].view(np.uint64)
        a, b = _run_pairs(*key_runs(c, key), max_bucket)
        ham = np.unpackbits((sk[a] ^ sk[b]).view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1, dtype=np.int64)
        m = ham <= max_hamming
        return pa.table([ids[a][m], ids[b][m], ham[m]], schema=_HAMMING)

    def distinct_pairs(t: pa.Table) -> pa.Table:
        # a pair matches in up to C(n_chunks, 2) buckets, with one hamming
        a, b = t["doc_a"].to_numpy(), t["doc_b"].to_numpy()
        order = np.lexsort((b, a))
        return t.take(order[key_runs(a[order], b[order])[0]])

    pairs = group_by_key(sk.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True),
                         ["chunk", "chunk_key"], bucket_pairs, buckets)
    deduped = group_by_key(pairs, ["doc_a", "doc_b"], distinct_pairs, _HAMMING)
    return _collect_pairs(deduped) if collect else deduped


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

# Pair graphs with at most this many edges are labeled in ONE task
# (:func:`_cc_one_block`): near-dup edge sets are bounded by the dup
# rate, not the corpus, so even petabyte corpora usually produce graphs
# far below it, and the iterative path's per-round exchanges dominate
# its runtime there. 2M edges are ~32 MB. Tests set it to 0 to force
# the iterative path.
SMALL_GRAPH_ROWS = 2_000_000


def _cc_one_block(*blocks: pa.Table) -> pa.Table:
    """In-memory connected components of an edge list: vectorized
    hash-min + pointer jumping over index arrays (no Python per-edge
    loop). Exact; used for pair graphs up to ``SMALL_GRAPH_ROWS``."""
    b = pa.concat_tables([x for x in blocks if x.num_rows])
    a, d = _i64(b["doc_a"]), _i64(b["doc_b"])
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
    return pa.table([nodes, nodes[label]], schema=_LABELS)


def _nodes(ids: np.ndarray) -> pa.Table:
    """The distinct ``ids``, each labeled with itself."""
    u = np.unique(ids)
    return pa.table([u, u], schema=_LABELS)


_EDGES = pa.schema([("key", _I64), ("nbr", _I64), ("label", _I64)])
_MINS = pa.schema([("node", _I64), ("label", _I64), ("old", _I64)])


def _edge_rows(a: np.ndarray, d: np.ndarray) -> pa.Table:
    """Undirected edges (a, d) as one row per direction, keyed on the
    sending end."""
    return pa.table([np.concatenate([a, d]), np.concatenate([d, a]),
                     np.full(2 * a.size, -1, np.int64)], schema=_EDGES)


def connected_components(pairs, max_rounds: int = 32):
    """→ Dataset (node, label): label = MIN doc id in the node's connected
    component of the pair graph — the clustering step of "keep one doc
    per near-dup group".

    Distributed hash-min label propagation (Rastogi et al., "Finding
    Connected Components in Map-Reduce", ICDE 2013 family): each round
    every edge forwards its endpoint's current label to the neighbor and
    every node takes the min; the min label travels one hop per round,
    so rounds = component diameter (near-dup clusters are tiny — typical
    convergence in 2–4 rounds; ``max_rounds`` is a safety cap and
    non-convergence raises). Each round is two exchanges on the node id
    (send labels along edges; take the min per node) over the label
    table of the round before, which the exchange leaves in the object
    store (16 B/touched-node, spillable) — no lineage re-executes prior
    rounds.

    Only nodes that appear in ``pairs`` are labeled (singletons are
    trivially their own component — callers join them back, see
    :func:`near_dup_groups`). Graphs of at most ``SMALL_GRAPH_ROWS``
    edges take the one-task path instead."""
    import ray
    import ray.data as rd

    n_pairs = pairs.count()
    if n_pairs == 0:
        return rd.from_arrow(_LABELS.empty_table())
    if n_pairs <= SMALL_GRAPH_ROWS:
        return rd.from_arrow_refs([ray.remote(_cc_one_block).remote(*pairs.to_arrow_refs())])

    def endpoints(b: pa.Table) -> pa.Table:
        return _nodes(np.concatenate([_i64(b["doc_a"]), _i64(b["doc_b"])]))

    def edges(b: pa.Table) -> pa.Table:
        return _edge_rows(_i64(b["doc_a"]), _i64(b["doc_b"]))

    def label_rows(b: pa.Table) -> pa.Table:
        # pointer jumping: each (node → label) assignment acts as an extra
        # undirected edge, so the min label travels along label links too —
        # geometric diameter shrink, O(log d) rounds instead of O(d) — and
        # each node's own row carries its label to its sending part
        ids, lab = _i64(b["node"]), _i64(b["label"])
        m = lab != ids
        jump = _edge_rows(ids[m], lab[m])
        return pa.concat_tables([jump, pa.table([ids, np.full(ids.size, -1, np.int64), lab],
                                                schema=_EDGES)])

    def send(t: pa.Table) -> pa.Table:
        # every edge's sending end meets its label here: → (neighbor,
        # label) messages, plus each node's own label as the old value
        key, nbr, lab = (t[c].to_numpy() for c in ("key", "nbr", "label"))
        own = nbr < 0
        idx = pc.index_in(pa.array(key[~own]), value_set=pa.array(key[own]))
        hit = idx.is_valid().to_numpy(zero_copy_only=False)
        sent = lab[own][idx.drop_null().to_numpy()]
        return pa.table([np.concatenate([nbr[~own][hit], key[own]]),
                         np.concatenate([sent, lab[own]]),
                         np.concatenate([np.full(sent.size, -1, np.int64), lab[own]])], schema=_MINS)

    def take_min(t: pa.Table) -> pa.Table:
        g = t.group_by("node", use_threads=False).aggregate([("label", "min"), ("old", "max")])
        return pa.table({"node": g["node"], "label": g["label_min"],
                         "changed": pc.cast(pc.not_equal(g["label_min"], g["old_max"]), _I64)})

    L = group_by_key(pairs.map_batches(endpoints, batch_format="pyarrow", zero_copy_batch=True),
                     ["node"], lambda t: _nodes(t["node"].to_numpy()), _LABELS)
    for _ in range(max_rounds):
        legs = (pairs.map_batches(edges, batch_format="pyarrow", zero_copy_batch=True)
                .union(L.map_batches(label_rows, batch_format="pyarrow", zero_copy_batch=True)))
        L = group_by_key(group_by_key(legs, ["key"], send, _EDGES), ["node"], take_min, _MINS)
        if sum_blocks(L, lambda b: pc.sum(b["changed"]).as_py()) == 0:
            return L.select_columns(["node", "label"])
    raise RuntimeError(f"connected_components did not converge in {max_rounds} rounds")


def near_dup_groups(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 3,
    threshold: float = 0.8,
    max_shingle_df: int = 50,
    min_shared: int = 1,
):
    """→ Dataset (doc_id, group_id): every doc labeled with the MIN doc id
    of its near-dup cluster (exact n-gram Jaccard pairs ≥ threshold →
    connected components); docs with no near-dup are their own group.
    ``group_id == doc_id`` marks the canonical keeper — filtering on it
    IS the "one doc per near-dup cluster" dedup pass."""
    pairs = ngram_jaccard_pairs(
        ds, text_col, id_col, k=k, threshold=threshold,
        max_shingle_df=max_shingle_df, collect=False, min_shared=min_shared,
    )
    return attach_group_labels(ds, connected_components(pairs), id_col=id_col)


def near_dup_groups_minhash(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 3,
    n_hashes: int = 128,
    n_bands: int = 32,
    threshold: float = 0.8,
    seed: int = 42,
):
    """MinHash+LSH flavor of :func:`near_dup_groups` — identical output
    contract (doc_id, group_id), probabilistic recall: candidate pairs
    come from LSH banding instead of the exact shared-shingle join, so
    clusters can miss pairs LSH doesn't surface (tunable via
    n_hashes/n_bands). This is the 10^12-doc path: banding replaces the
    exact candidate join's shingle-keyed pair explosion with a
    bounded-signature shuffle; every surfaced pair is still
    exact-Jaccard verified before clustering."""
    pairs = minhash_near_dup_pairs(
        ds, text_col, id_col, k=k, n_hashes=n_hashes, n_bands=n_bands,
        threshold=threshold, seed=seed, collect=False,
    )
    return attach_group_labels(ds, connected_components(pairs), id_col=id_col)


def attach_group_labels(ds, comp, id_col: str = "doc_id", out_id_col: str = "doc_id"):
    """→ Dataset (out_id_col, group_id): every id in ``ds`` labeled with
    its component's min id from ``comp`` (node, label); ids absent from
    ``comp`` (singletons — no pair touched them) label themselves. One
    exchange of 8-byte ids on the id."""

    def doc_rows(b: pa.Table) -> pa.Table:
        ids = _i64(b[id_col])
        return pa.table([ids, np.full(ids.size, -1, np.int64)], schema=_LABELS)

    def comp_rows(b: pa.Table) -> pa.Table:
        return pa.table([_i64(b["node"]), _i64(b["label"])], schema=_LABELS)

    def join(t: pa.Table) -> pa.Table:
        node, lab = t["node"].to_numpy(), t["label"].to_numpy()
        doc = lab < 0
        idx = pc.index_in(pa.array(node[doc]), value_set=pa.array(node[~doc]))
        gid = pc.coalesce(pa.array(lab[~doc]).take(idx), pa.array(node[doc]))
        return pa.table({out_id_col: node[doc], "group_id": gid})

    legs = (ds.map_batches(doc_rows, batch_format="pyarrow", zero_copy_batch=True)
            .union(comp.map_batches(comp_rows, batch_format="pyarrow", zero_copy_batch=True)))
    return group_by_key(legs, ["node"], join, _LABELS)


# ---------------- span dedup ----------------

def _doc_sums(t: pa.Table, cols: list[str]) -> pa.Table:
    """(doc_id, *cols) rows → one row per doc_id, each column summed (a
    part's partial and the merge alike)."""
    g = t.group_by("doc_id", use_threads=False).aggregate([(c, "sum") for c in cols])
    return pa.table([g["doc_id"], *(g[c + "_sum"] for c in cols)], names=["doc_id", *cols])


def _span_hashes(texts: list, k: int, stride: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every ``k``-token span starting at multiples of ``stride`` of each
    analyzed doc (a trailing partial span kept when ``stride == k``) →
    (doc index, h1, h2): a 2×64-bit span identity, so engine/SQL
    divergence needs a 128-bit collision."""
    from ..functions.hashing import hash_strings

    toks = Analyzer("simple").tokens_batch([t or "" for t in texts])
    last = k if stride == k else 1  # chunks keep a trailing partial
    doc, spans = [], []
    for d, tl in enumerate(toks):
        for i in range(0, len(tl) - k + last, stride):
            doc.append(d)
            spans.append(" ".join(tl[i:i + k]))
    if not spans:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64)
    h1 = hash_strings(np.asarray(spans, dtype=object)).astype(np.int64)
    h2 = hash_strings(np.char.add(np.asarray(spans), "\x1e")).astype(np.int64)
    return np.asarray(doc, np.int64), h1, h2


def chunk_dedup_stats(ds, text_col: str = "text", id_col: str = "doc_id",
                      chunk_tokens: int = 8):
    """C4-style cross-document SPAN dedup, collapsed to per-doc stats:
    each doc's analyzed token stream splits into consecutive
    ``chunk_tokens``-token chunks (trailing partial kept), and every
    chunk occurrence except the globally FIRST — min (doc_id, chunk_idx)
    — counts as a drop (C4 removes repeated three-sentence spans across
    the corpus the same way; the reference has no analogue, this is the
    training-data side).

    → Dataset (doc_id, n_chunks, n_kept). Scale shape: the text never
    shuffles — only (doc_id, chunk_idx, hash128) rows do, in one
    exchange on the chunk hash whose reducers emit per-doc partials, and
    a second on the doc id merges them."""
    k = int(chunk_tokens)
    rows = pa.schema([("doc_id", _I64), ("chunk_idx", _I64), ("h1", _I64), ("h2", _I64)])
    cols = ["n_chunks", "n_kept"]

    def explode(batch: pa.Table) -> pa.Table:
        d, h1, h2 = _span_hashes(batch[text_col].to_pylist(), k, k)
        first = np.searchsorted(d, d)  # each doc's first chunk position
        return pa.table([_i64(batch[id_col])[d], np.arange(d.size) - first, h1, h2], schema=rows)

    def first_wins(t: pa.Table) -> pa.Table:
        d, ci, h1, h2 = (t[c].to_numpy() for c in ("doc_id", "chunk_idx", "h1", "h2"))
        order = np.lexsort((ci, d, h2, h1))
        kept = np.zeros(order.size, np.int64)
        kept[key_runs(h1[order], h2[order])[0]] = 1  # global first occurrence per chunk
        return _doc_sums(pa.table({"doc_id": d[order], "n_chunks": np.ones(order.size, np.int64),
                                   "n_kept": kept}), cols)

    per_part = group_by_key(ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True),
                            ["h1", "h2"], first_wins, rows)
    return group_by_key(per_part, ["doc_id"], lambda t: _doc_sums(t, cols),
                        pa.schema([("doc_id", _I64), ("n_chunks", _I64), ("n_kept", _I64)]))


def duplicate_span_stats(ds, text_col: str = "text", id_col: str = "doc_id",
                         span_tokens: int = 8):
    """Exact-substring duplication signal (Lee et al. 2021,
    "Deduplicating Training Data Makes Language Models Better" — the
    suffix-array method's per-doc outcome): every STRIDE-1 sliding
    ``span_tokens``-token window of every doc, marked duplicated when
    the identical token span occurs anywhere else in the corpus.

    → Dataset (doc_id, n_spans, n_dup_spans, dup_frac) over docs with at
    least ``span_tokens`` tokens (shorter docs have no spans — same rule
    as the SQL twin). The suffix array itself is obsoleted by the
    exchange: span identity is a 2×64-bit hash, so only
    (doc_id, h1, h2) rows move — the text never ships — in one exchange
    on the span hash whose reducers emit per-doc partials, and a second
    on the doc id merges them. Same scale shape as
    :func:`chunk_dedup_stats`, at stride-1 row volume (n_tokens rows per
    doc — the method's inherent cost)."""
    k = int(span_tokens)
    rows = pa.schema([("doc_id", _I64), ("h1", _I64), ("h2", _I64)])
    cols = ["n_spans", "n_dup_spans"]

    def explode(batch: pa.Table) -> pa.Table:
        d, h1, h2 = _span_hashes(batch[text_col].to_pylist(), k, 1)
        return pa.table([_i64(batch[id_col])[d], h1, h2], schema=rows)

    def mark_dups(t: pa.Table) -> pa.Table:
        d, h1, h2 = (t[c].to_numpy() for c in ("doc_id", "h1", "h2"))
        order = np.lexsort((h2, h1))
        starts, ends = key_runs(h1[order], h2[order])
        dup = np.repeat((ends - starts > 1).astype(np.int64), ends - starts)
        return _doc_sums(pa.table({"doc_id": d[order], "n_spans": np.ones(order.size, np.int64),
                                   "n_dup_spans": dup}), cols)

    def per_doc(t: pa.Table) -> pa.Table:
        s = _doc_sums(t, cols)
        n, dup = (s[c].to_numpy().astype(np.float64) for c in cols)
        return s.append_column("dup_frac", pa.array(np.round(dup / n, 6)))

    per_part = group_by_key(ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True),
                            ["h1", "h2"], mark_dups, rows)
    return group_by_key(per_part, ["doc_id"], per_doc,
                        pa.schema([("doc_id", _I64), ("n_spans", _I64), ("n_dup_spans", _I64)]))
