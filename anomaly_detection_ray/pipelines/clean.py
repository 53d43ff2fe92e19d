"""End-to-end corpus cleaning: the composition a training-data pipeline
actually runs over raw documents —

    quality filter  [→ decontamination]  →  exact dedup
        →  near-dup clustering  →  disposition

Every doc receives exactly one status:

- ``quality``      — failed the Gopher-rule quality bounds
                     (:func:`..functions.textstats.quality_flags`);
- ``contaminated`` — (only with ``bench_ds``) a quality survivor whose
                     distinct k-token shingles overlap the benchmark's
                     in ≥ ``min_overlap`` positions
                     (:func:`..stages.dedup.decontaminate` semantics);
- ``exact_dup``    — byte-identical text to a lower-id surviving doc
                     (sha256 exchange; text never shuffles for this stage);
- ``near_dup``     — n-gram-Jaccard ≥ threshold connected-component with a
                     lower-id member (:func:`..stages.dedup.near_dup_groups`);
- ``kept``         — the canonical survivor.

plus a ``group_id``: −1 for quality rejects, the keeper's id for exact
dups, the near-dup cluster's min id otherwise (``group_id == doc_id``
for every kept doc).

Deterministic and fully SQL-expressible — the DuckDB twin
(``__ray_entry__._corpus_clean_sql``) reproduces all three stages
including the candidate df-cap and the transitive closure.

Scale shape: two object-store materializations (the quality-filtered
corpus ``S`` and the exact-deduped corpus ``SE`` — both spillable,
``S`` released once ``SE`` exists), an exchange on the text hash that
ships 8-byte ids + 8-byte digests (never text), the shingle exchanges
inside :func:`near_dup_groups`, and one exchange on the doc id that
resolves each doc's status. Every grouping step is
:func:`..stages.exchange.exchange_by_key` on its real key; no driver
round-trips.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.dedup import _i64, near_dup_groups
from ..stages.exchange import group_by_key, key_runs, sum_blocks

# status codes travel the exchanges as int8; decoded to strings at the end.
# Numeric order IS the override priority in resolve() ('quality' the default).
_QUALITY, _CONTAM, _EXACT_DUP, _NEAR_DUP, _KEPT = 0, 1, 2, 3, 4
_STATUS_NAMES = np.array(["quality", "contaminated", "exact_dup", "near_dup", "kept"])
_SHA = pa.schema([("doc_id", pa.int64()), ("sha", pa.int64())])
_DISP = pa.schema([("doc_id", pa.int64()), ("keeper", pa.int64())])
_STATUS = pa.schema([("doc_id", pa.int64()), ("code", pa.int8()), ("group_id", pa.int64())])

# Above this many exact duplicates the survivors' text is joined to the
# keeper table by an exchange on the doc id; at or below it the dup ids
# are broadcast and anti-filtered in place (100k ids ≈ 800 KB).
EXACT_DUP_BROADCAST_MAX = 100_000


def _status_rows(ids: np.ndarray, code: np.ndarray, group_id: np.ndarray) -> pa.Table:
    return pa.table([ids, code, group_id], schema=_STATUS)


def _texts(text_col: str) -> pa.Schema:
    """Rows of the doc-id-keyed text joins: a text row has ``keeper``
    −1, a keeper row null text."""
    return pa.schema([("doc_id", pa.int64()), ("keeper", pa.int64()), (text_col, pa.string())])


def _text_leg(batch: pa.Table, id_col: str, text_col: str) -> pa.Table:
    ids = _i64(batch[id_col])
    return pa.table([ids, np.full(ids.size, -1, np.int64), pc.cast(batch[text_col], pa.string())],
                    schema=_texts(text_col))


def _keeper_leg(ids: np.ndarray, keeper: np.ndarray, text_col: str) -> pa.Table:
    return pa.table([ids, keeper, pa.nulls(ids.size, pa.string())], schema=_texts(text_col))


def _kept_texts(t: pa.Table, text_col: str) -> pa.Table:
    """(doc_id, text) of each id that is its own keeper, its text taken
    from the part's text rows (``pc.index_in`` + ``take``)."""
    ids, keeper = t["doc_id"].to_numpy(), t["keeper"].to_numpy()
    keep = pa.array(ids[keeper == ids])
    texts = t.filter(pa.array(keeper < 0))
    idx = pc.index_in(keep, value_set=texts["doc_id"].combine_chunks())
    return pa.table({"doc_id": keep.filter(pc.is_valid(idx)),
                     text_col: texts[text_col].take(idx.drop_null())})


def _quality_decontam(batch: pa.Table, bench: np.ndarray, text_col: str, id_col: str,
                      k: int, min_overlap: int, bounds: dict) -> pa.Table:
    """Fused quality + decontamination pass: ONE read of the text computes
    the Gopher flags and — for quality survivors only, so rejected docs
    never pay the shingle work — the benchmark shingle-overlap count
    against the broadcast bench set. Emits survivors with their text and
    contaminated ids with null text; downstream splits on nullness, so
    the corpus still streams through a single stage with no extra pass."""
    from ..functions.textstats import quality_flags
    from ..stages.dedup import _overlap_count

    q = quality_flags(batch[text_col].to_pylist(), **bounds)
    surv = batch.select([id_col, text_col]).filter(pa.array(q["keep"]))
    ov = _overlap_count(surv, bench, text_col, id_col, k)  # same row order as surv
    contam = ov["n_overlap"].to_numpy() >= min_overlap
    clean = surv.filter(pa.array(~contam))
    n_c = int(contam.sum())
    return pa.table({
        "doc_id": pa.concat_arrays([
            clean[id_col].cast(pa.int64()).combine_chunks(),
            ov["doc_id"].filter(pa.array(contam)).combine_chunks(),
        ]),
        text_col: pa.concat_arrays([
            clean[text_col].cast(pa.string()).combine_chunks(),
            pa.array([None] * n_c, pa.string()),
        ]),
    })


def corpus_clean(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    *,
    threshold: float = 0.5,
    k: int = 3,
    max_shingle_df: int = 50,
    min_shared: int = 2,
    pair_backend: str = "exact",
    bounds: dict | None = None,
    ids=None,
    bench_ds=None,
    decontam_k: int = 8,
    min_overlap: int = 1,
    redact: bool = False,
):
    """→ Dataset (doc_id, status, group_id) — one row per input doc.

    ``redact=True`` prepends the PII scrub (``stages/pii.py``) so
    quality metrics and dedup hashes see the REDACTED text — two docs
    differing only in an email/IP/phone become exact duplicates, the
    standard scrub-before-dedup order of the C4/RefinedWeb recipes (one
    stateless stage; no extra scan or shuffle).

    ``bounds`` overrides individual Gopher rule bounds (see
    ``textstats.GOPHER_BOUNDS``); ``threshold``/``k``/``max_shingle_df``
    parameterize the near-dup stage exactly like
    :func:`..stages.dedup.ngram_jaccard_pairs`. ``ids`` optionally
    supplies an id-only Dataset for the default-status leg (pass a
    pruned read so the final pass never re-decodes text).

    ``bench_ds`` (optional) switches on the decontamination stage: a
    small benchmark/eval Dataset whose distinct ``decontam_k``-token
    shingles are broadcast once; quality survivors overlapping it in ≥
    ``min_overlap`` shingles are removed (status ``contaminated``)
    BEFORE dedup, so a contaminated doc can never become a keeper. The
    check fuses into the quality pass — no extra corpus scan or shuffle.

    Mirrors the cleaning pass a reference user would express as a chain
    of ingest processors + dedup jobs; statuses are the audit trail
    (resumable: rerunning over the same input is idempotent).
    """
    from ..functions.textstats import quality_flags

    bounds = bounds or {}
    if redact:
        from ..stages.pii import redact_pii

        ds = redact_pii(ds, text_col=text_col, counts=False)
    contam_ids = None  # Dataset of contaminated doc ids (bench_ds only)

    if bench_ds is not None:
        import ray

        from ..stages.dedup import bench_shingle_ref

        ref = bench_shingle_ref(bench_ds, text_col, id_col, decontam_k)
        mo = int(min_overlap)
        # FS: survivors carry text, contaminated ids carry null text —
        # one materialization feeds both splits (filters over it are
        # cheap re-runs; the text scan + flags + shingling run once).
        FS = ds.map_batches(
            lambda b: _quality_decontam(b, ray.get(ref), text_col, id_col, decontam_k, mo, bounds),
            batch_format="pyarrow", zero_copy_batch=True,
        ).materialize()
        S = FS.map_batches(
            lambda b: b.filter(pc.is_valid(b[text_col])),
            batch_format="pyarrow", zero_copy_batch=True,
        )
        contam_ids = FS.map_batches(
            lambda b: b.filter(pc.is_null(b[text_col])).select(["doc_id"]),
            batch_format="pyarrow", zero_copy_batch=True,
        ).materialize()  # ids only — tiny; lets FS release once S is consumed
        # rename to the caller's id column so sha_rows/s_leg read it uniformly
        if id_col != "doc_id":
            S = S.map_batches(lambda b: b.rename_columns([id_col, text_col]),
                              batch_format="pyarrow", zero_copy_batch=True)
    else:
        def keep_quality(batch: pa.Table) -> pa.Table:
            q = quality_flags(batch[text_col].to_pylist(), **bounds)
            return batch.select([id_col, text_col]).filter(pa.array(q["keep"]))

        # S: the quality-filtered corpus. Materialized because it fans out
        # to the sha leg and the semi-join leg (consuming a lazy diamond
        # would re-run the scan + flags once per consumer).
        S = ds.map_batches(keep_quality, batch_format="pyarrow", zero_copy_batch=True).materialize()

    # ---- exact-dedup disposition: (doc_id, keeper) ----
    def sha_rows(batch: pa.Table) -> pa.Table:
        # 64-bit prefix of sha256: the shuffle ships 16 B/doc, and the
        # keeper decision only needs equality (collisions ~n²/2⁶⁴)
        sha = np.fromiter(
            (int.from_bytes(hashlib.sha256((t or "").encode()).digest()[:8], "big") for t in batch[text_col].to_pylist()),
            dtype=np.uint64,
            count=batch.num_rows,
        ).astype(np.int64)
        return pa.table([_i64(batch[id_col]), sha], schema=_SHA)

    def keeper_of_text(t: pa.Table) -> pa.Table:
        ids, sha = t["doc_id"].to_numpy(), t["sha"].to_numpy()
        order = np.lexsort((ids, sha))
        starts, ends = key_runs(sha[order])
        return pa.table([ids[order], np.repeat(ids[order][starts], ends - starts)], schema=_DISP)

    # tiny (16 B/doc); read twice below
    disp = group_by_key(S.map_batches(sha_rows, batch_format="pyarrow", zero_copy_batch=True),
                        ["sha"], keeper_of_text, _SHA)
    n_exact_dups = sum_blocks(disp, lambda b: pc.sum(pc.not_equal(b["doc_id"], b["keeper"])).as_py())
    if n_exact_dups == 0:
        # no identical texts → the semi-join is the identity; skip its
        # text-bearing exchange and feed S straight to the near-dup stage
        SE = S.map_batches(
            lambda b: pa.table({"doc_id": b[id_col].cast(pa.int64()), text_col: b[text_col]}),
            batch_format="pyarrow", zero_copy_batch=True,
        ).materialize()
    elif n_exact_dups <= EXACT_DUP_BROADCAST_MAX:
        # small dup set → broadcast the dup-id list and anti-filter in
        # place of the text-bearing exchange (the classic
        # broadcast-small-side join; 100k ids ≈ 800 KB)
        dup_tbl = disp.map_batches(
            lambda b: pa.table({"doc_id": b["doc_id"].take(
                pc.indices_nonzero(pc.not_equal(b["doc_id"], b["keeper"])))}),
            batch_format="pyarrow", zero_copy_batch=True,
        ).to_pandas()
        dup_ids = np.sort(dup_tbl["doc_id"].to_numpy(np.int64))

        def drop_dups(b: pa.Table) -> pa.Table:
            ids_ = b[id_col].to_numpy().astype(np.int64)
            keep = ~np.isin(ids_, dup_ids, assume_unique=True)
            t = b.filter(pa.array(keep))
            return pa.table({"doc_id": t[id_col].cast(pa.int64()), text_col: t[text_col]})

        SE = S.map_batches(drop_dups, batch_format="pyarrow", zero_copy_batch=True).materialize()
    else:
        # exact-dedup survivors with text: an exchange on the doc id
        SE = group_by_key(
            S.map_batches(lambda b: _text_leg(b, id_col, text_col), batch_format="pyarrow",
                          zero_copy_batch=True)
            .union(disp.map_batches(lambda b: _keeper_leg(_i64(b["doc_id"]), _i64(b["keeper"]), text_col),
                                    batch_format="pyarrow", zero_copy_batch=True)),
            ["doc_id"], lambda t: _kept_texts(t, text_col), _texts(text_col),
        )
    del S  # release the pre-dedup corpus from the object store

    # ---- near-dup clustering over the exact survivors ----
    # min_shared=2 default: a qualifying pair at threshold 0.5 over
    # ≥50-token docs shares ≥24 shingles, so requiring 2 low-df shared
    # shingles costs no recall while pruning the generic-shingle
    # candidate flood (mirrored in the SQL twin's HAVING clause).
    # pair_backend='minhash' swaps in LSH candidate generation — the
    # 10^12-doc path (probabilistic recall; no SQL twin — pytest-covered)
    if pair_backend == "exact":
        groups = near_dup_groups(
            SE, text_col, "doc_id", k=k, threshold=threshold,
            max_shingle_df=max_shingle_df, min_shared=min_shared,
        )
    elif pair_backend == "minhash":
        from ..stages.dedup import near_dup_groups_minhash

        groups = near_dup_groups_minhash(SE, text_col, "doc_id", k=k, threshold=threshold)
    else:
        raise ValueError(f"unknown pair_backend {pair_backend!r}")

    # ---- resolve: one status row per input doc ----
    # Default leg gives every doc 'quality'; the exact/near legs override
    # (a doc has at most one override row). Rank = status code works as
    # the override priority because 'quality' is 0.
    def default_leg(batch: pa.Table) -> pa.Table:
        ids = _i64(batch[id_col])
        return _status_rows(ids, np.full(ids.size, _QUALITY, np.int8), np.full(ids.size, -1, np.int64))

    def exact_leg(batch: pa.Table) -> pa.Table:
        ids, keeper = _i64(batch["doc_id"]), _i64(batch["keeper"])
        m = keeper != ids
        return _status_rows(ids[m], np.full(m.sum(), _EXACT_DUP, np.int8), keeper[m])

    def group_leg(batch: pa.Table) -> pa.Table:
        ids, gid = _i64(batch["doc_id"]), _i64(batch["group_id"])
        return _status_rows(ids, np.where(gid < ids, _NEAR_DUP, _KEPT).astype(np.int8), gid)

    def contam_leg(batch: pa.Table) -> pa.Table:
        ids = _i64(batch["doc_id"])
        return _status_rows(ids, np.full(ids.size, _CONTAM, np.int8), np.full(ids.size, -1, np.int64))

    def resolve(t: pa.Table) -> pa.Table:
        ids, code = t["doc_id"].to_numpy(), t["code"].to_numpy()
        order = np.lexsort((code, ids))
        starts, ends = key_runs(ids[order])
        last = order[ends - 1]  # each doc's highest-priority row
        return pa.table({"doc_id": ids[last], "status": _STATUS_NAMES[code[last]],
                         "group_id": t["group_id"].take(pa.array(last))})

    ids_ds = ids if ids is not None else ds.select_columns([id_col])
    legs = (
        ids_ds.map_batches(default_leg, batch_format="pyarrow", zero_copy_batch=True)
        .union(disp.map_batches(exact_leg, batch_format="pyarrow", zero_copy_batch=True))
        .union(groups.map_batches(group_leg, batch_format="pyarrow", zero_copy_batch=True))
    )
    if contam_ids is not None:
        legs = legs.union(contam_ids.map_batches(contam_leg, batch_format="pyarrow",
                                                 zero_copy_batch=True))
    return group_by_key(legs, ["doc_id"], resolve, _STATUS)


def clean_and_write(ds, out_dir: str, text_col: str = "text", id_col: str = "doc_id",
                    n_shards: int = 64, **clean_kwargs) -> dict:
    """Run :func:`corpus_clean` and write the KEPT docs (id + text) as
    hash-sharded Parquet under ``out_dir/shard=K/`` — the consumable
    output of the cleaning pass. Returns {'kept': n, 'total': n}.

    Shards are deterministic in the doc id and written with atomic
    partition replacement (staging dir + swap), so a rerun reproduces
    the same layout instead of appending duplicates, a failed run never
    leaves a half-written shard visible, and a reader can process shards
    independently.
    The statuses Dataset is the audit log — persist it separately if the
    dispositions matter downstream.
    """
    statuses = corpus_clean(ds, text_col, id_col, **clean_kwargs)
    if clean_kwargs.get("redact"):
        # the written corpus must carry the SAME scrubbed text the
        # dispositions were computed over
        from ..stages.pii import redact_pii

        ds = redact_pii(ds, text_col=text_col, counts=False)
    n_total = statuses.count()

    def kept_leg(batch: pa.Table) -> pa.Table:
        ids = _i64(batch.filter(pc.equal(batch["status"], "kept"))["doc_id"])
        return _keeper_leg(ids, ids, text_col)

    def sharded(t: pa.Table) -> pa.Table:
        out = _kept_texts(t, text_col)
        return out.append_column("shard", pa.array(out["doc_id"].to_numpy() % n_shards))

    kept = group_by_key(
        statuses.map_batches(kept_leg, batch_format="pyarrow", zero_copy_batch=True)
        .union(ds.map_batches(lambda b: _text_leg(b, id_col, text_col), batch_format="pyarrow",
                              zero_copy_batch=True)),
        ["doc_id"], sharded, _texts(text_col),
    )
    from ..stages.sink import _write_replacing_partitions

    _write_replacing_partitions(kept, out_dir, partition_col="shard")
    import pyarrow.dataset as pads

    n_kept = pads.dataset(out_dir, partitioning="hive").count_rows()
    return {"kept": n_kept, "total": n_total}
