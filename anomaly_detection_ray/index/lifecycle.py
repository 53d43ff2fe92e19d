"""Index lifecycle: tombstone deletes + compaction (segment merge).

Lucene's delete/merge model, rebuilt over the parquet segment format:

- ``delete_docs`` records doc ids in a tombstone file and flips the
  manifest atomically. Postings are NOT rewritten; the QueryEngine
  filters tombstoned docs at decode time, and the global statistics
  (n_docs, avgdl, df) stay STALE until compaction — exactly Lucene's
  semantics between a delete and a merge, so live docs' BM25 scores are
  unchanged by a delete.
- ``delete_by_query`` resolves a filter-DSL query to doc ids first —
  the OpenSearch ``_delete_by_query`` the reference plugin itself uses
  to clean result indices
  (`/root/reference/src/main/java/org/opensearch/timeseries/transport/DeleteConfigTransportAction.java`
  and the `DeleteByQueryRequest` uses in `ad/transport/`).
- ``compact_index`` merges every slice into ONE fresh slice, purging
  tombstones and recomputing exact global stats (df, cttf, n_docs,
  avgdl) — Lucene's forceMerge(1). After compaction, BM25 scores equal
  a from-scratch build over the live docs (tested rank- and
  score-identical). Old slice dirs stay on disk until ``gc=True``
  removes them, so a crash mid-compact leaves the old index serving
  (the manifest flip is the commit point).

Scale shape: compaction re-partitions the existing posting CHUNKS by
the same (term-hash + doc-bucket) key used at build time — a raw-Ray
hash exchange over already-compressed rows (the varint streams ship
through the object store as-is; only the reducer decodes). No
re-tokenization, no text access: a 100 TB corpus compacts by moving
its ~x-times-smaller index, not its documents.
"""

from __future__ import annotations

import hashlib
import json
import os
from glob import glob

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.hashing import hash_strings, sha256_file
from .build import MANIFEST_NAME, _finalize_index, next_slice_id
from .segments import DEFAULT_BLOCK_SIZE, decode_chunks_bulk, encode_rows_batched

DELETES_REL = "deletes/deleted.parquet"
# live_from for a plain delete: no slice id ever reaches it → dead everywhere
LIVE_NEVER = 1 << 62


def _load_manifest(index_dir: str) -> dict:
    with open(os.path.join(index_dir, MANIFEST_NAME)) as f:
        return json.load(f)


def _write_manifest(index_dir: str, manifest: dict) -> None:
    path = os.path.join(index_dir, MANIFEST_NAME)
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp, path)


def load_tombstones(
    index_dir: str, manifest: dict | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(sorted doc ids, aligned live_from slice ids). A tombstoned doc
    is DEAD in every slice with id < its live_from — ``LIVE_NEVER`` for
    plain deletes, the re-add slice id for updates (Lucene's
    delete-old-segment-copies update model, per-segment liveness)."""
    manifest = manifest or _load_manifest(index_dir)
    d = manifest.get("deletes")
    if not d:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    t = pq.read_table(os.path.join(index_dir, d["path"]))
    ids = t["doc_id"].to_numpy().astype(np.int64)
    if "live_from" in t.column_names:
        lf = t["live_from"].to_numpy().astype(np.int64)
    else:
        lf = np.full(ids.size, LIVE_NEVER, dtype=np.int64)
    return ids, lf


def load_deleted(index_dir: str, manifest: dict | None = None) -> np.ndarray:
    """Sorted int64 doc ids deleted EVERYWHERE ([] when none)."""
    ids, lf = load_tombstones(index_dir, manifest)
    return ids[lf >= LIVE_NEVER]


def delete_docs(index_dir: str, doc_ids, live_from: int = LIVE_NEVER) -> dict:
    """Tombstone ``doc_ids`` (merged with prior tombstones, idempotent;
    the NEW batch's ``live_from`` overrides on overlap — a later delete
    or update wins).

    Writes the tombstone parquet atomically, then flips the manifest —
    readers opened before the flip keep serving the old view; new
    :class:`..query.QueryEngine` instances filter the deleted docs from
    every query path. Returns the updated manifest."""
    manifest = _load_manifest(index_dir)
    new = np.unique(np.asarray(list(doc_ids), dtype=np.int64))
    old_ids, old_lf = load_tombstones(index_dir, manifest)
    keep = np.isin(old_ids, new, invert=True)
    ids = np.concatenate([old_ids[keep], new])
    lf = np.concatenate([old_lf[keep], np.full(new.size, int(live_from), np.int64)])
    order = np.argsort(ids)
    ids, lf = ids[order], lf[order]
    path = os.path.join(index_dir, DELETES_REL)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp-{os.getpid()}"
    pq.write_table(
        pa.table(
            {"doc_id": pa.array(ids, pa.int64()), "live_from": pa.array(lf, pa.int64())}
        ),
        tmp,
    )
    os.replace(tmp, path)
    manifest["deletes"] = {
        "path": DELETES_REL,
        "n_deleted": int(ids.size),
        "sha256": sha256_file(path),
    }
    _write_manifest(index_dir, manifest)
    return manifest


def live_mask(docs, slices, ids: np.ndarray, lf: np.ndarray) -> np.ndarray:
    """Element-wise survival of postings/rows against scoped tombstones:
    a doc survives iff it is not tombstoned, OR its slice id ≥ the
    tombstone's live_from (the copy added at/after the update)."""
    idx = np.searchsorted(ids, docs)
    idxc = np.minimum(idx, ids.size - 1)
    tomb = (idx < ids.size) & (ids[idxc] == docs)
    return ~tomb | (np.asarray(slices) >= lf[idxc])


def update_docs(
    index_dir: str, new_files: list[str], id_col: str = "doc_id", **kwargs
) -> dict:
    """Replace documents by id: tombstone every doc id present in
    ``new_files`` scoped to slices OLDER than the segment those files
    become, then segment-add the files — Lucene's update model
    (delete-in-old-segments + add-in-new-segment), so the same doc_id
    serves its NEW content immediately, no compaction required.

    Idempotent: re-running with files already indexed re-points the
    tombstones at their existing slice. A crash between the tombstone
    flip and the segment add leaves the docs briefly absent (not
    duplicated); the rerun completes the add."""
    from .build import _slice_fingerprint, extend_index, next_slice_id

    manifest = _load_manifest(index_dir)
    fp = _slice_fingerprint(new_files)
    sid = None
    import re

    for s in manifest["slices"]:
        with open(os.path.join(index_dir, s["dir"], "_slice_manifest.json")) as f:
            if json.load(f).get("input_fingerprint") == fp:
                sid = int(re.search(r"(\d+)$", s["dir"]).group(1))
                break
    if sid is None:
        sid = next_slice_id(manifest)
    ids = np.unique(
        np.concatenate(
            [pq.read_table(f, columns=[id_col])[id_col].to_numpy() for f in new_files]
        )
    ).astype(np.int64)
    delete_docs(index_dir, ids, live_from=sid)
    return extend_index(index_dir, new_files, id_col=id_col, **kwargs)


def delete_by_query(index_dir: str, query: dict) -> tuple[dict, int]:
    """Resolve a filter-DSL query against the CURRENT live view and
    tombstone the matches (OpenSearch ``_delete_by_query``). Returns
    (manifest, n_newly_deleted)."""
    from .query import QueryEngine

    docs = QueryEngine(index_dir).execute_filter(query)
    if docs.size == 0:
        return _load_manifest(index_dir), 0
    return delete_docs(index_dir, docs), int(docs.size)


def _compact_partition(
    kh: int,
    out_dir: str,
    block_size: int,
    tombs: tuple[np.ndarray, np.ndarray],
    *parts: pa.Table,
) -> dict | None:
    """Reducer: all existing chunks of one target partition → decode,
    drop tombstoned postings (scoped by each chunk's slice id), re-sort,
    bulk re-encode as ONE doc-ordered chunk per (term, bucket). Runs as
    a Ray task per partition."""
    parts = [p for p in parts if p.num_rows]
    if not parts:
        return None
    group = pa.concat_tables(parts)
    rows = group.to_pylist()
    docs, tfs, dls, off = decode_chunks_bulk(rows, block_size)
    counts = np.diff(off)
    terms_arr = np.asarray(group["term"].to_pylist(), dtype=object)
    ucodes, codes = np.unique(terms_arr, return_inverse=True)
    code_all = np.repeat(codes, counts)
    bucket_all = np.repeat(group["bucket"].to_numpy(), counts)

    del_ids, del_lf = tombs
    if del_ids.size:
        slice_all = np.repeat(group["slice"].to_numpy(), counts)
        keep = live_mask(docs, slice_all, del_ids, del_lf)
        docs, tfs, dls = docs[keep], tfs[keep], dls[keep]
        code_all, bucket_all = code_all[keep], bucket_all[keep]
    if docs.size == 0:
        return None

    order = np.lexsort((docs, bucket_all, code_all))
    docs, tfs, dls = docs[order], tfs[order], dls[order]
    code_all, bucket_all = code_all[order], bucket_all[order]

    change = np.empty(code_all.size, dtype=bool)
    change[0] = True
    np.not_equal(code_all[1:], code_all[:-1], out=change[1:])
    change[1:] |= bucket_all[1:] != bucket_all[:-1]
    dup = np.zeros(code_all.size, dtype=bool)
    dup[1:] = (docs[1:] == docs[:-1]) & ~change[1:]
    if dup.any():
        raise ValueError("duplicate doc_id across slices — corrupt index")
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], code_all.size)

    tbl = encode_rows_batched(
        ucodes[code_all[starts]].astype(object),
        bucket_all[starts],
        docs,
        tfs,
        dls,
        starts,
        ends,
        block_size,
    )
    path = os.path.join(out_dir, f"part-{kh:05d}.parquet")
    tmp = f"{path}.tmp.{os.getpid()}"
    pq.write_table(tbl, tmp, row_group_size=4096)
    os.replace(tmp, path)
    return {
        "kh": kh,
        "path": os.path.basename(path),
        "sha256": sha256_file(path),
        "n_rows": tbl.num_rows,
        "n_terms": int(len(np.unique(code_all))),
        "df_sum": int(docs.size),
        "tf_sum": int(tfs.sum()),
        "resumed": False,
    }


def compact_index(
    index_dir: str,
    *,
    num_partitions: int | None = None,
    gc: bool = False,
) -> dict:
    """Merge ALL slices into one, purging tombstones and recomputing
    exact global stats — forceMerge(1). See :func:`merge_slices`."""
    return merge_slices(index_dir, num_partitions=num_partitions, gc=gc)


def maybe_merge(index_dir: str, max_slices: int = 8, **kwargs) -> dict | None:
    """Tiered-merge policy for continuously-growing indexes: when the
    slice count exceeds ``max_slices``, merge the SMALLEST slices (by
    doc count) down to ``max_slices`` total — Lucene's TieredMergePolicy
    shape (many small tick-segments fold together; big settled segments
    are left alone, so merge I/O stays proportional to the new data,
    not the index). Returns the new manifest, or None when under the
    cap."""
    manifest = _load_manifest(index_dir)
    slices = manifest["slices"]
    if len(slices) <= max_slices:
        return None
    n_merge = len(slices) - max_slices + 1
    victims = [s["dir"] for s in sorted(slices, key=lambda s: (s["n_docs"], s["dir"]))[:n_merge]]
    return merge_slices(index_dir, slice_dirs=victims, **kwargs)


def merge_slices(
    index_dir: str,
    *,
    slice_dirs: list[str] | None = None,
    num_partitions: int | None = None,
    gc: bool = False,
) -> dict:
    """Merge the given slices (default: all) into ONE fresh slice,
    purging their tombstoned postings. A FULL merge (every slice) also
    clears the tombstone record and recomputes exact stats —
    forceMerge(1); a PARTIAL merge keeps the tombstones (they still
    govern the untouched slices; the merged slice's id is newer than
    every ``live_from``, so re-added update copies stay live and purged
    copies stay gone). See module docstring for the exchange shape.

    ``num_partitions`` re-buckets the merged postings (default: the
    largest merged slice's partition count). ``gc=True`` removes the
    replaced slice dirs (and, on a full merge, the tombstone file)
    AFTER the manifest flip."""
    import ray
    import ray.data as rd

    import re

    manifest = _load_manifest(index_dir)
    block_size = int(manifest.get("block_size", DEFAULT_BLOCK_SIZE))
    del_ids, del_lf = load_tombstones(index_dir, manifest)
    deleted_tag = hashlib.sha256(del_ids.tobytes() + del_lf.tobytes()).hexdigest()[:16]
    all_dirs = [s["dir"] for s in manifest["slices"]]
    if slice_dirs is None:
        slice_dirs = list(all_dirs)
    unknown = set(slice_dirs) - set(all_dirs)
    if unknown:
        raise ValueError(f"not index slices: {sorted(unknown)}")
    full = set(slice_dirs) == set(all_dirs)
    merged_entries = [s for s in manifest["slices"] if s["dir"] in set(slice_dirs)]
    kept_entries = [s for s in manifest["slices"] if s["dir"] not in set(slice_dirs)]
    old_dirs = [s["dir"] for s in merged_entries]
    slice_ids = [int(re.search(r"(\d+)$", d).group(1)) for d in old_dirs]
    slice_manifests = []
    for d in old_dirs:
        with open(os.path.join(index_dir, d, "_slice_manifest.json")) as f:
            slice_manifests.append(json.load(f))
    kept_manifests = []
    for s in kept_entries:
        with open(os.path.join(index_dir, s["dir"], "_slice_manifest.json")) as f:
            kept_manifests.append(json.load(f))
    if num_partitions is None:
        num_partitions = max(m.get("num_partitions", 16) for m in slice_manifests)

    sid = next_slice_id(manifest)
    rel_dir = f"segments/slice-{sid:04d}"
    slice_dir = os.path.join(index_dir, rel_dir)
    if os.path.exists(slice_dir):
        # leftover from a crashed compact (sid is past every manifest-
        # referenced slice, so nothing here is being served) — start clean
        import shutil

        shutil.rmtree(slice_dir)
    postings_dir = os.path.join(slice_dir, "postings")
    os.makedirs(postings_dir, exist_ok=True)

    # --- postings: hash exchange of existing chunks by the same
    # (term-hash + bucket) % P key, raw-Ray tasks (build.py's exchange
    # pattern; compressed rows move zero-copy, only reducers decode).
    # Each slice reads with its slice id attached so the reducers can
    # apply the SCOPED tombstone rule (updates kill only older copies).
    def _with_slice(sid_: int):
        def add(b: pa.Table) -> pa.Table:
            kh = (
                hash_strings(b["term"].to_pylist())
                + b["bucket"].to_numpy().astype(np.uint64)
            ) % np.uint64(num_partitions)
            b = b.append_column("kh", pa.array(kh.astype(np.int64)))
            return b.append_column(
                "slice", pa.array(np.full(b.num_rows, sid_, np.int64))
            )

        return add

    per_slice = []
    for s, sid_ in zip(merged_entries, slice_ids):
        files = sorted(
            os.path.join(index_dir, s["dir"], "postings", p["path"])
            for p in s["partitions"]
        )
        if files:
            per_slice.append(
                rd.read_parquet(files).map_batches(
                    _with_slice(sid_), batch_format="pyarrow", zero_copy_batch=True
                )
            )
    chunks = per_slice[0].union(*per_slice[1:]) if len(per_slice) > 1 else per_slice[0]

    from .build import _split_table_by_kh

    split = ray.remote(num_returns=num_partitions)(_split_table_by_kh)
    compact = ray.remote(_compact_partition)
    deleted_ref = ray.put((del_ids, del_lf))
    part_refs: list[list] = [[] for _ in range(num_partitions)]
    for bundle in chunks.iter_internal_ref_bundles():
        for ref in bundle.block_refs:
            outs = split.remote(ref, num_partitions)
            if num_partitions == 1:
                outs = [outs]
            for p, r in enumerate(outs):
                part_refs[p].append(r)
    futures = [
        compact.remote(p, postings_dir, block_size, deleted_ref, *part_refs[p])
        for p in range(num_partitions)
    ]
    manifest_rows = [r for r in ray.get(futures) if r is not None]

    # --- docmap: stream-filter tombstoned rows into the new slice
    docmap_dir = os.path.join(slice_dir, "docmap")

    def _drop_dead(sid_: int):
        def drop(b: pa.Table) -> pa.Table:
            if not del_ids.size:
                return b
            keep = live_mask(
                b["doc_id"].to_numpy().astype(np.int64), sid_, del_ids, del_lf
            )
            return b.filter(pa.array(keep))

        return drop

    def _per_slice_read(subdir: str, extra=None):
        slice_files = [
            (sid_, sorted(glob(os.path.join(index_dir, s["dir"], subdir, "*.parquet"))))
            for s, sid_ in zip(merged_entries, slice_ids)
        ]
        # slices may differ in metadata columns (update files need not
        # repeat every keep_col): pad every batch to the unified schema
        target = pa.unify_schemas(
            [pq.read_schema(f) for _, fs in slice_files for f in fs[:1]]
        )

        def pad(b: pa.Table) -> pa.Table:
            for name, typ in zip(target.names, target.types):
                if name not in b.column_names:
                    b = b.append_column(name, pa.nulls(b.num_rows, typ))
            return b.select(target.names)

        parts = []
        for sid_, files in slice_files:
            if not files:
                continue
            ds = rd.read_parquet(files).map_batches(
                _drop_dead(sid_), batch_format="pyarrow", zero_copy_batch=True
            ).map_batches(pad, batch_format="pyarrow", zero_copy_batch=True)
            if extra is not None:
                ds = ds.map_batches(extra, batch_format="pyarrow", zero_copy_batch=True)
            parts.append(ds)
        return parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]

    _per_slice_read("docmap").write_parquet(docmap_dir)
    n_docs = sum(
        pq.read_metadata(f).num_rows for f in glob(os.path.join(docmap_dir, "*.parquet"))
    )

    # --- positions sidecar (phrase queries), if present
    store_positions = bool(manifest.get("store_positions", False))
    if store_positions:
        pos_dir = os.path.join(slice_dir, "positions")

        def add_pk(b: pa.Table) -> pa.Table:
            pk = hash_strings(b["term"].to_pylist()) % np.int64(num_partitions)
            return b.append_column("pk", pa.array(pk.astype(np.int64)))

        def sort_group(g: pa.Table) -> pa.Table:
            return g.sort_by(
                [("term", "ascending"), ("doc_id", "ascending")]
            ).drop_columns(["pk"])

        (
            _per_slice_read("positions", extra=add_pk)
            .groupby("pk")
            .map_groups(sort_group, batch_format="pyarrow")
            .write_parquet(pos_dir)
        )

    total_tokens = int(sum(r["tf_sum"] for r in manifest_rows))
    sm = {
        "input_files": [f"merged:{d}" for d in old_dirs],
        "input_fingerprint": hashlib.sha256(
            (";".join(old_dirs) + "|" + deleted_tag).encode()
        ).hexdigest(),
        "n_docs": int(n_docs),
        "total_tokens": total_tokens,
        "num_partitions": num_partitions,
        "bucket_shift": manifest.get("bucket_shift", 17),
        "block_size": block_size,
        "analyzer_mode": manifest.get("analyzer_mode", "code"),
        "store_positions": store_positions,
        "partitions": sorted(manifest_rows, key=lambda r: r["kh"]),
        "resumed": False,
    }
    with open(os.path.join(slice_dir, "_slice_manifest.json"), "w") as f:
        json.dump(sm, f, indent=1)

    out = _finalize_index(
        index_dir,
        kept_manifests + [sm],
        mode=manifest.get("analyzer_mode", "code"),
        bucket_shift=manifest.get("bucket_shift", 17),
        block_size=block_size,
        store_positions=store_positions,
        dirs=[s["dir"] for s in kept_entries] + [rel_dir],
        # a FULL merge purges every tombstone; a partial one keeps them
        # (they still govern the untouched slices — harmless for the new
        # slice, whose id is newer than every live_from)
        deletes=None if full else manifest.get("deletes"),
        text_field=manifest.get("text_field"),
    )

    if gc:
        import shutil

        for d in old_dirs:
            shutil.rmtree(os.path.join(index_dir, d), ignore_errors=True)
        if full:
            shutil.rmtree(os.path.join(index_dir, "deletes"), ignore_errors=True)
    return out
