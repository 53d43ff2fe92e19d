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

Merge shape: ONE Ray Data read of every merged slice's posting files
(``include_paths=True``; each row's slice id comes from its path), the
rows tagged with the build's (term-hash + doc-bucket) partition key and
moved through the build's raw-Ray exchange — compressed rows ship
through the object store as-is, and the build's own reducer
(``build.reduce_postings``) decodes them, drops the postings the scoped
tombstones kill and re-encodes. The docmap files are rewritten by
one plain task per old file (read, drop tombstoned rows, write),
submitted before the exchange so the two overlap. No re-tokenization,
no text access: a 100 TB corpus compacts by moving its ~x-times-smaller
index, not its documents. The positional sidecar, when the index has
one, is one more read through the same exchange, split by term hash.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from glob import glob

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.hashing import sha256_file
from ..stages.exchange import exchange
from .build import (
    MANIFEST_NAME,
    _add_partition_key,
    _finalize_index,
    _read_blocks,
    _split_table_by_kh,
    _write_part,
    _write_positions,
    next_slice_id,
    reduce_postings,
)
from .segments import DECODE_COLUMNS, DEFAULT_BLOCK_SIZE
# not used here: perfbench/trace.py wraps lifecycle.encode_rows_batched by this name
from .segments import encode_rows_batched  # noqa: F401

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
    for s in manifest["slices"]:
        with open(os.path.join(index_dir, s["dir"], "_slice_manifest.json")) as f:
            if json.load(f).get("input_fingerprint") == fp:
                sid = _slice_id(s["dir"])
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


def _slice_id(slice_dir: str) -> int:
    """A slice's id: the trailing integer of its directory name."""
    return int(re.search(r"(\d+)$", slice_dir).group(1))


def _path_slice_ids(batch: pa.Table) -> np.ndarray:
    """Slice id of each row read with ``include_paths=True`` from
    ``<slice>/<sub>/*.parquet``."""
    paths = batch["path"].combine_chunks().dictionary_encode()
    sids = [_slice_id(os.path.dirname(os.path.dirname(p))) for p in paths.dictionary.to_pylist()]
    return np.array(sids, np.int64)[paths.indices.to_numpy()]


def _tag_postings(batch: pa.Table, *, num_partitions: int) -> pa.Table:
    """Posting rows → ``kh``-tagged for the exchange, ``path`` replaced
    by the slice id the reducers apply scoped tombstones with."""
    sids = _path_slice_ids(batch)
    batch = _add_partition_key(batch.drop_columns(["path"]), num_partitions)
    return batch.append_column("slice", pa.array(sids, pa.int64()))


def _live_positions(batch: pa.Table, *, tombs: tuple[np.ndarray, np.ndarray]) -> pa.Table:
    """Positional rows → the live docs' rows, without ``path``."""
    sids = _path_slice_ids(batch)
    batch = batch.drop_columns(["path"])
    if tombs[0].size and batch.num_rows:
        batch = batch.filter(pa.array(live_mask(batch["doc_id"].to_numpy().astype(np.int64), sids, *tombs)))
    return batch


def _rewrite_docmap(src: str, dst: str, sid: int, tombs: tuple[np.ndarray, np.ndarray]) -> int:
    """One old docmap file → its live rows (scoped by the old slice id)
    at ``dst``; returns the rows kept. A file with no live row is not
    written."""
    t = pq.read_table(src)
    del_ids, del_lf = tombs
    if del_ids.size and t.num_rows:
        t = t.filter(pa.array(live_mask(t["doc_id"].to_numpy().astype(np.int64), sid, del_ids, del_lf)))
    if t.num_rows:
        _write_part(t, dst)
    return t.num_rows


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
    import shutil

    import ray
    import ray.data as rd

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
    # leftover from a crashed merge (sid is past every manifest-referenced
    # slice, so nothing here is being served) — start clean
    shutil.rmtree(slice_dir, ignore_errors=True)
    postings_dir = os.path.join(slice_dir, "postings")
    docmap_dir = os.path.join(slice_dir, "docmap")
    os.makedirs(postings_dir)
    os.makedirs(docmap_dir)
    tombs = ray.put((del_ids, del_lf))

    def old_files(sub: str) -> list[str]:
        return [f for d in old_dirs for f in sorted(glob(os.path.join(index_dir, d, sub, "*.parquet")))]

    # --- docmap: one task per old file, running alongside the exchange
    rewrite = ray.remote(_rewrite_docmap)
    docmap_rows = [
        rewrite.remote(f, os.path.join(docmap_dir, f"part-{i:05d}.parquet"),
                       _slice_id(os.path.dirname(os.path.dirname(f))), tombs)
        for i, f in enumerate(old_files("docmap"))
    ]

    # --- postings: one read of every merged slice's parts, exchanged by
    # the build's (term-hash + bucket) % P key; reducers apply the SCOPED
    # tombstone rule by each chunk's slice id (updates kill only older
    # copies)
    posting_files = [
        os.path.join(index_dir, s["dir"], "postings", p["path"])
        for s in merged_entries for p in s["partitions"]
    ]
    manifest_rows = []
    if posting_files:
        n_blocks = _read_blocks(sum(os.path.getsize(f) for f in posting_files))
        # only the columns reduce_postings decodes: an index written
        # with the older block-max columns merges the same way
        chunks = rd.read_parquet(
            posting_files, columns=DECODE_COLUMNS, include_paths=True, override_num_blocks=n_blocks,
        ).map_batches(
            _tag_postings, fn_kwargs={"num_partitions": num_partitions},
            batch_format="pyarrow", zero_copy_batch=True,
        )
        blocks = (ref for bundle in chunks.iter_internal_ref_bundles() for ref in bundle.block_refs)
        manifest_rows = [
            r for r in ray.get(exchange(blocks, _split_table_by_kh, num_partitions, num_partitions,
                                        reduce_postings, postings_dir, block_size, tombs))
            if r is not None
        ]
    n_docs = sum(ray.get(docmap_rows))

    # --- positions sidecar (phrase queries), if present
    store_positions = bool(manifest.get("store_positions", False))
    pos_files = old_files("positions") if store_positions else []
    if pos_files:
        n_blocks = _read_blocks(sum(os.path.getsize(f) for f in pos_files))
        rows = rd.read_parquet(pos_files, include_paths=True, override_num_blocks=n_blocks).map_batches(
            _live_positions, fn_kwargs={"tombs": (del_ids, del_lf)},
            batch_format="pyarrow", zero_copy_batch=True,
        )
        _write_positions(rows, num_partitions, os.path.join(slice_dir, "positions"))

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
        for d in old_dirs:
            shutil.rmtree(os.path.join(index_dir, d), ignore_errors=True)
        if full:
            shutil.rmtree(os.path.join(index_dir, "deletes"), ignore_errors=True)
    return out
