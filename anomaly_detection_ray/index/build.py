"""SPIMI-style inverted-index build on Ray Data — SURVEY.md §7.1 M2.

Dataflow per corpus *slice* (a group of input parquet files; slices are
the unit of incremental build / resume, like Lucene segments) — ONE read
and ONE streaming execution:

    read_parquet(slice files, columns=[doc_id, content, *keep_cols],
                 blocks sized by footer bytes)
      → map_batches(_index_block, task pool)    # per read block, same rows:
            DocMap → docmap/part-<ids hash>.parquet   (sha256 lineage, tmp + rename)
            TokenizeCombine, batch_size rows at a time → partial posting
            chunks, tagged with the salted partition key
            kh = (hash(term) + doc_bucket) % P
      → hash_exchange_merge: raw-Ray split by kh → one reduce_postings
        task per partition → postings/part-{kh}.parquet

The salt is the doc-id bucket: a hot term ('import') is split across
its doc buckets, so no single reducer ever materializes a full hot
posting list — the two-phase combine the north rule requires.
:func:`reduce_postings` is the ONE posting reducer: the build's exchange,
tiered merges and compaction (``lifecycle.merge_slices``) all call it.
It decodes its partition's chunks from their Arrow columns, drops
tombstoned postings when given tombstones, re-encodes with the one
encoder and block rule (``segments.encode_rows_batched``), writes its
part atomically (tmp + rename) and returns a manifest row (sha256,
counts). Docmap part names derive from the block's doc ids, so a
retried block rewrites its own file. The optional positional sidecar
(``store_positions``) is a second read whose rows go through the same
raw-Ray exchange, split by term hash (:func:`_write_positions`).

Resume is slice-granular and only slice-granular: a slice whose
``_slice_manifest.json`` matches its input fingerprint is skipped
entirely, so a killed build restarted on the same inputs only
recomputes unfinished slices; any other build of the slice starts from
empty ``postings/``, ``docmap/`` and ``positions/`` directories (an
unfinished slice re-tokenizes and re-exchanges anyway, so no part file
carries a fingerprint of its own).

Replaces the substrate the reference assumes from OpenSearch/Lucene
(queries built in ``timeseries/util/ParseUtils.java:308-431`` are
executed against it); internals follow public literature (SPIMI:
Manning et al. IIR ch. 4).
"""

from __future__ import annotations

import hashlib
import json
import os
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.hashing import hash_strings, sha256_file
from ..stages.exchange import exchange, split_by_key
from ..stages.tokenize import DocMap, TokenizeCombine
from . import segments
from .segments import DEFAULT_BLOCK_SIZE

MANIFEST_NAME = "manifest.json"

# global-term-stats finalize: ONE range exchange for every index size,
# with P = ceil(posting bytes / STATS_PART_BYTES) term ranges (at most
# 256). P = 1 — every index under 512 MiB of posting parts — runs the
# two range functions in the driver and writes ONE file; a bigger index
# runs them as raw-Ray tasks and writes a DIRECTORY of globally-sorted
# part files, so a reducer holds at most what the one-file driver does
# and no process ever holds the whole vocabulary
STATS_PART_BYTES = 512 << 20
# modest row groups: the term-sorted dictionary's row-group statistics
# are the LAZY serving mode's prune index (termdict.TermDictionary) —
# one giant group would force every dictionary scan to read the file
STATS_ROW_GROUP = 131072
_STATS_AGG_COLS = ["term", "df", "cttf"]


def _stats_sha256(path: str) -> str:
    """Lineage hash of the stats dictionary — a single file, or a
    directory of part files (hash over 'name:sha256' lines in name
    order, so any part change or rename changes the digest)."""
    if os.path.isdir(path):
        h = hashlib.sha256()
        for name in sorted(os.listdir(path)):
            if name.endswith(".parquet"):
                h.update(f"{name}:{sha256_file(os.path.join(path, name))}\n".encode())
        return h.hexdigest()
    return sha256_file(path)


def _write_stats_part(tbl: pa.Table, path: str) -> tuple[int, str | None, str | None, bool]:
    """Write one globally-sorted stats table as a part file; returns
    (n_terms, first_term, last_term, internally_sorted) for the driver's
    order check — the boundary comparison alone can't see disorder
    INSIDE a part, and both dictionary serving modes bisect, so an
    unsorted part is never written."""
    if tbl.num_rows == 0:
        return 0, None, None, True
    col = tbl["term"].combine_chunks()
    ordered = bool(
        tbl.num_rows < 2
        or pc.all(pc.less_equal(col.slice(0, len(col) - 1), col.slice(1))).as_py()
    )
    if ordered:
        pq.write_table(tbl, path, row_group_size=STATS_ROW_GROUP)
    return tbl.num_rows, col[0].as_py(), col[len(col) - 1].as_py(), ordered


def _stats_term_boundaries(posting_files: list[str], n_parts: int) -> list[str]:
    """Range-partition boundaries for the stats exchange, sampled from
    the posting files' per-row-group ``term`` column minimums — footer
    metadata only, no data pages read. A row group without a usable
    minimum (no statistics, or a bound pyarrow dropped as ``''`` because
    the term is over its 4096-byte statistics limit) is skipped: the
    boundaries only PLACE the ranges, and the bisect in
    :func:`_split_stats_by_range` puts every term in exactly one range
    whatever they are. Fewer boundaries than ``n_parts - 1`` (duplicate
    or missing minimums) means fewer parts."""
    mins: list[str] = []
    for f in posting_files:
        md = pq.read_metadata(f)
        ti = md.schema.names.index("term")
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(ti).statistics
            if st is not None and st.has_min_max and st.min:
                mins.append(st.min if isinstance(st.min, str) else st.min.decode("utf-8", "replace"))
    if not mins:
        return []
    mins.sort()
    # dedupe keeps ranges non-empty by construction
    return sorted({mins[len(mins) * p // n_parts] for p in range(1, n_parts)})


def _split_stats_by_range(path: str, boundaries: list[str]) -> list[pa.Table]:
    """Map side of the stats exchange: one posting file → locally
    combined (term, df, cttf) partials, term-sorted, sliced into
    ``len(boundaries)+1`` range partitions (terms equal to a boundary go
    right). All heavy work is Arrow C kernels; the split offsets come
    from binary search on the sorted column."""
    from .termdict import _arrow_bisect

    t = pq.read_table(path, columns=["term", "df_chunk", "tf_sum"])
    t = t.group_by("term").aggregate([("df_chunk", "sum"), ("tf_sum", "sum")])
    t = t.select(["term", "df_chunk_sum", "tf_sum_sum"]).rename_columns(_STATS_AGG_COLS)
    t = t.sort_by([("term", "ascending")])
    col = t["term"].combine_chunks()
    offs = [0] + [_arrow_bisect(col, b, "left") for b in boundaries] + [t.num_rows]
    return [t.slice(offs[p], offs[p + 1] - offs[p]) for p in range(len(offs) - 1)]


def _merge_stats_range(p: int, out_dir: str, *parts: pa.Table) -> tuple[int, str | None, str | None, bool]:
    """Reduce side: merge term range ``p``'s partials across all posting
    files, re-sort, write the part file. Output ranges are disjoint and
    ordered by construction, so the parts concatenate into a globally
    term-sorted dictionary."""
    live = [p for p in parts if p.num_rows]
    if not live:
        return 0, None, None, True
    t = pa.concat_tables(live)
    t = t.group_by("term").aggregate([("df", "sum"), ("cttf", "sum")])
    t = t.select(["term", "df_sum", "cttf_sum"]).rename_columns(_STATS_AGG_COLS)
    t = t.sort_by([("term", "ascending")])
    return _write_stats_part(t, os.path.join(out_dir, f"part-{p:05d}.parquet"))


def _write_global_stats(posting_files: list[str], stats_path: str) -> int:
    """Global (term, df, cttf) dictionary from the posting parts' chunk
    stat columns, term-sorted, written atomically to ``stats_path``.
    Returns the term count.

    One RANGE exchange over ``P`` term ranges (see ``STATS_PART_BYTES``;
    boundaries sampled from parquet row-group statistics): each posting
    file is combined locally and sliced by range
    (:func:`_split_stats_by_range`), each range merged and written
    (:func:`_merge_stats_range`). P = 1 runs both in the driver and
    writes ONE file; P > 1 runs them through ``stages.exchange`` — the
    same drop-to-raw-Ray shape as the posting merge, because Ray Data's
    sort-based groupby paid a full extra exchange here (measured ~2-6×)
    — and each reduce writes its own part file under a
    ``stats.parquet/`` DIRECTORY; the driver holds per-part boundaries
    only. Both layouts serve identically through
    ``termdict.TermDictionary``. Parts out of global term order raise
    ``RuntimeError`` and leave the previous dictionary in place."""
    import shutil

    import ray

    total_bytes = sum(os.path.getsize(f) for f in posting_files)
    n_parts = max(1, min(256, -(-total_bytes // STATS_PART_BYTES)))
    bounds = _stats_term_boundaries(posting_files, n_parts) if n_parts > 1 else []
    n_parts = len(bounds) + 1
    tmp_dir = f"{stats_path}.tmp-{os.getpid()}"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    os.makedirs(tmp_dir)
    if n_parts == 1:
        results = [_merge_stats_range(0, tmp_dir, *(_split_stats_by_range(f, [])[0] for f in posting_files))]
    else:
        results = ray.get(exchange(posting_files, _split_stats_by_range, bounds, n_parts,
                                   _merge_stats_range, tmp_dir))
    # an out-of-order part would corrupt every dictionary bisect
    # downstream, so it is never served
    n_terms, last_hi = 0, None
    for n, lo, hi, ordered in results:
        if n == 0:
            continue
        if not ordered or (last_hi is not None and lo < last_hi):
            shutil.rmtree(tmp_dir, ignore_errors=True)
            raise RuntimeError("stats parts out of global term order; dictionary not replaced")
        last_hi = hi
        n_terms += n
    if n_parts > 1:
        # consistency manifest INSIDE the directory: the dir swap is two
        # renames, so a reader racing a re-finalize could list one layout
        # and open the other — the part-count/row-count check turns that
        # torn read into a loud error instead of a mis-ordered dictionary
        n_files = len([n for n in os.listdir(tmp_dir) if n.endswith(".parquet")])
        with open(os.path.join(tmp_dir, "_dict_meta.json"), "w") as f:
            json.dump({"n_parts": n_files, "n_terms": int(n_terms)}, f)
        _swap_into_place(tmp_dir, stats_path)
        return n_terms
    tmp_file = f"{stats_path}.tmp-{os.getpid()}.parquet"
    if n_terms:
        os.rename(os.path.join(tmp_dir, "part-00000.parquet"), tmp_file)
    else:  # no terms: an empty dictionary with the stats schema
        pq.write_table(pa.table({"term": pa.array([], pa.string()), "df": pa.array([], pa.int64()),
                                 "cttf": pa.array([], pa.int64())}), tmp_file)
    shutil.rmtree(tmp_dir, ignore_errors=True)
    _swap_into_place(tmp_file, stats_path)
    return n_terms


def _swap_into_place(tmp: str, dst: str) -> None:
    """Replace ``dst`` (file OR directory, may not exist) with ``tmp``.
    The index MANIFEST flip is the real commit point — it records the
    stats sha, so a crash inside this swap is caught by the sha check on
    the next finalize, which recomputes stats from the posting parts."""
    import shutil

    old = f"{dst}.old-{os.getpid()}"
    shutil.rmtree(old, ignore_errors=True)
    # os.rename moves FILES and DIRECTORIES alike, so both layout flips
    # (file→dir, dir→file) go through the same move-aside: a crash
    # between the two renames leaves the old dictionary recoverable at
    # ``old`` instead of a window with no stats at all
    if os.path.exists(dst):
        os.rename(dst, old)
    os.rename(tmp, dst)
    if os.path.isdir(old):
        shutil.rmtree(old, ignore_errors=True)
    elif os.path.exists(old):
        os.remove(old)


def _add_partition_key(batch: pa.Table, num_partitions: int) -> pa.Table:
    kh = (hash_strings(batch["term"].to_pylist()) + batch["bucket"].to_numpy().astype(np.uint64)) % np.uint64(
        num_partitions
    )
    return batch.append_column("kh", pa.array(kh.astype(np.int64)))


def reduce_postings(kh: int, out_dir: str, block_size: int,
                    tombs: tuple[np.ndarray, np.ndarray] | None, *parts: pa.Table) -> dict | None:
    """The one posting reducer of the build's exchange, tiered merges and
    compaction: every chunk of partition ``kh`` → ONE doc-ordered chunk
    per (term, bucket), written to ``out_dir/part-{kh}.parquet``
    (tmp + rename). Returns the part's manifest row, or None when the
    partition holds no (live) posting.

    The chunks decode straight from their Arrow columns
    (``segments.decode_chunks_bulk``); with ``tombs`` (sorted doc ids,
    live_from) the postings dead in their chunk's ``slice`` are dropped
    (``lifecycle.live_mask``); one lexsort orders the rest by (term,
    bucket, doc), terms ranked in a sorted Arrow dictionary (UTF-8 byte
    order is code-point order); a doc twice in one (term, bucket) raises;
    ``segments.encode_rows_batched`` writes the rows. Both codec calls go
    through the module, so a traced worker sees its wrapped functions."""
    parts = [p for p in parts if p.num_rows]
    if not parts:
        return None
    group = pa.concat_tables(parts)
    docs, tfs, dls, off = segments.decode_chunks_bulk(group, block_size)
    counts = np.diff(off)
    sorted_terms, codes = segments.rank_terms(group["term"].combine_chunks())
    code_all = np.repeat(codes, counts)
    bucket_all = np.repeat(group["bucket"].to_numpy(), counts)
    if tombs is not None and tombs[0].size:
        from .lifecycle import live_mask

        keep = live_mask(docs, np.repeat(group["slice"].to_numpy(), counts), *tombs)
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
    if np.any((docs[1:] == docs[:-1]) & ~change[1:]):
        raise ValueError("duplicate doc_id in postings — corrupt input")
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], code_all.size)
    run_codes = code_all[starts]

    tbl = segments.encode_rows_batched(sorted_terms.take(pa.array(run_codes)), bucket_all[starts],
                                       docs, tfs, dls, starts, ends, block_size)
    path = os.path.join(out_dir, f"part-{kh:05d}.parquet")
    _write_part(tbl, path, row_group_size=4096)
    return {
        "kh": kh,
        "path": os.path.basename(path),
        "sha256": sha256_file(path),
        "n_rows": tbl.num_rows,
        "n_terms": int(np.count_nonzero(np.diff(run_codes))) + 1,
        "df_sum": int(docs.size),
        "tf_sum": int(tfs.sum()),
    }


def _split_table_by_kh(tbl: pa.Table, num_partitions: int) -> list[pa.Table]:
    if tbl.num_rows == 0 or "kh" not in tbl.column_names:
        # empty read blocks pass through the map stages schema-less
        from .segments import POSTINGS_SCHEMA

        empty = POSTINGS_SCHEMA.empty_table().append_column("kh", pa.array([], pa.int64()))
        return [empty] * num_partitions
    return split_by_key(tbl, tbl["kh"].to_numpy(), num_partitions)


def hash_exchange_merge(chunks_ds, num_partitions: int, out_dir: str, block_size: int) -> list[dict]:
    """Phase 2 of the build: the ``kh``-tagged posting chunks of
    ``chunks_ds`` exchanged by partition (``stages.exchange``), one
    :func:`reduce_postings` task per partition. Returns the partitions'
    manifest rows."""
    import ray

    blocks = (ref for bundle in chunks_ds.iter_internal_ref_bundles() for ref in bundle.block_refs)
    rows = ray.get(exchange(blocks, _split_table_by_kh, num_partitions, num_partitions,
                            reduce_postings, out_dir, block_size, None))
    return [r for r in rows if r is not None]


def _slice_fingerprint(files: list[str]) -> str:
    h = hashlib.sha256()
    for f in sorted(files):
        st = os.stat(f)
        h.update(f"{os.path.basename(f)}:{st.st_size}".encode())
    return h.hexdigest()


# Read blocks are sized by bytes, not by file count: every block pays a
# read task and an exchange split whatever it carries, so a small slice
# reads in one block and only a large one fans out, up to six blocks per
# CPU of the session. The 4 MiB value is tuned on 1 vCPU; a slice of a
# few blocks on a many-CPU session gets fewer tokenize tasks than CPUs.
READ_BLOCK_BYTES = 4 << 20


def _read_blocks(n_bytes: int) -> int:
    import ray

    cap = 6 * int(ray.cluster_resources().get("CPU", 1))
    return max(1, min(cap, -(-n_bytes // READ_BLOCK_BYTES)))


def _write_part(tbl: pa.Table, path: str, **kwargs) -> None:
    """Atomic part-file write (tmp + rename): a reader or a retried task
    never sees a half-written file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    pq.write_table(tbl, tmp, **kwargs)
    os.replace(tmp, path)


def _index_block(block: pa.Table, *, tokenizer: TokenizeCombine, docmap: DocMap,
                 docmap_dir: str, num_partitions: int, batch_size: int) -> pa.Table:
    """One read block → its docmap part file (written here) and its
    ``kh``-tagged posting chunks (returned for the exchange), tokenized
    ``batch_size`` rows at a time. One docmap file per block keeps the
    file count bounded by the block count. The part is named by a hash
    of the block's doc ids, so a retried block replaces its own file
    instead of adding a copy."""
    if block.num_rows:
        ids = block[docmap.id_col].to_numpy().astype(np.int64)
        name = hashlib.sha256(ids.tobytes()).hexdigest()[:16]
        _write_part(docmap(block), os.path.join(docmap_dir, f"part-{name}.parquet"))
    chunks = [tokenizer(block.slice(i, batch_size))
              for i in range(0, max(block.num_rows, 1), batch_size)]
    return _add_partition_key(pa.concat_tables(chunks), num_partitions)


def _split_positions(block: pa.Table, n_parts: int) -> list[pa.Table]:
    """Positional rows → ``n_parts`` pieces by ``hash(term) % n_parts``."""
    if block.num_rows == 0:
        return [block] * n_parts
    key = hash_strings(block["term"].to_pylist()) % np.uint64(n_parts)
    return split_by_key(block, key.astype(np.int64), n_parts)


def _write_positions_part(p: int, pos_dir: str, *parts: pa.Table) -> int:
    """One term-hash part of the positional sidecar, sorted by (term,
    doc_id); an empty part writes no file. Returns the row count."""
    live = [t for t in parts if t.num_rows]
    if not live:
        return 0
    t = pa.concat_tables(live).sort_by([("term", "ascending"), ("doc_id", "ascending")])
    _write_part(t, os.path.join(pos_dir, f"part-{p:05d}.parquet"))
    return t.num_rows


def _write_positions(rows_ds, num_partitions: int, pos_dir: str) -> None:
    """Positional rows (term, doc_id, positions) → ``pos_dir`` through
    the build's raw-Ray exchange (``stages.exchange``): term-hash
    partitioned and sorted by (term, doc_id) within each part, so a
    phrase lookup finds each term in one file."""
    import ray

    os.makedirs(pos_dir, exist_ok=True)
    blocks = (ref for bundle in rows_ds.iter_internal_ref_bundles() for ref in bundle.block_refs)
    ray.get(exchange(blocks, _split_positions, num_partitions, num_partitions,
                     _write_positions_part, pos_dir))


def build_slice(
    files: list[str],
    slice_dir: str,
    *,
    text_col: str = "content",
    id_col: str = "doc_id",
    mode: str = "code",
    num_partitions: int = 16,
    bucket_shift: int = 17,
    block_size: int = DEFAULT_BLOCK_SIZE,
    batch_size: int | None = None,
    keep_cols=("repo", "path", "commit", "lang"),
    store_positions: bool = False,
) -> dict:
    """Build one index slice; returns its manifest dict. Skips the whole
    slice when a valid ``_slice_manifest.json`` already matches.

    ``store_positions=True`` additionally writes a positional sidecar
    (``positions/part-*.parquet``: term, doc_id, positions) for phrase
    queries (:func:`_write_positions`). The BM25 posting codec is
    untouched; non-phrase users pay nothing."""
    import shutil

    import ray.data as rd

    os.makedirs(slice_dir, exist_ok=True)
    manifest_path = os.path.join(slice_dir, "_slice_manifest.json")
    fp = _slice_fingerprint(files)
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            m = json.load(f)
        if m.get("input_fingerprint") == fp:
            m["resumed"] = True
            return m

    postings_dir = os.path.join(slice_dir, "postings")
    docmap_dir = os.path.join(slice_dir, "docmap")
    pos_dir = os.path.join(slice_dir, "positions")
    # nothing of an unfinished earlier attempt is reused: its docmap and
    # positions rows would be served twice (the engine globs both
    # directories), and every posting part is rewritten
    for d in (postings_dir, docmap_dir, pos_dir):
        shutil.rmtree(d, ignore_errors=True)
    os.makedirs(postings_dir)
    os.makedirs(docmap_dir)

    # doc count, bytes and schema from the parquet footers — no Ray
    # execution needed
    footers = [pq.read_metadata(f) for f in files]
    n_docs = sum(md.num_rows for md in footers)
    tot_bytes = sum(md.row_group(i).total_byte_size for md in footers for i in range(md.num_row_groups))
    if batch_size is None:
        # SURVEY §7.3 "very wide records": cap tokenize batches by BYTES,
        # not rows — a 1024-row batch of MB-scale source files would blow
        # the worker heap.
        avg = max(1, tot_bytes // max(n_docs, 1))
        batch_size = int(min(1024, max(16, (32 << 20) // avg)))
    n_blocks = _read_blocks(tot_bytes)
    avail = set(footers[0].schema.names) if footers else set()
    keep = [c for c in keep_cols if c in avail]

    # one read, one execution: each block's docmap rows and posting
    # chunks come from the same rows, its text analyzed once. Plain task
    # pool: the stage's only state is compiled regexes (cheap to pickle).
    corpus = rd.read_parquet(files, columns=[id_col, text_col, *keep], override_num_blocks=n_blocks)
    chunks = corpus.map_batches(
        _index_block,
        fn_kwargs={
            "tokenizer": TokenizeCombine(text_col=text_col, id_col=id_col, mode=mode,
                                         bucket_shift=bucket_shift, block_size=block_size),
            "docmap": DocMap(text_col=text_col, id_col=id_col, keep_cols=keep_cols),
            "docmap_dir": docmap_dir,
            "num_partitions": num_partitions,
            "batch_size": batch_size,
        },
        batch_format="pyarrow",
        batch_size=None,  # whole read blocks: one docmap file each
        zero_copy_batch=True,
    )
    manifest_rows = hash_exchange_merge(chunks, num_partitions, postings_dir, block_size)

    if store_positions:
        from ..stages.tokenize import PositionRows

        extract = PositionRows(text_col=text_col, id_col=id_col, mode=mode)
        rows = rd.read_parquet(files, columns=[id_col, text_col], override_num_blocks=n_blocks)
        _write_positions(rows.map_batches(extract, batch_format="pyarrow", batch_size=batch_size,
                                         zero_copy_batch=True), num_partitions, pos_dir)

    total_tokens = int(sum(r["tf_sum"] for r in manifest_rows))
    manifest = {
        "input_files": sorted(os.path.basename(f) for f in files),
        "input_fingerprint": fp,
        "n_docs": int(n_docs),
        "total_tokens": total_tokens,
        "num_partitions": num_partitions,
        "bucket_shift": bucket_shift,
        "block_size": block_size,
        "analyzer_mode": mode,
        "store_positions": bool(store_positions),
        "partitions": sorted(manifest_rows, key=lambda r: r["kh"]),
        "resumed": False,
    }
    with open(manifest_path, "w") as f:
        json.dump(manifest, f, indent=1)
    return manifest


def build_index(
    input_files: list[str],
    out_dir: str,
    *,
    slices: int = 1,
    **kwargs,
) -> dict:
    """Build a full index: input files → ``slices`` incremental slices →
    global stats + manifest. Returns the global manifest dict."""
    os.makedirs(out_dir, exist_ok=True)
    file_groups = [list(g) for g in np.array_split(sorted(input_files), slices) if len(g)]
    slice_manifests = []
    for i, files in enumerate(file_groups):
        slice_dir = os.path.join(out_dir, "segments", f"slice-{i:04d}")
        slice_manifests.append(build_slice(list(files), slice_dir, **kwargs))

    return _finalize_index(
        out_dir, slice_manifests,
        mode=kwargs.get("mode", "code"),
        bucket_shift=kwargs.get("bucket_shift", 17),
        block_size=kwargs.get("block_size", DEFAULT_BLOCK_SIZE),
        store_positions=kwargs.get("store_positions", False),
        text_field=kwargs.get("text_col", "content"),
    )


def _finalize_index(out_dir: str, slice_manifests: list[dict], *,
                    mode: str, bucket_shift: int, block_size: int,
                    store_positions: bool = False,
                    dirs: list[str] | None = None,
                    deletes: dict | None = None,
                    text_field: str | None = None) -> dict:
    """Global stats + manifest over the given slices (in slice-id order).
    Pure recompute from the slices' chunk-stat columns — no dependence on
    a previous ``stats.parquet``, so re-finalizing after a crash or a
    segment add is idempotent. Stats and manifest write atomically
    (tmp + replace); the manifest flip is what makes a new slice visible
    to :class:`..query.QueryEngine` (which lists files FROM the manifest,
    never by glob). ``dirs`` overrides the default ``segments/slice-{i}``
    naming (compaction writes a fresh dir); ``deletes`` carries the
    tombstone record through a re-finalize (segment adds keep deletes)."""
    if dirs is None:
        dirs = [f"segments/slice-{i:04d}" for i in range(len(slice_manifests))]
    # global term stats (df, cttf) from the chunk-stat columns: one file
    # for small indexes, a part-file directory for vocabulary-scale ones
    # (see _write_global_stats)
    posting_files = sorted(
        os.path.join(out_dir, d, "postings", p["path"])
        for d, m in zip(dirs, slice_manifests)
        for p in m["partitions"]
    )
    stats_path = os.path.join(out_dir, "stats.parquet")
    n_terms = _write_global_stats(posting_files, stats_path)

    n_docs = int(sum(m["n_docs"] for m in slice_manifests))
    total_tokens = int(sum(m["total_tokens"] for m in slice_manifests))
    manifest = {
        "format": "anomaly_detection_ray.index/v1",
        "n_docs": n_docs,
        "total_tokens": total_tokens,
        "avgdl": (total_tokens / n_docs) if n_docs else 0.0,
        "n_terms": int(n_terms),
        "analyzer_mode": mode,
        "bucket_shift": bucket_shift,
        "block_size": block_size,
        "store_positions": bool(store_positions),
        # the ONE indexed text field's source column — exists-queries on
        # any other non-docmap field match nothing (OpenSearch unmapped)
        "text_field": text_field,
        "stats_sha256": _stats_sha256(stats_path),
        "slices": [
            {
                "dir": d,
                "n_docs": m["n_docs"],
                "resumed": m.get("resumed", False),
                "partitions": m["partitions"],
            }
            for d, m in zip(dirs, slice_manifests)
        ],
    }
    if deletes:
        manifest["deletes"] = deletes
    manifest_path = os.path.join(out_dir, MANIFEST_NAME)
    tmp_manifest = f"{manifest_path}.tmp-{os.getpid()}"
    with open(tmp_manifest, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp_manifest, manifest_path)
    return manifest


def extend_index(index_dir: str, new_files: list[str], **kwargs) -> dict:
    """Append new documents to an EXISTING index as one additional slice
    — the Lucene segment-add analogue (prior slices are never rewritten),
    and the indexing half of a realtime/tailing pipeline (pair with
    ``sources.tailing.TailingSource``: poll → extend_index → commit).

    Builds ``segments/slice-{N}`` from ``new_files`` and re-finalizes the
    global stats + manifest over ALL slices. A fresh
    :class:`..query.QueryEngine` then serves the union with BM25 results
    identical to a from-scratch build over every file (global df/avgdl
    re-derived; postings are slice-local, so no old bytes are touched
    beyond their chunk-stat columns in the stats pass). The manifest
    rewrite is atomic and is what flips the new slice visible — a crash
    mid-add leaves the old index serving and the rerun resumes the slice
    by fingerprint.

    Idempotent: if an existing slice already carries ``new_files``'s
    fingerprint, returns the current manifest unchanged. Analyzer /
    bucket_shift / block_size come from the existing manifest; passing a
    conflicting override raises (mixed-analyzer slices would split the
    term space). Caller owns doc-id uniqueness across slices.

    Reference parity: the plugin's indexes take rolling writes +
    rollover (``IndexManagement.java``); this is the batch-parquet
    counterpart for the searchable corpus."""
    manifest_path = os.path.join(index_dir, MANIFEST_NAME)
    with open(manifest_path) as f:
        manifest = json.load(f)

    defaults = {"analyzer_mode": "code", "bucket_shift": 17,
                "block_size": DEFAULT_BLOCK_SIZE, "store_positions": False}
    for arg_key, manifest_key in (("mode", "analyzer_mode"),
                                  ("bucket_shift", "bucket_shift"),
                                  ("block_size", "block_size"),
                                  ("store_positions", "store_positions")):
        built_with = manifest.get(manifest_key, defaults[manifest_key])
        if arg_key in kwargs and kwargs[arg_key] != built_with:
            raise ValueError(
                f"{arg_key}={kwargs[arg_key]!r} conflicts with the index's "
                f"{built_with!r}; segment adds must match the build"
            )
        kwargs[arg_key] = built_with

    old_manifests = []
    for s in manifest["slices"]:
        with open(os.path.join(index_dir, s["dir"], "_slice_manifest.json")) as f:
            old_manifests.append(json.load(f))

    fp = _slice_fingerprint(new_files)
    if any(m.get("input_fingerprint") == fp for m in old_manifests):
        return manifest  # these files are already a slice — no-op

    i = next_slice_id(manifest)
    rel_dir = f"segments/slice-{i:04d}"
    sm = build_slice(sorted(new_files), os.path.join(index_dir, rel_dir), **kwargs)
    return _finalize_index(
        index_dir, old_manifests + [sm],
        mode=kwargs["mode"], bucket_shift=kwargs["bucket_shift"],
        block_size=kwargs["block_size"],
        store_positions=kwargs["store_positions"],
        dirs=[s["dir"] for s in manifest["slices"]] + [rel_dir],
        deletes=manifest.get("deletes"),
        text_field=manifest.get("text_field"),
    )


def next_slice_id(manifest: dict) -> int:
    """Next unused slice number: one past the largest trailing integer in
    any live OR historical slice dir name (compaction leaves old dirs on
    disk until GC, so length-of-slices would collide after a compact)."""
    import re

    ids = [0]
    for s in manifest["slices"]:
        m = re.search(r"(\d+)$", s["dir"])
        if m:
            ids.append(int(m.group(1)) + 1)
    return max(ids)


def tail_index_tick(input_dir: str, index_dir: str, seen_manifest: str,
                    max_slices: int | None = None, **kwargs) -> dict | None:
    """One continuous-indexing tick: poll the growing ``input_dir`` for
    parquet files not yet indexed, build (first tick) or segment-add
    (later ticks) exactly those, then commit the seen-files manifest —
    the search-index counterpart of the detector's tailing job tick.
    Returns the updated index manifest, or None when nothing new arrived.

    Commit happens only after the index manifest flip, so a crash
    mid-tick reprocesses the same files on the rerun — harmless, because
    ``extend_index`` de-dupes slices by input fingerprint.

    ``max_slices`` bounds segment count across ticks: when a tick's add
    pushes past it, the smallest slices fold together
    (:func:`..lifecycle.maybe_merge` — TieredMergePolicy shape), so
    per-query file opens stay O(max_slices) no matter how many ticks
    have run."""
    from ..sources.tailing import TailingSource

    src = TailingSource(input_dir, seen_manifest, suffixes=(".parquet", ".pq"))
    files = src.poll()
    if not files:
        return None
    if os.path.exists(os.path.join(index_dir, MANIFEST_NAME)):
        m = extend_index(index_dir, files, **kwargs)
    else:
        m = build_index(files, index_dir, **kwargs)
    src.commit(files)
    if max_slices is not None:
        from .lifecycle import maybe_merge

        merged = maybe_merge(index_dir, max_slices=max_slices, gc=True)
        if merged is not None:
            m = merged
    return m
