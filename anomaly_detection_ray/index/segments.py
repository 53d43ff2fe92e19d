"""On-disk segment format for posting lists.

A built index directory looks like:

    index_dir/
      manifest.json                 # global stats: n_docs, avgdl, slices, file sha256 lineage
      stats.parquet                 # term → df, cttf   (global term dictionary stats)
      segments/slice-{s:04d}/
        _slice_manifest.json        # input fingerprint + part sha256s → slice-level resume
        postings/part-{kh:05d}.parquet
        docmap/part-*.parquet       # doc_id → repo/path/commit/lang/content_sha256/dl

Each postings row is one *chunk*: the posting list of one term restricted
to one doc-id bucket (``bucket = doc_id >> bucket_shift``), doc-ordered,
delta + LEB128-varint compressed; the delta restarts every ``block_size``
postings, and ``block_*_off`` hold each block's byte offset in the three
streams:

    term:string, bucket:int64, first_doc:int64, last_doc:int64,
    df_chunk:int32, tf_sum:int64,
    docs:binary (delta-varint), tfs:binary (varint), dls:binary (varint),
    block_doc_off:list<int32>, block_tf_off:list<int32>, block_dl_off:list<int32>

``dls`` (per-posting document length) rides with the postings so BM25
scoring needs no doc-side join. Queries score exactly over whole decoded
posting lists (``decode_chunks_bulk``) and read only
``DECODE_COLUMNS``; indexes written with the older block-max columns
(``block_first``/``block_last``/``block_max_tf``/``block_min_dl``)
still read and merge, since no reader asks for them.

One encoder and one block rule serve every chunk: the tokenizer's
partial chunks, the build's merged parts and every merge or compaction
output are written by :func:`encode_rows_batched` with the index's
``block_size``, so :func:`decode_chunks_bulk` decodes any of them — the
query engine's cache misses and the one build/merge/compaction reducer
(``build.reduce_postings``) alike — straight from the Arrow binary
columns' buffers, never from ``to_pylist()`` row dicts.
:func:`decode_chunk_row` is the per-row reference decoder the tests
compare against.

Rows within a part file are sorted by (term, bucket, first_doc) so
Parquet row-group statistics prune term lookups.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.varint import decode_varint, delta_decode, encode_varint_with_sizes

POSTINGS_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("bucket", pa.int64()),
        ("first_doc", pa.int64()),
        ("last_doc", pa.int64()),
        ("df_chunk", pa.int32()),
        ("tf_sum", pa.int64()),
        ("docs", pa.binary()),
        ("tfs", pa.binary()),
        ("dls", pa.binary()),
        ("block_doc_off", pa.list_(pa.int32())),
        ("block_tf_off", pa.list_(pa.int32())),
        ("block_dl_off", pa.list_(pa.int32())),
    ]
)

# the postings columns that decoding needs (query engine, merges)
DECODE_COLUMNS = ["term", "bucket", "df_chunk", "docs", "tfs", "dls"]

DEFAULT_BLOCK_SIZE = 128


def rank_terms(terms: pa.Array) -> tuple[pa.Array, np.ndarray]:
    """(the distinct terms in order, each row's code into them), from a
    sorted Arrow dictionary: UTF-8 byte order is code-point order, so
    both equal ``np.unique(..., return_inverse=True)`` over the Python
    strings, without an object-array sort."""
    enc = terms.dictionary_encode()
    rank = pc.rank(enc.dictionary, sort_keys="ascending").to_numpy() - 1
    return enc.dictionary.take(pa.array(np.argsort(rank))), rank[enc.indices.to_numpy()]


def encode_rows_batched(
    terms: np.ndarray,
    buckets: np.ndarray,
    docs: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> pa.Table:
    """Vectorized bulk encoder: one POSTINGS_SCHEMA row per run
    ``[starts[r], ends[r])`` of the (doc-ordered) posting arrays; the
    runs tile the arrays in order (``ends[r] == starts[r + 1]``).
    All runs share three varint streams (one encode call per column);
    per-run/per-block byte ranges come from size cumsums; the binary
    columns are the streams themselves under the runs' byte offsets
    (``Array.from_buffers``) and the list columns are built zero-copy
    with ``ListArray.from_arrays``. Every chunk the index holds,
    phase-1 partials included, is written here — no per-run or
    per-posting Python. ``terms`` may be a numpy or an Arrow array."""
    R = starts.size
    run_lens = ends - starts
    nblocks = -(-run_lens // block_size)
    total_blocks = int(nblocks.sum())
    first_block_of_run = np.concatenate(([0], np.cumsum(nblocks)))
    run_of_block = np.repeat(np.arange(R), nblocks)
    blk_in_run = np.arange(total_blocks) - first_block_of_run[run_of_block]
    bstarts = starts[run_of_block] + blk_in_run * block_size

    deltas = np.empty_like(docs, dtype=np.uint64)
    d64 = docs.astype(np.uint64)
    deltas[1:] = d64[1:] - d64[:-1]
    deltas[bstarts] = d64[bstarts]  # delta restarts at every block start
    doc_stream, doc_sz = encode_varint_with_sizes(deltas)
    tf_stream, tf_sz = encode_varint_with_sizes(tfs.astype(np.uint64))
    dl_stream, dl_sz = encode_varint_with_sizes(dls.astype(np.uint64))
    doc_off = np.concatenate(([0], np.cumsum(doc_sz)))
    tf_off = np.concatenate(([0], np.cumsum(tf_sz)))
    dl_off = np.concatenate(([0], np.cumsum(dl_sz)))

    list_offsets = pa.array(first_block_of_run, type=pa.int32())
    blk_rel_doc = (doc_off[bstarts] - doc_off[starts[run_of_block]]).astype(np.int32)
    blk_rel_tf = (tf_off[bstarts] - tf_off[starts[run_of_block]]).astype(np.int32)
    blk_rel_dl = (dl_off[bstarts] - dl_off[starts[run_of_block]]).astype(np.int32)

    def lst(values: np.ndarray, typ) -> pa.ListArray:
        return pa.ListArray.from_arrays(list_offsets, pa.array(values, type=typ))

    bounds = np.append(starts, ends[-1] if R else 0)

    def binary(stream: bytes, off: np.ndarray) -> pa.Array:
        return pa.Array.from_buffers(pa.binary(), R, [
            None, pa.py_buffer(off[bounds].astype(np.int32)), pa.py_buffer(stream)])

    return pa.table(
        {
            "term": pa.array(terms),
            "bucket": pa.array(buckets, type=pa.int64()),
            "first_doc": pa.array(docs[starts], type=pa.int64()),
            "last_doc": pa.array(docs[ends - 1], type=pa.int64()),
            "df_chunk": pa.array(run_lens.astype(np.int32)),
            "tf_sum": pa.array(np.add.reduceat(tfs, starts), type=pa.int64()),
            "docs": binary(doc_stream, doc_off),
            "tfs": binary(tf_stream, tf_off),
            "dls": binary(dl_stream, dl_off),
            "block_doc_off": lst(blk_rel_doc, pa.int32()),
            "block_tf_off": lst(blk_rel_tf, pa.int32()),
            "block_dl_off": lst(blk_rel_dl, pa.int32()),
        },
        schema=POSTINGS_SCHEMA,
    )


def decode_block(row: dict, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode block ``i`` of a chunk row dict (columns as python values)."""
    nb = len(row["block_doc_off"])

    def sl(stream: bytes, offs: list[int]) -> bytes:
        end = offs[i + 1] if i + 1 < nb else len(stream)
        return stream[offs[i] : end]

    docs = delta_decode(decode_varint(sl(row["docs"], row["block_doc_off"]))).astype(np.int64)
    tfs = decode_varint(sl(row["tfs"], row["block_tf_off"])).astype(np.int64)
    dls = decode_varint(sl(row["dls"], row["block_dl_off"])).astype(np.int64)
    return docs, tfs, dls


def _binary_values(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """The value bytes of a binary column, every row's in row order, read
    from each chunk's offsets and data buffers: no per-row Python, and a
    sliced or offset chunk (``split_by_key`` + ``pa.concat_tables``)
    contributes only its own rows' bytes."""
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    parts = []
    for c in chunks:
        _, offs_buf, data = c.buffers()
        offs = np.frombuffer(offs_buf, np.int32)
        lo, hi = int(offs[c.offset]), int(offs[c.offset + len(c)])
        if hi > lo:
            parts.append(np.frombuffer(data, np.uint8)[lo:hi])
    return np.concatenate(parts) if parts else np.empty(0, np.uint8)


def _absolute_docs(deltas: np.ndarray, dfs: np.ndarray, block_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Doc-id deltas of consecutive chunk rows → absolute doc ids and the
    rows' value offsets. The delta restarts at each row start and every
    ``block_size`` values within a row, so one global cumsum with
    vectorized resets rebuilds every row."""
    off = np.concatenate(([0], np.cumsum(dfs)))
    if deltas.size != off[-1]:
        raise ValueError("posting stream length mismatch")
    nblocks = -(-dfs // block_size)
    first_block = np.concatenate(([0], np.cumsum(nblocks)))
    row_of_block = np.repeat(np.arange(dfs.size), nblocks)
    blk_in_row = np.arange(int(nblocks.sum())) - first_block[row_of_block]
    resets = off[row_of_block] + blk_in_row * block_size
    seg_lens = np.diff(np.append(resets, off[-1]))
    c = np.cumsum(deltas)
    base = np.repeat(c[resets] - deltas[resets], seg_lens)
    return (c - base).astype(np.int64), off


def decode_chunks_bulk(chunks: pa.Table, block_size: int = DEFAULT_BLOCK_SIZE):
    """Decode every chunk row of ``chunks`` (a table with at least the
    ``df_chunk``, ``docs``, ``tfs`` and ``dls`` columns) with three
    ``decode_varint`` calls over the columns' Arrow buffers.

    Returns ``(docs, tfs, dls, row_value_offsets)`` where row r spans
    ``[off[r], off[r+1])``. The query engine's cache fill and the
    build/merge reducer (``build.reduce_postings``) both decode here;
    the per-block ``decode_block`` calls cost ~30 µs each and a dense
    term can have thousands of blocks."""
    dfs = chunks["df_chunk"].to_numpy().astype(np.int64)
    docs, off = _absolute_docs(decode_varint(_binary_values(chunks["docs"])), dfs, block_size)
    tfs = decode_varint(_binary_values(chunks["tfs"])).astype(np.int64)
    dls = decode_varint(_binary_values(chunks["dls"])).astype(np.int64)
    return docs, tfs, dls, off


def decode_docs_bulk(chunks: pa.Table, block_size: int = DEFAULT_BLOCK_SIZE):
    """Docs-only variant of :func:`decode_chunks_bulk` — one
    ``decode_varint`` pass over the doc stream, tf/dl streams untouched.
    Returns ``(docs, row_value_offsets)``. The query engine no longer
    calls it (multi-term unions read the postings cache); it stays while
    ``perfbench/trace.py`` wraps it by name."""
    dfs = chunks["df_chunk"].to_numpy().astype(np.int64)
    return _absolute_docs(decode_varint(_binary_values(chunks["docs"])), dfs, block_size)


def decode_chunk_row(row: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode a full chunk row dict → (doc_ids, tfs, dls)."""
    nb = len(row["block_doc_off"])
    if nb <= 1:
        return (
            delta_decode(decode_varint(row["docs"])).astype(np.int64),
            decode_varint(row["tfs"]).astype(np.int64),
            decode_varint(row["dls"]).astype(np.int64),
        )
    parts = [decode_block(row, i) for i in range(nb)]
    return (
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
        np.concatenate([p[2] for p in parts]),
    )
