"""The postings codec's Arrow decode and the one posting reducer
(``index.build.reduce_postings``) of the build, tiered merges and
compaction — checked in-process against the per-row reference decoder
``segments.decode_chunk_row``; no Ray."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from anomaly_detection_ray.index.build import reduce_postings
from anomaly_detection_ray.index.lifecycle import live_mask
from anomaly_detection_ray.index.segments import (
    decode_chunk_row,
    decode_chunks_bulk,
    decode_docs_bulk,
    encode_rows_batched,
    rank_terms,
)
from anomaly_detection_ray.functions.varint import encode_varint_with_sizes
from anomaly_detection_ray.stages.exchange import split_by_key


def _chunks(rng, block_size: int, run_lens: list[int], doc_pool: int = 5000, doc_base: int = 0) -> pa.Table:
    """One encoded chunk row per run length: random terms (some
    non-ASCII) and buckets, strictly increasing docs from
    ``[doc_base, doc_base + doc_pool)``, no doc in two runs."""
    pool = doc_base + rng.permutation(doc_pool)
    docs, starts = [], []
    for n in run_lens:
        starts.append(sum(len(d) for d in docs))
        docs.append(np.sort(pool[starts[-1]:starts[-1] + n]))
    docs = np.concatenate(docs).astype(np.int64) if docs else np.empty(0, np.int64)
    starts = np.asarray(starts, np.int64)
    ends = starts + np.asarray(run_lens, np.int64)
    vocab = np.array(["a", "b", "import", "zeta", "é", "日本"], dtype=object)
    return encode_rows_batched(vocab[rng.integers(0, vocab.size, starts.size)],
                               rng.integers(0, 3, starts.size), docs,
                               rng.integers(1, 40, docs.size), rng.integers(1, 900, docs.size),
                               starts, ends, block_size)


def _reference(tbl: pa.Table):
    rows = [decode_chunk_row(r) for r in tbl.to_pylist()]
    cat = [np.concatenate([r[i] for r in rows]) if rows else np.empty(0, np.int64) for i in range(3)]
    return (*cat, np.concatenate(([0], np.cumsum([r[0].size for r in rows]))))


def _shuffled_pieces(tbl: pa.Table, rng) -> pa.Table:
    """``tbl``'s rows as an exchange reducer receives them: split by a
    key into offset slices of one taken table, then concatenated into
    a multi-chunk table."""
    pieces = split_by_key(tbl, rng.integers(0, 3, tbl.num_rows), 3)
    return pa.concat_tables(pieces[::-1])


@pytest.mark.parametrize("block_size", [1, 4, 128])
def test_decode_chunks_bulk_equals_per_row_decode(block_size):
    rng = np.random.default_rng(block_size)
    # one-posting runs, runs of exactly one block and runs over several
    lens = [1, 1, block_size, block_size + 1, 3 * block_size + 2, 300, 2, 1]
    tbl = _chunks(rng, block_size, lens)
    for t in (tbl, _shuffled_pieces(tbl, rng), tbl.slice(2, 4), tbl.slice(0, 0),
              pa.concat_tables([tbl.slice(5), tbl.slice(0, 3)])):
        docs, tfs, dls, off = decode_chunks_bulk(t, block_size)
        rd, rt, rl, roff = _reference(t)
        assert np.array_equal(off, roff)
        assert np.array_equal(docs, rd) and np.array_equal(tfs, rt) and np.array_equal(dls, rl)
        d2, off2 = decode_docs_bulk(t, block_size)
        assert np.array_equal(d2, rd) and np.array_equal(off2, roff)
    assert any(c.offset for c in _shuffled_pieces(tbl, rng)["docs"].chunks)


def test_decode_chunks_bulk_zero_rows():
    empty = _chunks(np.random.default_rng(0), 4, [])
    docs, tfs, dls, off = decode_chunks_bulk(empty)
    assert docs.size == tfs.size == dls.size == 0 and off.tolist() == [0]


def test_rank_terms_equals_object_unique():
    """The sorted Arrow dictionary ranks terms as ``np.unique`` over the
    Python strings does (UTF-8 byte order = code-point order), non-ASCII
    and prefixes of each other included."""
    rng = np.random.default_rng(3)
    vocab = ["a", "ab", "b", "é", "e", "ß", "日本", "日", "z", "Z", "\U0001f600", ""]
    terms = [vocab[i] for i in rng.integers(0, len(vocab), 500)]
    uniq, codes = rank_terms(pa.array(terms, pa.string()))
    exp_uniq, exp_codes = np.unique(np.asarray(terms, dtype=object), return_inverse=True)
    assert uniq.to_pylist() == exp_uniq.tolist()
    assert codes.tolist() == exp_codes.tolist()


@pytest.mark.parametrize("block_size", [1, 4, 128])
def test_encoded_binary_columns_are_the_runs_bytes(block_size):
    """Each chunk's ``docs``/``tfs``/``dls`` value is its own run
    varint-encoded alone (doc deltas restarting at every block), i.e.
    the run's slice of the column's shared stream."""
    rng = np.random.default_rng(block_size + 7)
    tbl = _chunks(rng, block_size, [1, 2, block_size, 2 * block_size + 1, 37])
    docs, tfs, dls, off = decode_chunks_bulk(tbl, block_size)

    def enc(v):
        return encode_varint_with_sizes(np.asarray(v, dtype=np.uint64))[0]

    runs = list(zip(off[:-1], off[1:]))
    assert tbl["tfs"].to_pylist() == [enc(tfs[a:b]) for a, b in runs]
    assert tbl["dls"].to_pylist() == [enc(dls[a:b]) for a, b in runs]
    want_docs = []
    for a, b in runs:
        d = docs[a:b]
        delta = np.diff(d, prepend=0)
        delta[::block_size] = d[::block_size]
        want_docs.append(enc(delta))
    assert tbl["docs"].to_pylist() == want_docs


def _postings(part: str) -> list[tuple]:
    """Every posting of a written part, as (term, bucket, doc, tf, dl)
    in file order."""
    return [(r["term"], r["bucket"], *p) for r in pq.read_table(part).to_pylist()
            for p in zip(*map(np.ndarray.tolist, decode_chunk_row(r)))]


def test_reduce_postings_raises_on_duplicate_doc(tmp_path):
    t = encode_rows_batched(np.array(["x"], dtype=object), np.array([0]), np.array([3, 9]),
                            np.array([1, 1]), np.array([5, 5]), np.array([0]), np.array([2]))
    u = encode_rows_batched(np.array(["x"], dtype=object), np.array([0]), np.array([9]),
                            np.array([2]), np.array([5]), np.array([0]), np.array([1]))
    with pytest.raises(ValueError, match="duplicate doc_id"):
        reduce_postings(0, str(tmp_path), 128, None, t, u)
    # the same doc in another bucket or another term is no duplicate
    v = encode_rows_batched(np.array(["y"], dtype=object), np.array([0]), np.array([9]),
                            np.array([2]), np.array([5]), np.array([0]), np.array([1]))
    assert reduce_postings(0, str(tmp_path), 128, None, t, v)["df_sum"] == 3


@pytest.mark.parametrize("block_size", [1, 4, 128])
def test_reduce_postings_drops_exactly_the_scoped_tombstoned(tmp_path, block_size):
    rng = np.random.default_rng(100 + block_size)
    # three slices' chunks over disjoint docs; a chunk's slice decides
    # which tombstones kill it
    shifted = [_chunks(rng, block_size, [1, 5, block_size + 3, 40, 1], doc_pool=200, doc_base=1000 * sid)
               .append_column("slice", pa.array(np.full(5, sid, np.int64))) for sid in (1, 4, 7)]
    group = pa.concat_tables(shifted)
    flat = [(r["term"], r["bucket"], r["slice"], *p) for r in group.to_pylist()
            for p in zip(*map(np.ndarray.tolist, decode_chunk_row(r)))]
    all_docs = np.array(sorted({p[3] for p in flat}), np.int64)
    ids = np.sort(rng.choice(all_docs, size=all_docs.size // 3, replace=False))
    lf = rng.choice([2, 5, 8, 1 << 62], size=ids.size).astype(np.int64)
    keep = live_mask(np.array([p[3] for p in flat], np.int64), np.array([p[2] for p in flat]), ids, lf)
    assert 0 < keep.sum() < len(flat)
    expected = sorted((t, b, d, tf, dl) for (t, b, _, d, tf, dl), k in zip(flat, keep) if k)

    # the pieces as the exchange hands them to a reducer
    pieces = split_by_key(group, rng.integers(0, 3, group.num_rows), 3)
    row = reduce_postings(3, str(tmp_path), block_size, (ids, lf), *pieces)
    got = _postings(os.path.join(tmp_path, row["path"]))
    assert got == sorted(got, key=lambda p: (p[0].encode(), p[1], p[2]))
    assert sorted(got) == expected
    assert row["df_sum"] == len(expected) and row["tf_sum"] == sum(p[3] for p in expected)
    assert row["n_terms"] == len({p[0] for p in expected})
    # every posting dead: no part
    assert reduce_postings(4, str(tmp_path), block_size, (all_docs, np.full(all_docs.size, 1 << 62)),
                           group) is None
    assert not os.path.exists(os.path.join(tmp_path, "part-00004.parquet"))
