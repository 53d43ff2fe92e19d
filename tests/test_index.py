"""Index build + query engine vs the brute-force oracle (SURVEY.md §7.1 M2/M3).

Mirrors the reference's test strategy (§5): golden parity on a tiny
hand-checkable corpus + rank-identical top-k with score tolerance 1e-9
(the role `SingleStreamModelPerfIT` / mocked SearchResponses play for
the plugin, with our M0 oracle standing in for OpenSearch)."""

import numpy as np
import pytest

from anomaly_detection_ray.functions.analyzer import Analyzer
from anomaly_detection_ray.index.build import build_index
from anomaly_detection_ray.index.oracle import BruteForceIndex
from anomaly_detection_ray.index.query import QueryEngine
from anomaly_detection_ray.index.segments import decode_chunk_row, encode_rows_batched


def test_chunk_roundtrip_blocks():
    rng = np.random.default_rng(7)
    docs = np.sort(rng.choice(100_000, size=1000, replace=False)).astype(np.int64)
    tfs = rng.integers(1, 50, 1000).astype(np.int64)
    dls = rng.integers(10, 500, 1000).astype(np.int64)
    tbl = encode_rows_batched(np.array(["t"], dtype=object), np.array([0]), docs, tfs, dls,
                              np.array([0]), np.array([1000]), block_size=128)
    (row,) = tbl.to_pylist()
    rd_, rt, rl = decode_chunk_row(row)
    assert np.array_equal(rd_, docs) and np.array_equal(rt, tfs) and np.array_equal(rl, dls)
    assert row["last_doc"] == docs[-1]
    assert row["df_chunk"] == 1000
    assert len(row["block_doc_off"]) == 8


@pytest.fixture(scope="module")
def built(ray_session, tiny_corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("index"))
    manifest = build_index(
        tiny_corpus["paths"], out, slices=2, num_partitions=8, batch_size=64, mode="code"
    )
    table = tiny_corpus["table"]
    oracle = BruteForceIndex(
        table["doc_id"].to_pylist(), table["content"].to_pylist(), Analyzer("code")
    )
    return out, manifest, oracle


def test_manifest_global_stats(built, tiny_corpus):
    _, manifest, oracle = built
    assert manifest["n_docs"] == 200 == oracle.n_docs
    assert manifest["avgdl"] == pytest.approx(oracle.avgdl)
    assert manifest["n_terms"] == len(oracle.postings)
    assert len(manifest["slices"]) == 2
    for s in manifest["slices"]:
        for p in s["partitions"]:
            assert len(p["sha256"]) == 64


def test_postings_parity(built):
    out, _, oracle = built
    eng = QueryEngine(out)
    # df of every term matches the oracle exactly
    for term, plist in oracle.postings.items():
        assert eng.df(term) == len(plist), term
    # full postings of a few terms (hot + rare) match doc-by-doc
    for term in ["import", "return", "merge", "parse", "v3"]:
        if term not in oracle.postings:
            continue
        docs = eng.term_docs(term)
        assert list(docs) == sorted(oracle.postings[term]), term


def test_bm25_rank_identical(built, tiny_corpus):
    out, _, oracle = built
    eng = QueryEngine(out)
    queries = tiny_corpus["queries"]["query"].to_pylist()
    n_nonempty = 0
    for q in queries:
        expected = oracle.bm25_topk(q, k=10)
        got = eng.bm25_topk(q, k=10)
        assert [d for d, _ in got] == [d for d, _ in expected], q
        for (_, gs), (_, es) in zip(got, expected):
            assert gs == pytest.approx(es, abs=1e-9), q
        n_nonempty += bool(expected)
    assert n_nonempty > 10  # the query set actually exercises scoring


def test_conjunctive_parity(built, tiny_corpus):
    out, _, oracle = built
    eng = QueryEngine(out)
    for q in tiny_corpus["queries"]["query"].to_pylist():
        assert list(eng.conjunctive(q)) == oracle.conjunctive(q), q


def test_postings_cache_stats(built, tiny_corpus):
    """One postings cache serves BM25, conjunctive and multi-term reads:
    a second pass over the same requests only hits, and the byte count
    stays under the cap (or the cache holds its single newest entry)."""
    out, _, _ = built
    queries = tiny_corpus["queries"]["query"].to_pylist()[:20]

    def run(eng):
        for q in queries:
            eng.bm25_topk(q, k=10)
            eng.conjunctive(q)
        eng.wildcard_docs("im*")
        eng.fuzzy_docs("merg")

    def held(eng):
        return sum(a.nbytes for entry in eng._cache.values() for a in entry)

    eng = QueryEngine(out)
    run(eng)
    first = eng.cache_stats()
    assert first["misses"] > 0 and first["evictions"] == 0
    assert first["bytes"] == held(eng) <= first["cap_bytes"]
    run(eng)
    second = eng.cache_stats()
    assert second["misses"] == first["misses"] and second["hits"] > first["hits"]
    assert {k: second[k] for k in ("evictions", "bytes", "entries", "cap_bytes")} == {
        k: first[k] for k in ("evictions", "bytes", "entries", "cap_bytes")}
    cap = first["bytes"] // 4
    small = QueryEngine(out, postings_cache_bytes=cap)
    run(small)
    run(small)
    s = small.cache_stats()
    assert s["cap_bytes"] == cap and s["evictions"] > 0
    assert s["hits"] + s["misses"] == second["hits"] + second["misses"]
    assert s["bytes"] == held(small)
    assert s["bytes"] <= cap or s["entries"] == 1


def test_lineage_sha256_invariant(built, tiny_corpus):
    """Per-row invariant from BASELINE.json input_hint: the docmap's
    content_sha256 equals sha256 of the source rows' content, and the
    slices' docmap rows, sorted by doc_id, are exactly DocMap applied to
    the input rows."""
    import hashlib
    import os
    from glob import glob

    import pyarrow as pa
    import pyarrow.parquet as pq

    from anomaly_detection_ray.stages.tokenize import DocMap

    out, _, _ = built
    eng = QueryEngine(out)
    dm = eng.docmap().to_table().to_pandas().set_index("doc_id").sort_index()
    src = tiny_corpus["table"].to_pandas().set_index("doc_id").sort_index()
    assert len(dm) == len(src)
    expect = src["content"].map(lambda t: hashlib.sha256(t.encode()).hexdigest())
    assert (dm["content_sha256"] == expect).all()

    files = sorted(glob(os.path.join(out, "segments", "slice-*", "docmap", "*.parquet")))
    got = pa.concat_tables(pq.read_table(f) for f in files).sort_by("doc_id")
    inputs = pa.concat_tables(pq.read_table(f) for f in sorted(tiny_corpus["paths"]))
    assert got.equals(DocMap()(inputs).sort_by("doc_id"))


def test_small_slice_one_read_one_docmap_file(ray_session, tiny_corpus, tmp_path, monkeypatch):
    """A small slice without positions is read once, in one block, and
    its docmap lands in one file."""
    import os
    from glob import glob

    import ray.data as rd

    calls = []
    read_parquet = rd.read_parquet

    def counting(*args, **kwargs):
        calls.append(kwargs.get("override_num_blocks"))
        return read_parquet(*args, **kwargs)

    monkeypatch.setattr(rd, "read_parquet", counting)
    out = str(tmp_path / "idx")
    m = build_index(tiny_corpus["paths"][:1], out, slices=1, num_partitions=2, mode="code")
    assert calls == [1]
    assert len(glob(os.path.join(out, "segments", "slice-0000", "docmap", "*.parquet"))) == 1
    assert QueryEngine(out).count(None) == m["n_docs"] > 0


def test_index_block_retry_rewrites_its_docmap_part(tiny_corpus, tmp_path):
    """A retried build block (Ray re-runs a task whose worker died)
    replaces its own docmap part instead of adding a second copy; its
    posting chunks do not depend on the tokenize batch size."""
    import os

    import pyarrow.parquet as pq

    from anomaly_detection_ray.index.build import _index_block
    from anomaly_detection_ray.stages.tokenize import DocMap, TokenizeCombine

    block = tiny_corpus["table"].slice(0, 50)
    kw = dict(tokenizer=TokenizeCombine(), docmap=DocMap(), docmap_dir=str(tmp_path),
              num_partitions=2)
    first = _index_block(block, batch_size=16, **kw)
    assert _index_block(block, batch_size=16, **kw).equals(first)
    files = os.listdir(tmp_path)
    assert len(files) == 1 and files[0].endswith(".parquet")
    assert pq.read_table(os.path.join(tmp_path, files[0])).equals(DocMap()(block))
    whole = _index_block(block, batch_size=64, **kw)
    assert first.num_rows > whole.num_rows

    def postings(chunks):
        return sorted((r["term"], r["kh"], *p) for r in chunks.to_pylist()
                      for p in zip(*map(np.ndarray.tolist, decode_chunk_row(r))))

    assert postings(first) == postings(whole)


def test_rebuild_after_lost_slice_manifest(ray_session, tiny_corpus, tmp_path):
    """A crash after the docmap write but before the slice manifest:
    the rerun rebuilds the slice without duplicating its docmap rows."""
    import os

    out = str(tmp_path / "idx")
    kwargs = dict(slices=1, num_partitions=4, batch_size=64, mode="code")
    build_index(tiny_corpus["paths"], out, **kwargs)
    os.remove(os.path.join(out, "segments", "slice-0000", "_slice_manifest.json"))
    m = build_index(tiny_corpus["paths"], out, **kwargs)
    assert m["slices"][0]["resumed"] is False
    eng = QueryEngine(out)
    assert eng.docmap().count_rows() == 200
    assert eng.count(None) == 200
    assert eng.execute_filter({"match_all": {}}).size == 200


def test_resume_skips_completed_slices(built, tiny_corpus):
    out, first, _ = built
    manifest2 = build_index(
        tiny_corpus["paths"], out, slices=2, num_partitions=8, batch_size=64, mode="code"
    )
    assert all(s["resumed"] for s in manifest2["slices"])
    # identical lineage after resume
    a = [p["sha256"] for s in first["slices"] for p in s["partitions"]]
    b = [p["sha256"] for s in manifest2["slices"] for p in s["partitions"]]
    assert a == b


def test_engine_vs_oracle_random_corpora(ray_session, tmp_path_factory):
    """Property-style: random corpora/queries → rank-identical top-k."""
    import pyarrow.parquet as pq

    rng = np.random.default_rng(123)
    vocab = [f"w{i}" for i in range(40)] + ["import", "return"]
    for trial in range(3):
        n = int(rng.integers(30, 120))
        texts = [
            " ".join(rng.choice(vocab, size=rng.integers(1, 60)))
            for _ in range(n)
        ]
        import pyarrow as pa

        d = tmp_path_factory.mktemp(f"prop{trial}")
        pq.write_table(
            pa.table({"doc_id": pa.array(range(n), pa.int64()), "content": texts}),
            str(d / "c.parquet"),
        )
        out = str(d / "idx")
        build_index([str(d / "c.parquet")], out, slices=1, num_partitions=4,
                    batch_size=16, mode="simple", bucket_shift=5, keep_cols=())
        eng = QueryEngine(out)
        oracle = BruteForceIndex(range(n), texts, Analyzer("simple"))
        for _ in range(10):
            q = " ".join(rng.choice(vocab, size=rng.integers(1, 4)))
            exp = oracle.bm25_topk(q, k=10)
            got = eng.bm25_topk(q, k=10)
            assert [x for x, _ in got] == [x for x, _ in exp], (trial, q)
            for (_, gs), (_, es) in zip(got, exp):
                assert abs(gs - es) < 1e-9
            assert list(eng.conjunctive(q)) == oracle.conjunctive(q)


def test_hot_term_salted_across_partitions(built):
    """North-rule skew mechanic: a stopword-like hot term's postings are
    split across multiple doc-bucket chunks and multiple part files —
    no single reducer materialized the whole list."""
    import json
    import os
    from glob import glob

    import pyarrow.parquet as pq

    from anomaly_detection_ray.functions.hashing import sha256_file

    out, manifest, oracle = built
    hot = max(oracle.postings, key=lambda t: len(oracle.postings[t]))
    assert len(oracle.postings[hot]) > 100  # genuinely hot in the tiny corpus
    files = sorted(glob(os.path.join(out, "segments", "slice-*", "postings", "part-*.parquet")))
    holding = []
    for f in files:
        t = pq.read_table(f, columns=["term", "bucket", "df_chunk"])
        mask = [x == hot for x in t["term"].to_pylist()]
        if any(mask):
            holding.append((f, sum(mask)))
    # ≥2 slices → the hot term's list is built by ≥2 independent merges
    assert len(holding) >= 2, holding
    # the slice manifests' partition rows carry sha256 lineage for each
    for f, _ in holding:
        slice_dir = os.path.dirname(os.path.dirname(f))
        with open(os.path.join(slice_dir, "_slice_manifest.json")) as fh:
            rows = {p["path"]: p for p in json.load(fh)["partitions"]}
        assert rows[os.path.basename(f)]["sha256"] == sha256_file(f)


def test_extend_index_segment_add(ray_session, tiny_corpus, tmp_path_factory):
    """Segment add: build over files[:2], extend with files[2] — a fresh
    engine is rank- AND score-identical to a from-scratch build over all
    files (global df/avgdl re-derived). Re-adding the same files is a
    no-op; conflicting analyzer params are rejected."""
    import pytest as _pytest

    from anomaly_detection_ray.index.build import extend_index

    paths = tiny_corpus["paths"]
    base = str(tmp_path_factory.mktemp("extend"))
    kwargs = dict(num_partitions=8, batch_size=64, mode="code")
    build_index(paths[:2], base, slices=1, **kwargs)
    m = extend_index(base, [paths[2]], num_partitions=8, batch_size=64)
    assert len(m["slices"]) == 2

    full = str(tmp_path_factory.mktemp("full"))
    mf = build_index(paths, full, slices=1, **kwargs)
    assert m["n_docs"] == mf["n_docs"] and m["avgdl"] == _pytest.approx(mf["avgdl"])
    assert m["n_terms"] == mf["n_terms"]

    eng, eng_full = QueryEngine(base), QueryEngine(full)
    n_nonempty = 0
    for q in tiny_corpus["queries"]["query"].to_pylist():
        exp = eng_full.bm25_topk(q, k=10)
        got = eng.bm25_topk(q, k=10)
        assert [d for d, _ in got] == [d for d, _ in exp], q
        for (_, gs), (_, es) in zip(got, exp):
            assert gs == _pytest.approx(es, abs=1e-9)
        n_nonempty += bool(exp)
    assert n_nonempty > 10

    # idempotent re-add: same fingerprint → manifest unchanged
    m2 = extend_index(base, [paths[2]])
    assert len(m2["slices"]) == 2 and m2["stats_sha256"] == m["stats_sha256"]
    # mixed-analyzer adds are refused
    with _pytest.raises(ValueError, match="conflicts"):
        extend_index(base, [paths[0]], mode="simple")


def test_distributed_stats_finalize_parity(ray_session, tiny_corpus, tmp_path_factory, monkeypatch):
    """Vocabulary-scale finalize (a tiny ``STATS_PART_BYTES`` forces
    P > 1 term ranges): global term stats come from the raw-Ray range
    exchange and land as a DIRECTORY of globally-sorted part files — the
    driver never materializes the vocabulary. Content must be
    value-identical to the P = 1 single-file layout, and every
    dictionary surface (eager AND lazy row-group-pruned) must serve
    identically."""
    import os

    import pyarrow.parquet as _pq

    from anomaly_detection_ray.index import build

    a_dir = str(tmp_path_factory.mktemp("stats_inline"))
    b_dir = str(tmp_path_factory.mktemp("stats_dist"))
    kwargs = dict(slices=2, num_partitions=4, batch_size=64, mode="code")
    ma = build_index(tiny_corpus["paths"], a_dir, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(build, "STATS_PART_BYTES", 1024)
        mb = build_index(tiny_corpus["paths"], b_dir, **kwargs)

    assert os.path.isfile(os.path.join(a_dir, "stats.parquet"))
    assert os.path.isdir(os.path.join(b_dir, "stats.parquet"))
    assert ma["n_terms"] == mb["n_terms"] and ma["n_docs"] == mb["n_docs"]

    ta = _pq.read_table(os.path.join(a_dir, "stats.parquet"))
    tb = _pq.read_table(os.path.join(b_dir, "stats.parquet")).select(ta.column_names)
    assert ta.cast(tb.schema).equals(tb.combine_chunks().cast(tb.schema)) or \
        ta.to_pandas().equals(tb.to_pandas())

    ea, eb = QueryEngine(a_dir), QueryEngine(b_dir)
    lazy = QueryEngine(b_dir, dict_budget_bytes=0)
    assert not lazy._dict.eager and len(lazy._dict) == ma["n_terms"]
    for q in tiny_corpus["queries"]["query"].to_pylist()[:10]:
        assert ea.bm25_topk(q, k=10) == eb.bm25_topk(q, k=10) == lazy.bm25_topk(q, k=10)
    for t in ("merge", "sort", "zzabsent0"):
        assert ea.df(t) == eb.df(t) == lazy.df(t)
    assert ea.prefix_terms("me") == eb.prefix_terms("me") == lazy.prefix_terms("me")
    assert ea.wildcard_terms("me*e") == lazy.wildcard_terms("me*e")

    # a later default-size re-finalize (segment add / compaction path)
    # flips the layout back to ONE file atomically and serves
    # identical results — the dir→file swap in _swap_into_place
    import json

    from anomaly_detection_ray.index.build import _finalize_index

    manifest = json.load(open(os.path.join(b_dir, "manifest.json")))
    sms = [json.load(open(os.path.join(b_dir, s["dir"], "_slice_manifest.json")))
           for s in manifest["slices"]]
    m2 = _finalize_index(
        b_dir, sms, mode="code", bucket_shift=manifest["bucket_shift"],
        block_size=manifest["block_size"],
        dirs=[s["dir"] for s in manifest["slices"]],
        text_field=manifest.get("text_field"),
    )
    assert os.path.isfile(os.path.join(b_dir, "stats.parquet"))
    assert m2["n_terms"] == mb["n_terms"]
    assert QueryEngine(b_dir).bm25_topk("merge sort", k=5) == ea.bm25_topk("merge sort", k=5)


def test_write_stats_part_order_guard(tmp_path):
    """The per-part writer refuses to commit an internally-unsorted part
    (both dictionary serving modes bisect; the driver's boundary check
    alone can't see disorder inside a part) — the signal on which
    _write_global_stats raises instead of replacing the dictionary."""
    import os

    import pyarrow as _pa

    from anomaly_detection_ray.index.build import _write_stats_part

    good = _pa.table({"term": ["a", "b", "c"], "df": [1, 2, 3], "cttf": [1, 2, 3]})
    bad = _pa.table({"term": ["b", "a", "c"], "df": [1, 2, 3], "cttf": [1, 2, 3]})
    p1, p2 = str(tmp_path / "g.parquet"), str(tmp_path / "b.parquet")
    n, lo, hi, ok = _write_stats_part(good, p1)
    assert (n, lo, hi, ok) == (3, "a", "c", True) and os.path.exists(p1)
    n, lo, hi, ok = _write_stats_part(bad, p2)
    assert not ok and not os.path.exists(p2)  # never committed
    assert _write_stats_part(good.slice(0, 0), str(tmp_path / "e.parquet"))[3] is True


def test_stats_finalize_long_terms(ray_session, tiny_corpus, tmp_path_factory, monkeypatch):
    """Terms over pyarrow's 4096-byte statistics limit: their row
    groups' dropped bounds read back as ``''``. The range boundaries
    skip them, so P > 1 still gives the P = 1 values; the lazy
    dictionary reads a dropped max as unbounded, so it serves the same
    ``df`` / ``prefix_terms`` as the eager one."""
    import os

    import pyarrow as _pa
    import pyarrow.parquet as _pq

    from anomaly_detection_ray.index import build

    lo_term, mid_term, hi_term = "0" * 5000, "ab" * 2600, "z" * 5000
    t = tiny_corpus["table"].select(["doc_id", "content"])
    extra = {0: lo_term, 7: mid_term, 9: hi_term, 50: f"{hi_term} {lo_term}", 120: mid_term}
    content = [c + (" " + extra[i] if i in extra else "") for i, c in enumerate(t["content"].to_pylist())]
    t = t.set_column(1, "content", _pa.array(content))
    src = tmp_path_factory.mktemp("long_src")
    paths = []
    for i, lo in enumerate(range(0, t.num_rows, 70)):
        paths.append(str(src / f"part-{i}.parquet"))
        _pq.write_table(t.slice(lo, 70), paths[-1])

    a_dir = str(tmp_path_factory.mktemp("long_one"))
    b_dir = str(tmp_path_factory.mktemp("long_parts"))
    kwargs = dict(slices=2, num_partitions=4, batch_size=64, mode="code")
    ma = build_index(paths, a_dir, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(build, "STATS_PART_BYTES", 1024)
        mb = build_index(paths, b_dir, **kwargs)
    assert os.path.isfile(os.path.join(a_dir, "stats.parquet"))
    assert os.path.isdir(os.path.join(b_dir, "stats.parquet"))
    assert ma["n_terms"] == mb["n_terms"]
    ta = _pq.read_table(os.path.join(a_dir, "stats.parquet"))
    tb = _pq.read_table(os.path.join(b_dir, "stats.parquet"))
    assert ta.to_pylist() == tb.to_pylist()
    assert ta["term"][ta.num_rows - 1].as_py() == hi_term

    eager, lazy = QueryEngine(a_dir), QueryEngine(b_dir, dict_budget_bytes=0)
    assert not lazy._dict.eager
    for term, df in ((lo_term, 2), (mid_term, 2), (hi_term, 2)):
        assert eager.df(term) == lazy.df(term) == df
    for term in ta["term"].to_pylist()[-3:]:
        assert eager.df(term) == lazy.df(term) > 0
    for prefix in ("0", "ab", "z", "s"):
        assert eager.prefix_terms(prefix) == lazy.prefix_terms(prefix)
    assert mid_term in eager.prefix_terms("ab", max_expansions=10_000)


def test_stats_finalize_order_failure_keeps_old_index(ray_session, tiny_corpus, tmp_path, monkeypatch):
    """A stats part out of term order fails the finalize loudly: it
    raises, and the previous ``manifest.json`` and ``stats.parquet``
    stay in place byte for byte (no half-replaced dictionary)."""
    import json
    import os

    import pyarrow.parquet as _pq

    from anomaly_detection_ray.functions.hashing import sha256_file
    from anomaly_detection_ray.index import build

    out = str(tmp_path / "idx")
    build_index(tiny_corpus["paths"], out, slices=2, num_partitions=4, batch_size=64)
    manifest_path, stats_path = os.path.join(out, "manifest.json"), os.path.join(out, "stats.parquet")
    before = (sha256_file(manifest_path), sha256_file(stats_path))
    manifest = json.load(open(manifest_path))
    sms = [json.load(open(os.path.join(out, s["dir"], "_slice_manifest.json")))
           for s in manifest["slices"]]
    real_merge = build._merge_stats_range

    def reversed_merge(p, out_dir, *parts):
        """The real part, written in descending term order."""
        real_merge(p, out_dir, *parts)
        path = os.path.join(out_dir, f"part-{p:05d}.parquet")
        t = _pq.read_table(path)
        os.remove(path)
        return build._write_stats_part(t.sort_by([("term", "descending")]), path)

    monkeypatch.setattr(build, "_merge_stats_range", reversed_merge)
    with pytest.raises(RuntimeError, match="order"):
        build._finalize_index(out, sms, mode="code", bucket_shift=manifest["bucket_shift"],
                              block_size=manifest["block_size"],
                              dirs=[s["dir"] for s in manifest["slices"]],
                              text_field=manifest.get("text_field"))
    assert (sha256_file(manifest_path), sha256_file(stats_path)) == before
    assert sorted(os.listdir(out)) == ["manifest.json", "segments", "stats.parquet"]


def test_tail_index_ticks(ray_session, tiny_corpus, tmp_path_factory):
    """Continuous indexing: tick 1 builds from the first file, tick 2
    segment-adds the late arrivals, tick 3 is a no-op — and the result
    ranks identically to indexing everything at once."""
    import os
    import shutil

    from anomaly_detection_ray.index.build import tail_index_tick

    d = tmp_path_factory.mktemp("tailidx")
    inp, idx = str(d / "in"), str(d / "idx")
    os.makedirs(inp)
    paths = tiny_corpus["paths"]
    kwargs = dict(num_partitions=8, batch_size=64, mode="code")
    seen = str(d / "seen.json")

    shutil.copy(paths[0], inp)
    m1 = tail_index_tick(inp, idx, seen, **kwargs)
    assert m1 is not None and len(m1["slices"]) == 1

    shutil.copy(paths[1], inp)
    shutil.copy(paths[2], inp)
    m2 = tail_index_tick(inp, idx, seen, **kwargs)
    assert len(m2["slices"]) == 2 and m2["n_docs"] == 200

    assert tail_index_tick(inp, idx, seen, **kwargs) is None  # nothing new

    full = str(d / "full")
    build_index(paths, full, slices=1, **kwargs)
    eng, eng_full = QueryEngine(idx), QueryEngine(full)
    for q in tiny_corpus["queries"]["query"].to_pylist()[:10]:
        assert eng.bm25_topk(q, k=10) == eng_full.bm25_topk(q, k=10), q


def test_phrase_queries_vs_oracle(ray_session, tiny_corpus, tmp_path_factory):
    """match_phrase over the positional sidecar: set-identical to the
    brute-force naive-scan oracle for real in-corpus phrases (guaranteed
    hits), shuffled non-phrases (mostly misses), and the fixture query
    set; single-term degrades to term_docs; an index built WITHOUT
    positions refuses phrase queries."""
    from anomaly_detection_ray.index.queryast import QueryCompiler

    out = str(tmp_path_factory.mktemp("posidx"))
    build_index(tiny_corpus["paths"], out, slices=2, num_partitions=8,
                batch_size=64, mode="code", store_positions=True)
    eng = QueryEngine(out)
    table = tiny_corpus["table"]
    oracle = BruteForceIndex(
        table["doc_id"].to_pylist(), table["content"].to_pylist(), Analyzer("code")
    )

    rng = np.random.default_rng(5)
    phrases, n_hits = [], 0
    for did in rng.choice(table["doc_id"].to_pylist(), size=12, replace=False):
        toks = oracle.doc_tokens[int(did)]
        if len(toks) < 6:
            continue
        i = int(rng.integers(0, len(toks) - 4))
        phrases.append(" ".join(toks[i : i + int(rng.integers(2, 5))]))  # real phrase
        phrases.append(" ".join(rng.permutation(toks[:6])))              # scrambled
    phrases += tiny_corpus["queries"]["query"].to_pylist()[:10]
    for q in phrases:
        got = list(eng.phrase(q))
        exp = oracle.phrase(q)
        assert got == exp, q
        n_hits += bool(exp)
    assert n_hits >= 12  # the planted phrases really match

    # every phrase hit also satisfies plain conjunctive containment
    q0 = next(p for p in phrases if oracle.phrase(p))
    assert set(eng.phrase(q0)) <= set(eng.conjunctive(q0))

    # single term → term_docs; DSL match_phrase routes here
    t0 = oracle.doc_tokens[int(table["doc_id"][0].as_py())][0]
    assert list(eng.phrase(t0)) == list(eng.term_docs(t0))
    qc = QueryCompiler(eng)
    assert list(qc.execute({"match_phrase": {"content": q0}})) == oracle.phrase(q0)

    # no sidecar → clear refusal
    plain = str(tmp_path_factory.mktemp("noposidx"))
    build_index(tiny_corpus["paths"][:1], plain, slices=1, num_partitions=4,
                batch_size=64, mode="code")
    with pytest.raises(ValueError, match="store_positions"):
        QueryEngine(plain).phrase("a b")


def test_phrase_prefix_vs_oracle(ray_session, tiny_corpus, tmp_path_factory):
    """match_phrase_prefix: planted real phrases with the last token
    truncated to a prefix are set-identical to the naive-scan oracle in
    uncapped mode; the capped (Lucene default) mode returns a subset."""
    out = str(tmp_path_factory.mktemp("ppidx"))
    build_index(tiny_corpus["paths"], out, slices=2, num_partitions=8,
                batch_size=64, mode="code", store_positions=True)
    eng = QueryEngine(out)
    table = tiny_corpus["table"]
    oracle = BruteForceIndex(
        table["doc_id"].to_pylist(), table["content"].to_pylist(), Analyzer("code")
    )
    rng = np.random.default_rng(11)
    n_hits = 0
    for did in rng.choice(table["doc_id"].to_pylist(), size=10, replace=False):
        toks = oracle.doc_tokens[int(did)]
        if len(toks) < 5:
            continue
        i = int(rng.integers(0, len(toks) - 3))
        win = toks[i : i + 3]
        q = " ".join(win[:-1] + [win[-1][: max(1, len(win[-1]) // 2)]])
        got = list(eng.phrase_prefix(q, max_expansions=None))
        exp = oracle.phrase_prefix(q)
        assert got == exp, q
        assert set(eng.phrase_prefix(q, max_expansions=2)) <= set(exp), q
        n_hits += bool(exp)
    assert n_hits >= 8
    # single-token prefix query degrades to prefix_docs
    t0 = oracle.doc_tokens[int(table["doc_id"][0].as_py())][0]
    assert list(eng.phrase_prefix(t0[:2], max_expansions=None)) == list(eng.prefix_docs(t0[:2]))


def test_prefix_queries_vs_oracle(built, tiny_corpus):
    """Prefix queries: dictionary range scan + postings union is
    set-identical to the brute-force oracle; max_expansions truncates by
    term order (Lucene semantics); DSL routes both text and metadata."""
    from anomaly_detection_ray.index.queryast import QueryCompiler

    out, _, oracle = built
    eng = QueryEngine(out)
    vocab = sorted(oracle.postings)
    prefixes = sorted({t[:2] for t in vocab[::7]} | {t[:4] for t in vocab[::11]} | {"zzz_none"})
    n_hits = 0
    for p in prefixes:
        got = list(eng.prefix_docs(p))
        exp = oracle.prefix(p)
        assert got == exp, p
        n_hits += bool(exp)
    assert n_hits >= 5
    # max_expansions keeps the FIRST terms in dictionary order
    p = prefixes[0]
    terms_all = eng.prefix_terms(p)
    if len(terms_all) > 1:
        assert eng.prefix_terms(p, max_expansions=1) == terms_all[:1]
    qc = QueryCompiler(eng)
    assert list(qc.execute({"prefix": {"content": p}})) == oracle.prefix(p)


def test_extend_index_with_positions(ray_session, tiny_corpus, tmp_path_factory, check_positions_layout):
    """Segment adds preserve the positional sidecar: phrases spanning
    both the original and the appended slice resolve identically to a
    from-scratch positional build."""
    from anomaly_detection_ray.index.build import extend_index

    paths = tiny_corpus["paths"]
    kwargs = dict(num_partitions=8, batch_size=64, mode="code", store_positions=True)
    base = str(tmp_path_factory.mktemp("posext"))
    build_index(paths[:2], base, slices=1, **kwargs)
    m = extend_index(base, [paths[2]])  # store_positions inherited from manifest
    assert m["store_positions"] is True

    full = str(tmp_path_factory.mktemp("posfull"))
    build_index(paths, full, slices=1, **kwargs)
    check_positions_layout(base)
    check_positions_layout(full)
    eng, eng_full = QueryEngine(base), QueryEngine(full)
    table = tiny_corpus["table"]
    oracle = BruteForceIndex(
        table["doc_id"].to_pylist(), table["content"].to_pylist(), Analyzer("code")
    )
    rng = np.random.default_rng(9)
    n_hits = 0
    for did in rng.choice(table["doc_id"].to_pylist(), size=8, replace=False):
        toks = oracle.doc_tokens[int(did)]
        if len(toks) < 4:
            continue
        i = int(rng.integers(0, len(toks) - 3))
        q = " ".join(toks[i : i + 3])
        assert list(eng.phrase(q)) == list(eng_full.phrase(q)) == oracle.phrase(q), q
        n_hits += bool(oracle.phrase(q))
    assert n_hits >= 6


def test_kill_mid_build_resume(ray_session, tiny_corpus, tmp_path_factory):
    """Simulated mid-build failure: one slice's outputs lost → rebuild
    recomputes ONLY that slice and the final index is byte-identical."""
    import json
    import os
    import shutil

    out = str(tmp_path_factory.mktemp("resume"))
    kwargs = dict(slices=2, num_partitions=8, batch_size=64, mode="code")
    m1 = build_index(tiny_corpus["paths"], out, **kwargs)
    shas_full = [p["sha256"] for s in m1["slices"] for p in s["partitions"]]

    # "crash": slice-0001 vanishes mid-run
    shutil.rmtree(os.path.join(out, "segments", "slice-0001"))
    m2 = build_index(tiny_corpus["paths"], out, **kwargs)
    assert m2["slices"][0]["resumed"] is True      # untouched slice skipped
    assert m2["slices"][1]["resumed"] is False     # lost slice rebuilt
    shas_resumed = [p["sha256"] for s in m2["slices"] for p in s["partitions"]]
    assert shas_resumed == shas_full               # byte-identical lineage
    with open(os.path.join(out, "manifest.json")) as f:
        assert json.load(f)["n_docs"] == 200


def test_wide_records_byte_capped_batches(ray_session, tmp_path):
    """MB-scale content rows: the adaptive (byte-capped) batch size must
    produce results identical to an explicit tiny batch size."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    docs = pa.table(
        {
            "doc_id": pa.array(list(range(12)), pa.int64()),
            "content": pa.array(
                [f"wide{i} shared body " + ("filler lorem token " * 60_000)
                 for i in range(12)]
            ),
        }
    )
    src = str(tmp_path / "wide.parquet")
    pq.write_table(docs, src, row_group_size=4)
    a = str(tmp_path / "idx_auto")
    b = str(tmp_path / "idx_tiny")
    build_index([src], a, slices=1, num_partitions=2, mode="code")  # adaptive
    build_index([src], b, slices=1, num_partitions=2, mode="code", batch_size=2)
    ea, eb = QueryEngine(a), QueryEngine(b)
    assert ea.n_docs == 12 and ea.avgdl == eb.avgdl
    for q in ["shared body", "wide3 filler", "lorem"]:
        ha = ea.bm25_topk(q, k=12)
        hb = eb.bm25_topk(q, k=12)
        assert [d for d, _ in ha] == [d for d, _ in hb], q
        for (_, sa), (_, sb) in zip(ha, hb):
            assert sa == pytest.approx(sb, abs=1e-9)


def test_empty_corpus_build_and_query(ray_session, tmp_path):
    """Degenerate input: zero-doc corpus builds an empty-but-valid index."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    src = str(tmp_path / "empty.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array([], pa.int64()), "content": pa.array([], pa.string())}), src
    )
    out = str(tmp_path / "idx")
    m = build_index([src], out, slices=1, num_partitions=4)
    assert m["n_docs"] == 0 and m["n_terms"] == 0
    eng = QueryEngine(out)
    assert eng.bm25_topk("anything") == []
    assert list(eng.conjunctive("anything")) == []


def test_locality_corpus_oracle_parity(ray_session, tmp_path_factory):
    """VERDICT r1 #8/#9: on a doc-id-locality corpus (segment-local
    identifiers) BM25 stays rank-identical to the brute-force oracle and
    a rare-and-dense conjunctive equals a brute intersection."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from anomaly_detection_ray.sources.corpus import write_locality_corpus

    d = tmp_path_factory.mktemp("loc")
    files = write_locality_corpus(str(d / "c"), n_docs=4000, seg_docs=256, n_files=2)
    out = str(d / "idx")
    build_index(files, out, slices=1, num_partitions=8, mode="code",
                batch_size=512, bucket_shift=12)
    eng = QueryEngine(out)
    table = pa.concat_tables([pq.read_table(f, columns=["doc_id", "content"]) for f in files])
    oracle = BruteForceIndex(table["doc_id"].to_pylist(), table["content"].to_pylist(),
                             Analyzer("code"))
    for g in range(0, 15, 3):
        q = f"seg{g:05d}loc0 value return"
        got, exp = eng.bm25_topk(q, 10), oracle.bm25_topk(q, 10)
        assert [d for d, _ in got] == [d for d, _ in exp], q
        assert all(abs(a - b) < 1e-9 for (_, a), (_, b) in zip(got, exp)), q
    cand = eng.term_docs("seg00003loc0")      # one segment's docs
    full = np.intersect1d(eng.term_docs("value"), cand)
    got = eng.conjunctive("seg00003loc0 value")
    assert np.array_equal(np.sort(full), np.sort(got))


def test_phrase_slop_vs_bruteforce(ray_session, tiny_corpus, tmp_path_factory):
    """Sloppy phrase (in-order within window p_k−p_1 ≤ k−1+slop): the
    vectorized greedy chain must equal a brute-force scan over every
    doc's token positions, for 2- and 3-term phrases at slop 0..3;
    slop=0 ≡ the exact-adjacency path; DSL long form carries slop."""
    import itertools

    out = str(tmp_path_factory.mktemp("slopidx"))
    build_index(tiny_corpus["paths"], out, slices=1, num_partitions=8,
                batch_size=64, mode="code", store_positions=True)
    eng = QueryEngine(out)
    table = tiny_corpus["table"]
    oracle = BruteForceIndex(
        table["doc_id"].to_pylist(), table["content"].to_pylist(), Analyzer("code")
    )

    def brute_slop(terms, slop):
        hits = []
        for did, toks in oracle.doc_tokens.items():
            pos = {t: [i for i, x in enumerate(toks) if x == t] for t in set(terms)}
            if any(not pos[t] for t in terms):
                continue
            found = False
            for p1 in pos[terms[0]]:
                cur = p1
                ok = True
                for t in terms[1:]:
                    nxt = [p for p in pos[t] if p > cur]
                    if not nxt:
                        ok = False
                        break
                    cur = nxt[0]
                if ok and cur - p1 <= len(terms) - 1 + slop:
                    found = True
                    break
            if found:
                hits.append(did)
        return sorted(hits)

    rng = np.random.default_rng(9)
    cases = []
    for did in rng.choice(table["doc_id"].to_pylist(), size=8, replace=False):
        toks = oracle.doc_tokens[int(did)]
        if len(toks) < 8:
            continue
        i = int(rng.integers(0, len(toks) - 6))
        cases.append([toks[i], toks[i + 2]])             # gap of 1 → needs slop ≥ 1
        cases.append([toks[i], toks[i + 1], toks[i + 3]])  # 3 terms, gap inside
    assert cases
    for terms, slop in itertools.product(cases, (0, 1, 2, 3)):
        q = " ".join(terms)
        got = list(eng.phrase(q, slop=slop))
        assert got == brute_slop(eng.analyzer.tokens(q), slop), (q, slop)
    # slop=0 ≡ exact-adjacency walk; DSL long form routes the slop
    q2 = " ".join(cases[0])
    assert list(eng.phrase(q2, slop=0)) == list(eng.phrase(q2))
    from anomaly_detection_ray.index.queryast import QueryCompiler

    qc = QueryCompiler(eng)
    got_dsl = list(qc.execute({"match_phrase": {"content": {"query": q2, "slop": 2}}}))
    assert got_dsl == list(eng.phrase(q2, slop=2))
