"""Tombstone deletes + compaction vs fresh-build / stale-stats oracles.

Delete semantics under test (Lucene's delete-before-merge model):
- a delete never changes a live doc's BM25 score (stats stay stale);
- the post-delete top-k equals the pre-delete ranking with tombstoned
  docs removed;
- compaction (forceMerge(1)) purges tombstones and recomputes exact
  stats: scores become identical to a from-scratch build over the
  live docs.
"""

import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from anomaly_detection_ray.functions.analyzer import Analyzer
from anomaly_detection_ray.index.build import build_index, extend_index
from anomaly_detection_ray.index.lifecycle import (
    compact_index,
    delete_by_query,
    delete_docs,
    load_deleted,
)
from anomaly_detection_ray.index.oracle import BruteForceIndex
from anomaly_detection_ray.index.query import QueryEngine

QUERIES = ["merge sort", "parse import", "window filter data", "import"]
PHRASES = ["merge sort", "import parse"]


def _hits_minus(hits, deleted, k):
    return [(d, s) for d, s in hits if d not in deleted][:k]


@pytest.fixture(scope="module")
def deleted_index(ray_session, tiny_corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("lifecycle_idx"))
    build_index(
        tiny_corpus["paths"], out, slices=2, num_partitions=4, batch_size=64,
        mode="code", store_positions=True,
    )
    pre = QueryEngine(out)
    pre_topk = {q: pre.bm25_topk(q, k=200) for q in QUERIES}
    pre_phrase = {p: list(pre.phrase(p)) for p in PHRASES}
    # tombstone the top hits of the first query plus a doc-id comb —
    # deletes that actually perturb rankings
    deleted = {d for d, _ in pre_topk[QUERIES[0]][:3]} | set(range(0, 200, 7))
    delete_docs(out, sorted(deleted))
    return out, deleted, pre_topk, pre_phrase


def test_delete_filters_every_query_path(deleted_index, tiny_corpus):
    out, deleted, pre_topk, pre_phrase = deleted_index
    eng = QueryEngine(out)
    table = tiny_corpus["table"]
    oracle = BruteForceIndex(
        table["doc_id"].to_pylist(), table["content"].to_pylist(), Analyzer("code")
    )
    # postings exclude tombstones
    for term in ["import", "merge", "parse"]:
        exp = sorted(set(oracle.postings.get(term, ())) - deleted)
        assert list(eng.term_docs(term)) == exp, term
    # conjunctive
    for q in QUERIES:
        assert list(eng.conjunctive(q)) == sorted(set(oracle.conjunctive(q)) - deleted), q
    # phrase (positional sidecar filtered too)
    for p in PHRASES:
        assert list(eng.phrase(p)) == sorted(set(pre_phrase[p]) - deleted), p
    # DSL: match_all + meta filters run over the live docmap
    all_live = sorted(set(table["doc_id"].to_pylist()) - deleted)
    assert list(eng.execute_filter({"match_all": {}})) == all_live
    df = table.to_pandas()
    py = sorted(set(df[df["lang"] == "python"]["doc_id"]) - deleted)
    assert list(eng.execute_filter({"term": {"lang": "python"}})) == py


def test_delete_keeps_live_scores_stale_stats(deleted_index):
    """Top-k after delete == pre-delete ranking minus tombstones, scores
    bit-identical — the Lucene stale-stats invariant."""
    out, deleted, pre_topk, _ = deleted_index
    eng = QueryEngine(out)
    for q in QUERIES:
        expected = _hits_minus(pre_topk[q], deleted, 10)
        got = eng.bm25_topk(q, k=10)
        assert [d for d, _ in got] == [d for d, _ in expected], q
        for (_, gs), (_, es) in zip(got, expected):
            assert gs == pytest.approx(es, abs=1e-9)


def test_index_stats_reflects_lifecycle(deleted_index):
    out, deleted, _, _ = deleted_index
    s = QueryEngine(out).index_stats()
    assert s["n_docs"] == 200  # stale until compaction, like Lucene
    assert s["n_deleted"] == len(deleted)
    assert s["n_slices"] == 2 and s["postings_bytes"] > 0
    assert s["store_positions"] is True and s["analyzer_mode"] == "code"


def test_facets_count_highlight_respect_tombstones(deleted_index, tiny_corpus):
    """Composed serving surfaces all evaluate the LIVE view."""
    out, deleted, _, _ = deleted_index
    eng = QueryEngine(out)
    df = tiny_corpus["table"].to_pandas()
    live = df[~df["doc_id"].isin(deleted)]
    assert eng.count(None) == len(live)
    rows = {b["key"]: b["doc_count"]
            for b in eng.terms_agg(eng.execute_filter(None), "lang", 100)}
    assert rows == live["lang"].value_counts().to_dict()
    # highlighted hits never include tombstoned docs
    from anomaly_detection_ray.stages.highlight import snippets_for_hits

    hits = eng.bm25_topk(QUERIES[0], k=8)
    snips = snippets_for_hits(eng, tiny_corpus["paths"], QUERIES[0], hits)
    assert snips and not {r["doc_id"] for r in snips} & deleted


def test_delete_union_and_by_query(ray_session, tiny_corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("lifecycle_del2"))
    build_index(tiny_corpus["paths"], out, slices=1, num_partitions=4, mode="code")
    m1 = delete_docs(out, [1, 2, 3])
    m2 = delete_docs(out, [3, 4])  # union, idempotent overlap
    assert m2["deletes"]["n_deleted"] == 4
    assert list(load_deleted(out)) == [1, 2, 3, 4]
    # delete_by_query resolves against the LIVE view
    eng = QueryEngine(out)
    victims = set(eng.execute_filter({"term": {"lang": "go"}}).tolist())
    assert victims, "fixture should contain go docs"
    _, n = delete_by_query(out, {"term": {"lang": "go"}})
    assert n == len(victims)
    eng2 = QueryEngine(out)
    assert not set(eng2.execute_filter({"match_all": {}}).tolist()) & victims


def test_compact_equals_fresh_build_over_live_docs(
    deleted_index, tiny_corpus, tmp_path_factory, check_positions_layout
):
    out, deleted, _, _ = deleted_index
    manifest = compact_index(out)
    assert "deletes" not in manifest
    assert len(manifest["slices"]) == 1
    check_positions_layout(out)
    assert manifest["n_docs"] == 200 - len(deleted)

    # fresh build over only the live docs
    table = tiny_corpus["table"]
    live = table.filter(
        ~np.isin(table["doc_id"].to_numpy(), np.asarray(sorted(deleted)))
    )
    fresh_dir = str(tmp_path_factory.mktemp("fresh_live"))
    src = os.path.join(fresh_dir, "live.parquet")
    pq.write_table(live, src)
    fresh_idx = os.path.join(fresh_dir, "idx")
    fm = build_index(
        [src], fresh_idx, slices=1, num_partitions=4, mode="code",
        store_positions=True,
    )
    assert manifest["avgdl"] == pytest.approx(fm["avgdl"])
    assert manifest["n_terms"] == fm["n_terms"]

    ce, fe = QueryEngine(out), QueryEngine(fresh_idx)
    for term in ["import", "merge", "parse", "window"]:
        assert ce.df(term) == fe.df(term), term
        assert list(ce.term_docs(term)) == list(fe.term_docs(term)), term
    for q in QUERIES:
        exp = fe.bm25_topk(q, k=10)
        got = ce.bm25_topk(q, k=10)
        assert [d for d, _ in got] == [d for d, _ in exp], q
        for (_, gs), (_, es) in zip(got, exp):
            assert gs == pytest.approx(es, abs=1e-9)
    for p in PHRASES:
        assert list(ce.phrase(p)) == list(fe.phrase(p)), p
    # docmap rewritten to live docs only
    dm = ce.docmap().to_table()
    assert dm.num_rows == 200 - len(deleted)
    assert not set(dm["doc_id"].to_pylist()) & deleted

    # segment add AFTER compaction: fresh slice id, no dir collision
    import pyarrow as pa

    new_docs = pa.table(
        {
            "doc_id": pa.array([9001, 9002], pa.int64()),
            "content": pa.array(["zzuniqueterm alpha", "zzuniqueterm beta"]),
            "lang": pa.array(["python", "go"]),
        }
    )
    add_src = os.path.join(fresh_dir, "add.parquet")
    pq.write_table(new_docs, add_src)
    m2 = extend_index(out, [add_src])
    assert len(m2["slices"]) == 2
    assert m2["slices"][0]["dir"] != m2["slices"][1]["dir"]
    e2 = QueryEngine(out)
    assert list(e2.term_docs("zzuniqueterm")) == [9001, 9002]


def test_update_docs_scoped_tombstones(ray_session, tiny_corpus, tmp_path_factory):
    """update_docs = delete-in-old-segments + add-in-new-segment: the
    SAME doc_id serves its new content immediately; old copies stay dead
    through every query path; compaction converges to a fresh build."""
    import pyarrow as pa

    base = str(tmp_path_factory.mktemp("lifecycle_upd"))
    out = os.path.join(base, "idx")
    build_index(
        tiny_corpus["paths"], out, slices=2, num_partitions=4, batch_size=64,
        mode="code", store_positions=True,
    )
    table = tiny_corpus["table"]
    pre = QueryEngine(out)
    # pick two docs that currently match 'merge' — new content drops it
    victims = [int(d) for d in pre.term_docs("merge")[:2]]
    new_rows = pa.table(
        {
            "doc_id": pa.array(victims, pa.int64()),
            "content": pa.array(
                [f"zzfresh{d} replacement text body" for d in victims]
            ),
            "lang": pa.array(["python"] * len(victims)),
        }
    )
    upd_src = os.path.join(base, "upd.parquet")
    pq.write_table(new_rows, upd_src)
    from anomaly_detection_ray.index.lifecycle import update_docs

    m = update_docs(out, [upd_src])
    assert len(m["slices"]) == 3 and "deletes" in m

    eng = QueryEngine(out)
    # new content is served under the same ids
    for d in victims:
        assert list(eng.term_docs(f"zzfresh{d}")) == [d]
    # old copies are dead: 'merge' no longer matches the victims …
    assert not set(eng.term_docs("merge").tolist()) & set(victims)
    # … including through the block-skip conjunctive path: victims match
    # 'replacement' (new) but must NOT match 'merge replacement'
    assert not set(eng.conjunctive("merge replacement").tolist()) & set(victims)
    # match_all cardinality is unchanged (replace, not add)
    assert list(eng.execute_filter({"match_all": {}})) == sorted(
        table["doc_id"].to_pylist()
    )
    # phrase over the new content works; old-phrase hits on victims are gone
    assert sorted(eng.phrase("replacement text").tolist()) == sorted(victims)

    # idempotent rerun: same files → identical state
    update_docs(out, [upd_src])
    eng2 = QueryEngine(out)
    for d in victims:
        assert list(eng2.term_docs(f"zzfresh{d}")) == [d]
    assert list(eng2.execute_filter({"match_all": {}})) == sorted(
        table["doc_id"].to_pylist()
    )

    # compaction converges to a fresh build over the UPDATED corpus
    from anomaly_detection_ray.index.lifecycle import compact_index

    compact_index(out, gc=True)
    updated = table.to_pandas().set_index("doc_id")
    for d, txt in zip(victims, new_rows["content"].to_pylist()):
        updated.loc[d, "content"] = txt
    fresh_dir = os.path.join(base, "fresh")
    os.makedirs(fresh_dir)
    src = os.path.join(fresh_dir, "docs.parquet")
    pq.write_table(pa.Table.from_pandas(updated.reset_index()), src)
    fresh_idx = os.path.join(fresh_dir, "idx")
    build_index([src], fresh_idx, slices=1, num_partitions=4, mode="code",
                store_positions=True)
    ce, fe = QueryEngine(out), QueryEngine(fresh_idx)
    assert ce.n_docs == fe.n_docs and ce.avgdl == pytest.approx(fe.avgdl)
    for q in QUERIES + ["replacement text body"]:
        exp = fe.bm25_topk(q, k=10)
        got = ce.bm25_topk(q, k=10)
        assert [d for d, _ in got] == [d for d, _ in exp], q
        for (_, gs), (_, es) in zip(got, exp):
            assert gs == pytest.approx(es, abs=1e-9)

    # a plain delete AFTER an update kills the doc outright
    delete_docs(out, [victims[0]])
    e3 = QueryEngine(out)
    assert victims[0] not in set(e3.execute_filter({"match_all": {}}).tolist())
    assert list(e3.term_docs(f"zzfresh{victims[0]}")) == []


def test_delete_everything_then_compact(ray_session, tiny_corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("lifecycle_all"))
    build_index(tiny_corpus["paths"], out, slices=1, num_partitions=4, mode="code")
    # deleting unknown ids is a harmless no-op union
    delete_docs(out, [10**9, 10**9 + 1])
    eng = QueryEngine(out)
    assert eng.count(None) == 200
    delete_docs(out, range(0, 500))
    eng = QueryEngine(out)
    assert eng.count(None) == 0
    assert eng.bm25_topk("merge sort", k=10) == []
    assert list(eng.term_docs("import")) == []
    m = compact_index(out, gc=True)
    assert m["n_docs"] == 0 and m["n_terms"] == 0
    empty = QueryEngine(out)
    assert empty.bm25_topk("merge sort", k=10) == []
    assert empty.count(None) == 0


def test_partial_merge_tiered_policy(ray_session, tiny_corpus, tmp_path_factory):
    """maybe_merge folds only the smallest slices, keeps tombstones
    governing the untouched ones, and preserves every query result."""
    import pyarrow as pa

    from anomaly_detection_ray.index.lifecycle import maybe_merge, merge_slices

    base = str(tmp_path_factory.mktemp("lifecycle_tier"))
    out = os.path.join(base, "idx")
    # 4 slices: 3 from the corpus + 1 tiny segment add
    build_index(tiny_corpus["paths"], out, slices=3, num_partitions=4, mode="code")
    add = pa.table(
        {"doc_id": pa.array([901, 902], pa.int64()),
         "content": pa.array(["zztier alpha", "zztier beta"])}
    )
    add_src = os.path.join(base, "add.parquet")
    pq.write_table(add, add_src)
    extend_index(out, [add_src])
    # tombstone a few docs spread across slices
    delete_docs(out, [0, 80, 150, 901])
    before = QueryEngine(out)
    ref_top = {q: before.bm25_topk(q, k=10) for q in QUERIES}
    ref_all = list(before.execute_filter({"match_all": {}}))
    ref_tier = list(before.term_docs("zztier"))

    # under the cap → no-op
    assert maybe_merge(out, max_slices=4) is None
    m = maybe_merge(out, max_slices=3, gc=True)
    assert m is not None and len(m["slices"]) == 3
    assert "deletes" in m  # partial merge keeps the tombstones
    after = QueryEngine(out)
    # membership invariants are exact: the live doc set is unchanged
    assert list(after.execute_filter({"match_all": {}})) == ref_all
    assert list(after.term_docs("zztier")) == ref_tier == [902]
    # BM25 stats legitimately SHIFT for merged docs (their tombstones
    # were purged from df/avgdl/n_docs — Lucene merges do the same), so
    # assert live hits rather than score identity
    live = set(ref_all)
    for q in QUERIES:
        got = after.bm25_topk(q, k=10)
        assert got and all(d in live for d, _ in got), q
    # a later FULL merge still converges and clears tombstones
    m2 = merge_slices(out, gc=True)
    assert "deletes" not in m2 and len(m2["slices"]) == 1
    final = QueryEngine(out)
    assert list(final.execute_filter({"match_all": {}})) == ref_all


def test_tail_ticks_bound_slice_count(ray_session, tmp_path_factory):
    """Continuous ticks with max_slices keep segment count bounded while
    every tick's docs stay searchable."""
    import pyarrow as pa

    from anomaly_detection_ray.index.build import tail_index_tick

    base = tmp_path_factory.mktemp("tier_ticks")
    inp = base / "in"
    inp.mkdir()
    idx = str(base / "idx")
    seen = str(base / "seen.json")
    for t in range(6):
        tbl = pa.table(
            {
                "doc_id": pa.array([t * 10 + j for j in range(3)], pa.int64()),
                "content": pa.array([f"tick{t} common doc{t * 10 + j}" for j in range(3)]),
            }
        )
        pq.write_table(tbl, str(inp / f"batch-{t:02d}.parquet"))
        m = tail_index_tick(str(inp), idx, seen, max_slices=3,
                            num_partitions=2, mode="code")
        assert len(m["slices"]) <= 3
    eng = QueryEngine(idx)
    assert eng.count(None) == 18
    assert list(eng.term_docs("common")) == sorted(
        t * 10 + j for t in range(6) for j in range(3)
    )
    for t in range(6):
        assert list(eng.term_docs(f"tick{t}")) == [t * 10 + j for j in range(3)], t


def test_compact_without_deletes_merges_slices(ray_session, tiny_corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("lifecycle_merge"))
    build_index(tiny_corpus["paths"], out, slices=3, num_partitions=4, mode="code")
    eng = QueryEngine(out)
    before = {q: eng.bm25_topk(q, k=10) for q in QUERIES}
    m = compact_index(out, gc=True)
    assert len(m["slices"]) == 1
    assert m["n_docs"] == 200
    # old slice dirs removed by gc
    assert sorted(os.listdir(os.path.join(out, "segments"))) == [
        os.path.basename(m["slices"][0]["dir"])
    ]
    after = QueryEngine(out)
    for q in QUERIES:
        got = after.bm25_topk(q, k=10)
        assert [d for d, _ in got] == [d for d, _ in before[q]]
        for (_, gs), (_, es) in zip(got, before[q]):
            assert gs == pytest.approx(es, abs=1e-9)


def test_docmap_and_postings_paths_agree(ray_session, tiny_corpus, tmp_path_factory):
    """The default engine (in-memory docmap columns, preloaded postings)
    and ``preload_bytes=0`` (per-request pushdown docmap scans, on-disk
    postings) answer alike: filters, aggregations, a sorted search, a
    collapse page and ``_source`` — over an index with a delete and a
    scoped update slice that lacks keep columns (null-filled), and over
    an empty compacted index. So does ``postings_cache_bytes=1``, which
    evicts on every insert: BM25, conjunctive, wildcard and fuzzy answers,
    whose doc sets also equal a brute-force oracle over the live text."""
    import pyarrow as pa

    from anomaly_detection_ray.index.lifecycle import update_docs
    from anomaly_detection_ray.index.query import search

    base = str(tmp_path_factory.mktemp("docmap_paths"))
    out = os.path.join(base, "idx")
    build_index(tiny_corpus["paths"], out, slices=2, num_partitions=4, mode="code")
    delete_docs(out, [3, 50, 51, 120])
    upd = pa.table({
        "doc_id": pa.array([7, 60], pa.int64()),
        "content": pa.array(["zzupd merge body", "zzupd sort body"]),
        "lang": pa.array(["go", "python"]),
    })
    src = os.path.join(base, "upd.parquet")
    pq.write_table(upd, src)
    update_docs(out, [src])  # no repo/path/commit in the update slice
    empty = os.path.join(base, "empty")
    build_index(tiny_corpus["paths"], empty, slices=1, num_partitions=4, mode="code")
    delete_docs(empty, range(0, 500))
    compact_index(empty, gc=True)

    filters = [
        None,
        {"term": {"lang": "go"}},
        {"terms": {"lang": ["go", "rust"]}},
        {"exists": {"field": "repo"}},
        {"prefix": {"repo": "org1"}},
        {"wildcard": {"path": "src/pkg1/*"}},
        {"regexp": {"lang": "ja.a"}},
        {"fuzzy": {"lang": "pythn"}},
        {"range": {"doc_id": {"gte": 40, "lt": 90}}},
        {"ids": {"values": [3, 7, 8, 60]}},
        {"bool": {"must": [{"match": {"content": "merge"}}],
                  "must_not": [{"prefix": {"repo": "org2"}}]}},
    ]
    bodies = [
        {"query": {"bool": {"must": [{"match": {"content": "merge sort body"}}],
                            "filter": [{"terms": {"lang": ["go", "python"]}}]}},
         "size": 5, "aggs": {"l": {"terms": {"field": "repo", "size": 4}},
                             "s": {"stats": {"field": "doc_id"}}}},
        {"query": {"term": {"lang": "python"}}, "sort": [{"repo": "desc"}], "size": 6},
        {"query": {"match": {"content": "body merge"}}, "collapse": {"field": "repo"},
         "size": 5},
    ]
    for idx in (out, empty):
        fast, slow = QueryEngine(idx), QueryEngine(idx, preload_bytes=0)
        for q in filters:
            docs = fast.execute_filter(q)
            assert list(docs) == list(slow.execute_filter(q)), (idx, q)
            assert fast.terms_agg(docs, "lang") == slow.terms_agg(docs, "lang"), (idx, q)
            for field, op in (("repo", "cardinality"), ("doc_id", "stats")):
                assert fast.metric_agg(docs, field, op) == slow.metric_agg(docs, field, op)
        for body in bodies:
            assert search(fast, body) == search(slow, body), (idx, body)
        tiny = QueryEngine(idx, postings_cache_bytes=1)
        for q in QUERIES + ["zzupd merge body"]:
            assert tiny.bm25_topk(q, k=10) == fast.bm25_topk(q, k=10), (idx, q)
            assert list(tiny.conjunctive(q)) == list(fast.conjunctive(q)), (idx, q)
        for pat in ("mer*", "zzup*", "*ort"):
            assert list(tiny.wildcard_docs(pat)) == list(fast.wildcard_docs(pat)), (idx, pat)
        for term in ("merg", "zzupdd", "sortt"):
            assert list(tiny.fuzzy_docs(term)) == list(fast.fuzzy_docs(term)), (idx, term)
    # scoped tombstones on every decode: the live text is the corpus minus
    # the deletes, with docs 7 and 60 replaced by their update
    text = dict(zip(tiny_corpus["table"]["doc_id"].to_pylist(),
                    tiny_corpus["table"]["content"].to_pylist()))
    for d in (3, 50, 51, 120):
        del text[d]
    text.update(zip(upd["doc_id"].to_pylist(), upd["content"].to_pylist()))
    oracle = BruteForceIndex(list(text), list(text.values()), Analyzer("code"))
    tiny = QueryEngine(out, postings_cache_bytes=1)
    for q in QUERIES + ["zzupd merge body", "merge body"]:
        assert list(tiny.conjunctive(q)) == oracle.conjunctive(q), q
    for prefix in ("mer", "zzup", "sor"):
        assert list(tiny.wildcard_docs(prefix + "*")) == oracle.prefix(prefix), prefix
    fast, slow = QueryEngine(out), QueryEngine(out, preload_bytes=0)
    assert fast.docmap_in_memory and not slow.docmap_in_memory
    assert not slow._preloaded
    # doc 7's update slice has no repo column: its _source reads null
    hits = search(fast, {"query": {"ids": {"values": [7, 8]}}, "size": 2})["hits"]["hits"]
    assert hits[0]["_source"]["repo"] is None and hits[1]["_source"]["repo"] is not None


def _assert_matches_oracle(eng, ids, texts):
    oracle = BruteForceIndex(ids, texts, Analyzer("code"))
    for q in QUERIES:
        got, exp = eng.bm25_topk(q, k=10), oracle.bm25_topk(q, k=10)
        assert [d for d, _ in got] == [d for d, _ in exp], q
        for (_, gs), (_, es) in zip(got, exp):
            assert gs == pytest.approx(es, abs=1e-9)


def test_single_partition_build_and_compact(ray_session, tiny_corpus, tmp_path_factory):
    """num_partitions=1: the exchange has one reducer; build and
    compaction stay rank- and score-identical to the oracle."""
    out = str(tmp_path_factory.mktemp("lifecycle_p1"))
    table = tiny_corpus["table"]
    ids, texts = table["doc_id"].to_pylist(), table["content"].to_pylist()
    m = build_index(tiny_corpus["paths"], out, slices=2, num_partitions=1, batch_size=64,
                    mode="code")
    assert all(len(s["partitions"]) == 1 for s in m["slices"])
    _assert_matches_oracle(QueryEngine(out), ids, texts)

    dead = set(range(0, 200, 5))
    delete_docs(out, sorted(dead))
    m = compact_index(out, num_partitions=1, gc=True)
    assert len(m["slices"]) == 1 and len(m["slices"][0]["partitions"]) == 1
    live = [(d, t) for d, t in zip(ids, texts) if d not in dead]
    eng = QueryEngine(out)
    assert eng.count(None) == len(live) == m["n_docs"]
    _assert_matches_oracle(eng, [d for d, _ in live], [t for _, t in live])


def test_tiered_merge_one_read_keeps_scoped_tombstones(
    ray_session, tiny_corpus, tmp_path_factory, monkeypatch
):
    """A partial merge reads the merged slices' postings in one read and
    applies scoped tombstones (``live_from``): an updated doc's old copy
    is purged from the merged slice, stays dead in the untouched one, and
    its new copy stays live — in postings and docmap alike."""
    import hashlib

    import pyarrow as pa
    import ray.data as rd

    from anomaly_detection_ray.index.lifecycle import load_tombstones, maybe_merge, update_docs

    base = tmp_path_factory.mktemp("lifecycle_scoped")
    out = str(base / "idx")
    paths = sorted(tiny_corpus["paths"])
    build_index(paths, out, slices=3, num_partitions=4, mode="code")
    # one victim per corpus slice, re-added by an update into slice 3
    victims = [int(pq.read_table(f, columns=["doc_id"])["doc_id"][0].as_py()) for f in paths]
    new_text = [f"zzscoped{d} replacement body" for d in victims]
    upd = str(base / "upd.parquet")
    pq.write_table(pa.table({"doc_id": pa.array(victims, pa.int64()),
                             "content": pa.array(new_text)}), upd)
    update_docs(out, [upd])
    before = QueryEngine(out)
    ref_all = list(before.execute_filter({"match_all": {}}))
    ref_hits = {q: [d for d, _ in before.bm25_topk(q, k=200)] for q in QUERIES}

    calls = []
    read_parquet = rd.read_parquet

    def counting(*args, **kwargs):
        calls.append(args[0])
        return read_parquet(*args, **kwargs)

    monkeypatch.setattr(rd, "read_parquet", counting)
    # merges the update slice with the smallest corpus slice
    m = maybe_merge(out, max_slices=3, gc=True)
    assert m is not None and len(m["slices"]) == 3
    assert len(calls) == 1 and all("/postings/" in f for f in calls[0])
    ids, lf = load_tombstones(out)
    assert ids.tolist() == sorted(victims) and (lf == 3).all()

    eng = QueryEngine(out)
    assert list(eng.execute_filter({"match_all": {}})) == ref_all == sorted(
        tiny_corpus["table"]["doc_id"].to_pylist())
    for d, t in zip(victims, new_text):
        assert list(eng.term_docs(f"zzscoped{d}")) == [d]
    sha = eng.docmap_rows(["content_sha256"], np.array(sorted(victims)))
    want = {d: hashlib.sha256(t.encode()).hexdigest() for d, t in zip(victims, new_text)}
    assert dict(zip(sha["doc_id"].to_pylist(), sha["content_sha256"].to_pylist())) == want
    # the hit SETS are unchanged (merged docs' stats shift, so not scores)
    for q in QUERIES:
        assert sorted(d for d, _ in eng.bm25_topk(q, k=200)) == sorted(ref_hits[q]), q


def test_merged_mixed_schema_docmap_paths_agree(ray_session, tiny_corpus, tmp_path_factory):
    """A merge of an update slice without keep columns and a later add
    slice with them puts docmap files of both schemas in one slice, the
    keep-column-less file first. The over-budget scan (``preload_bytes=0``)
    and the default engine still answer alike: metadata filters, exists,
    and ``_source``."""
    import pyarrow as pa

    from anomaly_detection_ray.index.lifecycle import merge_slices, update_docs
    from anomaly_detection_ray.index.query import search
    from anomaly_detection_ray.sources.corpus import generate_corpus

    base = str(tmp_path_factory.mktemp("docmap_mixed"))
    out = os.path.join(base, "idx")
    build_index(tiny_corpus["paths"][:1], out, slices=1, num_partitions=4, mode="code")
    upd = os.path.join(base, "upd.parquet")
    pq.write_table(pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                             "content": pa.array(["zzmix merge body", "zzmix sort body"])}), upd)
    update_docs(out, [upd])  # slice 1: doc_id + sha256 only
    add = generate_corpus(30, seed=7)
    add = add.set_column(add.schema.get_field_index("doc_id"), "doc_id",
                         pa.array(np.arange(1000, 1030), pa.int64()))
    add_path = os.path.join(base, "add.parquet")
    pq.write_table(add, add_path)
    extend_index(out, [add_path])  # slice 2: every keep column
    m = merge_slices(out, slice_dirs=["segments/slice-0001", "segments/slice-0002"], gc=True)
    merged = os.path.join(out, m["slices"][-1]["dir"], "docmap")
    schemas = [pq.read_schema(os.path.join(merged, f)) for f in sorted(os.listdir(merged))]
    assert "repo" not in schemas[0].names and "repo" in schemas[-1].names

    fast, slow = QueryEngine(out), QueryEngine(out, preload_bytes=0)
    repo = add["repo"][0].as_py()
    want_repo = sorted(int(d) for d, r in zip(add["doc_id"].to_pylist(), add["repo"].to_pylist())
                       if r == repo)
    assert [d for d in slow.execute_filter({"term": {"repo": repo}}) if d >= 1000] == want_repo
    filters = [
        {"term": {"repo": repo}},
        {"prefix": {"repo": repo[:3]}},
        {"exists": {"field": "repo"}},
        {"exists": {"field": "path"}},
        {"bool": {"must_not": [{"exists": {"field": "commit"}}]}},
        {"ids": {"values": [1, 2, 1000, 1001]}},
    ]
    for q in filters:
        assert list(fast.execute_filter(q)) == list(slow.execute_filter(q)), q
    body = {"query": {"ids": {"values": [1, 2, 1000, 1001]}}, "size": 4, "sort": [{"doc_id": "asc"}]}
    hits = search(slow, body)["hits"]["hits"]
    assert hits == search(fast, body)["hits"]["hits"]
    assert [h["_source"]["repo"] is None for h in hits] == [True, True, False, False]


def _older_postings_layout(index_dir: str, slice_dir: str, block_size: int = 128) -> None:
    """Rewrite one slice's postings parts in the older layout, which also
    carried per-block ``block_first``/``block_last``/``block_max_tf``/
    ``block_min_dl`` lists."""
    from glob import glob

    import pyarrow as pa

    from anomaly_detection_ray.index.segments import decode_chunk_row

    names = [("block_first", pa.int64()), ("block_last", pa.int64()),
             ("block_max_tf", pa.int32()), ("block_min_dl", pa.int32())]
    for f in glob(os.path.join(index_dir, slice_dir, "postings", "*.parquet")):
        t = pq.read_table(f)
        if "block_first" in t.column_names:
            continue  # already the older layout
        cols: dict[str, list] = {name: [] for name, _ in names}
        for row in t.to_pylist():
            docs, tfs, dls = decode_chunk_row(row)
            starts = np.arange(0, docs.size, block_size)
            ends = np.minimum(starts + block_size, docs.size)
            cols["block_first"].append(docs[starts].tolist())
            cols["block_last"].append(docs[ends - 1].tolist())
            cols["block_max_tf"].append(np.maximum.reduceat(tfs, starts).tolist())
            cols["block_min_dl"].append(np.minimum.reduceat(dls, starts).tolist())
        at = t.column_names.index("block_doc_off")
        for i, (name, typ) in enumerate(names):
            t = t.add_column(at + i, name, pa.array(cols[name], pa.list_(typ)))
        pq.write_table(t, f)


def test_merge_reads_older_postings_layout(ray_session, tiny_corpus, tmp_path_factory):
    """A slice written with the older block-max postings columns (no
    reader uses them) serves queries next to a slice without them, and
    merges into the current layout with every result kept."""
    from anomaly_detection_ray.index.lifecycle import merge_slices

    out = str(tmp_path_factory.mktemp("older_layout"))
    build_index(tiny_corpus["paths"], out, slices=2, num_partitions=4, mode="code")
    ref = QueryEngine(out)
    ref_top = {q: ref.bm25_topk(q, k=10) for q in QUERIES}
    ref_all = list(ref.execute_filter({"match_all": {}}))
    _older_postings_layout(out, "segments/slice-0000")
    for eng in (QueryEngine(out), QueryEngine(out, preload_bytes=0)):
        assert {q: eng.bm25_topk(q, k=10) for q in QUERIES} == ref_top

    m = merge_slices(out, gc=True)
    assert len(m["slices"]) == 1
    merged = QueryEngine(out)
    assert list(merged.execute_filter({"match_all": {}})) == ref_all
    for q in QUERIES:
        got, exp = merged.bm25_topk(q, k=10), ref_top[q]
        assert [d for d, _ in got] == [d for d, _ in exp], q
        assert [s for _, s in got] == pytest.approx([s for _, s in exp], abs=1e-9), q
