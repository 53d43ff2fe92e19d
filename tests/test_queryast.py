"""A4 restricted query DSL: bool/term/range/match vs brute-force checks."""

import numpy as np
import pytest

from anomaly_detection_ray.functions.analyzer import Analyzer
from anomaly_detection_ray.index.build import build_index
from anomaly_detection_ray.index.oracle import BruteForceIndex
from anomaly_detection_ray.index.query import QueryEngine


@pytest.fixture(scope="module")
def eng(ray_session, tiny_corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("astindex"))
    build_index(tiny_corpus["paths"], out, slices=1, num_partitions=4, batch_size=64, mode="code")
    table = tiny_corpus["table"]
    oracle = BruteForceIndex(table["doc_id"].to_pylist(), table["content"].to_pylist(), Analyzer("code"))
    return QueryEngine(out), table.to_pandas(), oracle


def test_match_all_and_term_meta(eng):
    e, df, _ = eng
    assert list(e.execute_filter({"match_all": {}})) == sorted(df["doc_id"])
    got = e.execute_filter({"term": {"lang": "python"}})
    assert list(got) == sorted(df[df["lang"] == "python"]["doc_id"])


def test_term_text_and_match(eng):
    e, df, oracle = eng
    got = e.execute_filter({"term": {"content": "merge"}})
    assert list(got) == sorted(oracle.postings.get("merge", {}))
    # short form ≡ long-form defaults: operator=or (OpenSearch parity)
    got = e.execute_filter({"match": {"content": "merge sort"}})
    union = sorted(set(oracle.postings.get("merge", {})) | set(oracle.postings.get("sort", {})))
    assert list(got) == union
    conj = e.execute_filter({"match": {"content": {"query": "merge sort", "operator": "and"}}})
    assert list(conj) == oracle.conjunctive("merge sort")


def test_range_meta(eng):
    e, df, _ = eng
    got = e.execute_filter({"range": {"doc_id": {"gte": 50, "lt": 120}}})
    assert list(got) == sorted(df[(df["doc_id"] >= 50) & (df["doc_id"] < 120)]["doc_id"])


def test_bool_combinations(eng):
    e, df, oracle = eng
    q = {
        "bool": {
            "filter": [
                {"term": {"lang": "python"}},
                {"range": {"doc_id": {"lt": 150}}},
            ],
            "must": [{"match": {"content": "merge"}}],
            "must_not": [{"term": {"content": "zzabsent0"}}],
        }
    }
    got = e.execute_filter(q)
    exp = set(df[(df["lang"] == "python") & (df["doc_id"] < 150)]["doc_id"])
    exp &= set(oracle.postings.get("merge", {}))
    assert list(got) == sorted(exp)
    # pure should = any-match union
    q2 = {"bool": {"should": [{"term": {"lang": "go"}}, {"term": {"lang": "rust"}}]}}
    got2 = e.execute_filter(q2)
    assert list(got2) == sorted(df[df["lang"].isin(["go", "rust"])]["doc_id"])
    with pytest.raises(ValueError):
        e.execute_filter({"span_near": {"x": 1}})


def test_match_long_form_operator_and_msm(eng):
    e, df, oracle = eng
    q = "merge sort parse"
    terms = ["merge", "sort", "parse"]
    sets = [set(oracle.postings.get(t, ())) for t in terms]
    # operator=or (OpenSearch default): any term
    got = e.execute_filter({"match": {"content": {"query": q}}})
    assert list(got) == sorted(set().union(*sets))
    # short form ≡ long-form defaults (operator=or)
    assert list(got) == list(e.execute_filter({"match": {"content": q}}))
    got = e.execute_filter({"match": {"content": {"query": q, "operator": "and"}}})
    assert list(got) == sorted(sets[0] & sets[1] & sets[2])
    # minimum_should_match over the analyzed terms
    got = e.execute_filter(
        {"match": {"content": {"query": q, "minimum_should_match": 2}}}
    )
    exp = sorted(d for d in set().union(*sets) if sum(d in s for s in sets) >= 2)
    assert list(got) == exp and exp


def test_search_after_pagination(eng):
    """Paging with the (score, doc_id) cursor reproduces the full
    ranking exactly, page by page."""
    e, _, _ = eng
    q = "merge sort"
    full = e.bm25_topk(q, k=10_000)
    assert len(full) > 15
    # page 1 without a cursor == the top of the ranking
    assert e.bm25_search_after(q, k=7) == full[:7]
    pages, after = [], None
    while True:
        page = e.bm25_search_after(q, k=7, search_after=after)
        if not page:
            break
        pages.extend(page)
        after = page[-1]
    assert [d for d, _ in pages] == [d for d, _ in full]
    for (_, gs), (_, es) in zip(pages, full):
        assert gs == es


def test_facets(eng):
    e, df, oracle = eng
    rows = [(b["key"], b["doc_count"])
            for b in e.terms_agg(e.execute_filter({"match": {"content": "merge"}}), "lang", 3)]
    hits = set(oracle.postings.get("merge", ()))
    exp = (
        df[df["doc_id"].isin(hits)]
        .groupby("lang")["doc_id"]
        .count()
        .reset_index()
        .sort_values(["doc_id", "lang"], ascending=[False, True])
    )
    assert rows == list(zip(exp["lang"], exp["doc_id"]))[:3]
    # match_all facet = whole-corpus distribution
    rows_all = [(b["key"], b["doc_count"])
                for b in e.terms_agg(e.execute_filter(None), "lang", 100)]
    assert dict(rows_all) == df["lang"].value_counts().to_dict()


def test_count_and_more_like_this(eng):
    e, df, oracle = eng
    assert e.count(None) == len(df)
    assert e.count({"term": {"lang": "python"}}) == int((df["lang"] == "python").sum())
    # MLT of a doc's own text ranks that doc first when not excluded...
    row = df.iloc[7]
    hits = e.more_like_this(row["content"], k=5, min_doc_freq=1)
    assert hits and hits[0][0] == row["doc_id"]
    # ...and drops it with exclude_doc, keeping k results
    hits_ex = e.more_like_this(
        row["content"], k=5, min_doc_freq=1, exclude_doc=int(row["doc_id"])
    )
    assert len(hits_ex) == 5 and row["doc_id"] not in {d for d, _ in hits_ex}
    hits6 = e.more_like_this(row["content"], k=6, min_doc_freq=1)
    assert hits_ex == hits6[1:6]
    # terms below min_doc_freq can't drive the query
    assert e.more_like_this("zzneverseen0 zzneverseen1", k=5) == []


def test_bm25_topk_filtered(eng):
    """BM25 top-k restricted to a filter — the composed
    bool(filter ∧ must match) shape of generateInternalFeatureQuery
    (ParseUtils.java:314-331) — through ``search``."""
    from anomaly_detection_ray.index.query import search

    e, df, oracle = eng
    filt = {"term": {"lang": "java"}}
    allowed = set(df[df["lang"] == "java"]["doc_id"])
    r = search(e, {"query": {"bool": {"must": [{"match": {"content": "merge sort"}}],
                                      "filter": [filt]}}, "size": 10})
    hits = [(h["_id"], h["_score"]) for h in r["hits"]["hits"]]
    assert hits, "filter should leave matches"
    assert all(d in allowed for d, _ in hits)
    # scores must equal the unfiltered scores for the same docs
    full = dict(e.bm25_topk("merge sort", k=10_000))
    for d, s in hits:
        assert s == pytest.approx(full[d], abs=1e-12)
    # oracle cross-check of the ranking restricted to allowed docs
    exp = [(d, s) for d, s in oracle.bm25_topk("merge sort", k=10_000) if d in allowed][:10]
    assert [d for d, _ in hits] == [d for d, _ in exp]


def test_exists_semantics(eng):
    """exists: docmap column → non-null rows; the indexed TEXT field →
    every doc; any other (unmapped) field → nothing (OpenSearch drops
    exists on unmapped fields)."""
    e, df, _ = eng
    all_docs = sorted(df["doc_id"])
    assert list(e.execute_filter({"exists": {"field": "content"}})) == all_docs
    assert list(e.execute_filter({"exists": {"field": "lang"}})) == all_docs
    assert list(e.execute_filter({"exists": {"field": "no_such_field"}})) == []


def test_search_envelope(eng, tiny_corpus, tmp_path_factory):
    """The OpenSearch-shaped _search composition: scored match + filter +
    terms aggs + pagination + _source, consistent with the component
    APIs it composes."""
    from anomaly_detection_ray.index.query import search

    e, df, oracle = eng

    # scored match with from/size pagination
    r = search(e, {"query": {"match": {"content": "merge sort"}}, "size": 5})
    top = e.bm25_topk("merge sort", k=5)
    assert [h["_id"] for h in r["hits"]["hits"]] == [d for d, _ in top]
    assert all(h["_source"]["lang"] for h in r["hits"]["hits"])  # docmap _source
    r2 = search(e, {"query": {"match": {"content": "merge sort"}}, "size": 5, "from": 5})
    assert [h["_id"] for h in r2["hits"]["hits"]] == [d for d, _ in e.bm25_topk("merge sort", k=10)[5:]]
    # total = docs matching ANY term (OpenSearch OR-match hit count)
    union = set(oracle.postings.get("merge", ())) | set(oracle.postings.get("sort", ()))
    assert r["hits"]["total"]["value"] == len(union)

    # bool must-match + filter → filtered BM25 + filtered total
    q = {"bool": {"must": [{"match": {"content": "merge sort"}}],
                  "filter": [{"term": {"lang": "java"}}]}}
    r3 = search(e, {"query": q, "size": 5})
    allowed = set(df[df["lang"] == "java"]["doc_id"])
    exp = [d for d, _ in oracle.bm25_topk("merge sort", k=10_000) if d in allowed][:5]
    assert [h["_id"] for h in r3["hits"]["hits"]] == exp
    assert r3["hits"]["total"]["value"] == len(union & allowed)

    # pure filter context: score 1.0, doc order, exact total
    r4 = search(e, {"query": {"term": {"lang": "python"}}, "size": 3})
    pys = sorted(df[df["lang"] == "python"]["doc_id"])
    assert [h["_id"] for h in r4["hits"]["hits"]] == pys[:3]
    assert all(h["_score"] == 1.0 for h in r4["hits"]["hits"])
    assert r4["hits"]["total"]["value"] == len(pys)

    # terms aggs ≡ terms_agg over the whole matching set
    r5 = search(e, {"query": {"match": {"content": "merge"}}, "size": 1,
                    "aggs": {"langs": {"terms": {"field": "lang", "size": 3}}}})
    assert r5["aggregations"]["langs"]["buckets"] == \
        e.terms_agg(e.execute_filter({"match": {"content": "merge"}}), "lang", 3)

    # search_after pages equal the cursor API's
    first = search(e, {"query": {"match": {"content": "merge sort"}}, "size": 4})
    last = first["hits"]["hits"][-1]
    nxt = search(e, {"query": {"match": {"content": "merge sort"}},
                     "size": 4, "search_after": [last["_score"], last["_id"]]})
    assert [h["_id"] for h in nxt["hits"]["hits"]] == \
        [d for d, _ in e.bm25_topk("merge sort", k=8)[4:8]]

    # highlight requires source files; with them, snippets come back
    r6 = search(e, {"query": {"match": {"content": "merge"}}, "size": 3,
                    "highlight": {"fields": {"content": {}}}},
                source_files=tiny_corpus["paths"])
    assert all("merge" in h["highlight"]["content"][0].lower()
               or "<em>" in h["highlight"]["content"][0]
               for h in r6["hits"]["hits"])
    with pytest.raises(ValueError, match="source_files"):
        search(e, {"query": {"match": {"content": "merge"}}, "size": 1,
                   "highlight": {"fields": {"content": {}}}})


def test_search_envelope_operator_and_msm(eng):
    """Long-form match options restrict the HIT SET of _search without
    changing per-doc BM25 scores: operator=and pages/counts only the
    conjunctive matches (OpenSearch parity — an AND match is scored, but
    never widens to the OR union), minimum_should_match likewise."""
    from anomaly_detection_ray.index.query import search

    e, df, oracle = eng
    q = "merge sort"
    sets = [set(oracle.postings.get(t, ())) for t in ("merge", "sort")]
    full = dict(e.bm25_topk(q, k=10_000))

    r = search(e, {"query": {"match": {"content": {"query": q, "operator": "and"}}},
                   "size": 5})
    conj = sets[0] & sets[1]
    assert r["hits"]["total"]["value"] == len(conj)
    got = [(h["_id"], h["_score"]) for h in r["hits"]["hits"]]
    assert got and all(d in conj for d, _ in got)
    # page = the BM25 ranking restricted to conjunctive matches
    exp = sorted(((d, full[d]) for d in conj), key=lambda t: (-t[1], t[0]))[:5]
    assert got == [(d, pytest.approx(s)) for d, s in exp]

    # the same clause inside a bool must behaves identically
    rb = search(e, {"query": {"bool": {"must": [
        {"match": {"content": {"query": q, "operator": "and"}}}]}}, "size": 5})
    assert [h["_id"] for h in rb["hits"]["hits"]] == [h["_id"] for h in r["hits"]["hits"]]
    assert rb["hits"]["total"]["value"] == len(conj)

    # minimum_should_match=2 over two terms ≡ operator=and here
    rm = search(e, {"query": {"match": {"content": {
        "query": q, "minimum_should_match": 2}}}, "size": 5})
    assert rm["hits"]["total"]["value"] == len(conj)
    assert [h["_id"] for h in rm["hits"]["hits"]] == [h["_id"] for h in r["hits"]["hits"]]


def test_search_envelope_should_scoring(eng):
    """bool should matches contribute ADDITIVE BM25 (Lucene BooleanQuery
    sums every matching clause, a term repeated across clauses counts per
    clause); the hit set follows OpenSearch's msm defaults — the union
    for a should-only bool, the must/filter set when one is present
    (shoulds scoring-only)."""
    from anomaly_detection_ray.index.query import search

    e, df, oracle = eng
    q1, q2 = "merge sort", "parse merge"  # 'merge' overlaps → counts twice

    def osc(q):
        return dict(oracle.bm25_topk(q, k=10_000))

    s1, s2 = osc(q1), osc(q2)

    # pure should bool: union hit set, per-clause score sum
    r = search(e, {"query": {"bool": {"should": [
        {"match": {"content": q1}}, {"match": {"content": q2}}]}}, "size": 5})
    exp = {d: s1.get(d, 0.0) + s2.get(d, 0.0) for d in set(s1) | set(s2)}
    top = sorted(exp.items(), key=lambda t: (-t[1], t[0]))[:5]
    got = [(h["_id"], h["_score"]) for h in r["hits"]["hits"]]
    assert [d for d, _ in got] == [d for d, _ in top]
    for (_, gs), (_, es) in zip(got, top):
        assert gs == pytest.approx(es, abs=1e-9)
    assert r["hits"]["total"]["value"] == len(exp)

    # must match + should match: hits = must docs only, scores add
    rm = search(e, {"query": {"bool": {
        "must": [{"match": {"content": q1}}],
        "should": [{"match": {"content": q2}}]}}, "size": 5})
    expm = {d: s1[d] + s2.get(d, 0.0) for d in s1}
    topm = sorted(expm.items(), key=lambda t: (-t[1], t[0]))[:5]
    gotm = [(h["_id"], h["_score"]) for h in rm["hits"]["hits"]]
    assert [d for d, _ in gotm] == [d for d, _ in topm]
    for (_, gs), (_, es) in zip(gotm, topm):
        assert gs == pytest.approx(es, abs=1e-9)
    assert rm["hits"]["total"]["value"] == len(s1)  # should never widens

    # filter + should (no must): msm defaults to 0 → hits = the filter
    # set; should scores where matched, 0.0 (doc-id order) elsewhere
    rf = search(e, {"query": {"bool": {
        "filter": [{"term": {"lang": "java"}}],
        "should": [{"match": {"content": q1}}]}}, "size": 1000})
    allowed = set(df[df["lang"] == "java"]["doc_id"])
    assert rf["hits"]["total"]["value"] == len(allowed)
    gotf = [(h["_id"], h["_score"]) for h in rf["hits"]["hits"]]
    expf = sorted(((d, s1.get(d, 0.0)) for d in allowed), key=lambda t: (-t[1], t[0]))
    assert [d for d, _ in gotf] == [d for d, _ in expf]
    for (_, gs), (_, es) in zip(gotf, expf):
        assert gs == pytest.approx(es, abs=1e-9)


def test_msm_percentage_and_negative_forms(eng):
    """OpenSearch accepts minimum_should_match as "N", "N%", -N and
    "-N%" (Lucene rounds percentages DOWN; negative = n minus the
    value). These must evaluate, not crash."""
    from anomaly_detection_ray.index.query import search
    from anomaly_detection_ray.index.queryast import parse_msm

    assert parse_msm(2, 3) == 2 and parse_msm("2", 3) == 2
    assert parse_msm("75%", 3) == 2      # floor(2.25)
    assert parse_msm("100%", 3) == 3
    assert parse_msm(-1, 3) == 2
    assert parse_msm("-25%", 4) == 3     # 4 - floor(1.0)
    assert parse_msm("300%", 3) == 9     # > n → matches nothing (Lucene)
    assert parse_msm(-9, 3) == 0         # clamped at 0 only

    e, df, oracle = eng
    q = "merge sort parse"
    sets = [set(oracle.postings.get(t, ())) for t in ("merge", "sort", "parse")]
    got = e.execute_filter({"match": {"content": {"query": q, "minimum_should_match": "67%"}}})
    exp = sorted(d for d in set().union(*sets) if sum(d in s for s in sets) >= 2)
    assert list(got) == exp and exp
    # and through the _search envelope (the pre-fix crash path)
    r = search(e, {"query": {"match": {"content": {
        "query": q, "minimum_should_match": "67%"}}}, "size": 5})
    assert r["hits"]["total"]["value"] == len(exp)
    full = dict(e.bm25_topk(q, k=10_000))
    top = sorted(((d, full[d]) for d in exp), key=lambda t: (-t[1], t[0]))[:5]
    assert [(h["_id"], h["_score"]) for h in r["hits"]["hits"]] == \
        [(d, pytest.approx(s)) for d, s in top]


def test_search_should_scoring_with_and_clause(eng):
    """A non-default should (operator=and) still contributes its BM25
    sum — but only on the docs its conjunctive semantics admit; docs
    matching only some of its terms get no contribution from it."""
    from anomaly_detection_ray.index.query import search

    e, df, oracle = eng
    q1, q2 = "merge sort", "parse tree"

    def osc(q):
        return dict(oracle.bm25_topk(q, k=10_000))

    s1, s2 = osc(q1), osc(q2)
    conj2 = set(oracle.conjunctive(q2))
    r = search(e, {"query": {"bool": {
        "must": [{"match": {"content": q1}}],
        "should": [{"match": {"content": {"query": q2, "operator": "and"}}}]}},
        "size": 1000})
    assert r["hits"]["total"]["value"] == len(s1)  # hit set = must only
    exp = {d: s1[d] + (s2[d] if d in conj2 else 0.0) for d in s1}
    exps = sorted(exp.items(), key=lambda t: (-t[1], t[0]))
    got = [(h["_id"], h["_score"]) for h in r["hits"]["hits"]]
    assert [d for d, _ in got] == [d for d, _ in exps]
    for (_, gs), (_, es) in zip(got, exps):
        assert gs == pytest.approx(es, abs=1e-9)
    # at least one doc matches q1 and parts of q2 without all of q2 —
    # the case that distinguishes masked from unmasked addition
    partial = [d for d in s1 if d in s2 and d not in conj2]
    assert partial, "fixture must exercise the partial-match case"


def test_search_should_leaf_clause_scoring(eng):
    """Non-match should clauses score per Lucene's query context: a term
    on the TEXT field is a TermQuery (full BM25), a term on a keyword
    docmap column scores its norms-off idf, and multi-term queries
    (prefix/wildcard/…) take the constant-score rewrite (1.0) — all
    ADDITIVE with any match clauses, never widening a must's hit set."""
    from anomaly_detection_ray.functions.bm25 import idf as bm25_idf
    from anomaly_detection_ray.functions.bm25 import tf_norm
    from anomaly_detection_ray.index.query import search

    e, df, oracle = eng
    q1 = "merge sort"
    s1 = dict(oracle.bm25_topk(q1, k=10_000))
    n = len(df)
    java = set(df[df["lang"] == "java"]["doc_id"])
    w_java = float(bm25_idf(len(java), n))

    # must match + should term-on-keyword: hits = must docs only,
    # matching docs add the keyword idf
    r = search(e, {"query": {"bool": {
        "must": [{"match": {"content": q1}}],
        "should": [{"term": {"lang": "java"}}]}}, "size": 1000})
    assert r["hits"]["total"]["value"] == len(s1)
    exp = {d: s1[d] + (w_java if d in java else 0.0) for d in s1}
    exps = sorted(exp.items(), key=lambda t: (-t[1], t[0]))
    got = [(h["_id"], h["_score"]) for h in r["hits"]["hits"]]
    assert [d for d, _ in got] == [d for d, _ in exps]
    for (_, gs), (_, es) in zip(got, exps):
        assert gs == pytest.approx(es, abs=1e-9)
    assert any(d in java for d in s1) and any(d not in java for d in s1)

    # should-only bool mixing match + keyword term + prefix: union hit
    # set; scores = BM25 + idf·[lang] + 1.0·[prefix]
    pre = set(oracle.prefix("pars"))
    r2 = search(e, {"query": {"bool": {"should": [
        {"match": {"content": q1}},
        {"term": {"lang": "java"}},
        {"prefix": {"content": "pars"}}]}}, "size": 2000})
    union = set(s1) | java | pre
    assert r2["hits"]["total"]["value"] == len(union)
    exp2 = {d: s1.get(d, 0.0) + (w_java if d in java else 0.0)
            + (1.0 if d in pre else 0.0) for d in union}
    exps2 = sorted(exp2.items(), key=lambda t: (-t[1], t[0]))
    got2 = [(h["_id"], h["_score"]) for h in r2["hits"]["hits"]]
    assert [d for d, _ in got2] == [d for d, _ in exps2]
    for (_, gs), (_, es) in zip(got2, exps2):
        assert gs == pytest.approx(es, abs=1e-9)

    # term on the TEXT field in should = a one-term TermQuery: full BM25
    plist = oracle.postings["merge"]
    w_t = float(bm25_idf(len(plist), oracle.n_docs))
    r3 = search(e, {"query": {"bool": {"should": [
        {"term": {"content": "merge"}}]}}, "size": 2000})
    exp3 = {d: w_t * float(tf_norm(tf, oracle.doc_len[d], oracle.avgdl))
            for d, tf in plist.items()}
    exps3 = sorted(exp3.items(), key=lambda t: (-t[1], t[0]))
    got3 = [(h["_id"], h["_score"]) for h in r3["hits"]["hits"]]
    assert [d for d, _ in got3] == [d for d, _ in exps3]
    for (_, gs), (_, es) in zip(got3, exps3):
        assert gs == pytest.approx(es, abs=1e-9)
    assert r3["hits"]["total"]["value"] == len(plist)

    # an UNscorable should (nested bool) keeps the conservative
    # filter-context fallback: right hit set, constant 1.0 scores
    go = sorted(df[df["lang"] == "go"]["doc_id"])
    r4 = search(e, {"query": {"bool": {"should": [
        {"bool": {"must": [{"term": {"lang": "go"}}]}}]}}, "size": 2000})
    assert r4["hits"]["total"]["value"] == len(go)
    assert [h["_id"] for h in r4["hits"]["hits"]] == go
    assert all(h["_score"] == 1.0 for h in r4["hits"]["hits"])


def test_search_dis_max(eng):
    """dis_max scores Lucene's DisjunctionMaxQuery: per doc the BEST
    sub-query score + tie_breaker × the rest; the hit set is the union.
    tie_breaker=1 degenerates to the bool-should SUM, 0 to pure max."""
    from anomaly_detection_ray.functions.bm25 import idf as bm25_idf
    from anomaly_detection_ray.index.query import search

    e, df, oracle = eng
    q1, q2 = "merge sort", "parse merge"

    def osc(q):
        return dict(oracle.bm25_topk(q, k=10_000))

    s1, s2 = osc(q1), osc(q2)
    java = set(df[df["lang"] == "java"]["doc_id"])
    w_java = float(bm25_idf(len(java), len(df)))

    for tie in (0.0, 0.35, 1.0):
        r = search(e, {"query": {"dis_max": {"tie_breaker": tie, "queries": [
            {"match": {"content": q1}}, {"match": {"content": q2}},
            {"term": {"lang": "java"}}]}}, "size": 2000})
        union = set(s1) | set(s2) | java
        assert r["hits"]["total"]["value"] == len(union)
        exp = {}
        for d in union:
            parts = [p for p in (s1.get(d), s2.get(d),
                                 w_java if d in java else None) if p is not None]
            exp[d] = max(parts) + tie * (sum(parts) - max(parts))
        exps = sorted(exp.items(), key=lambda t: (-t[1], t[0]))
        got = [(h["_id"], h["_score"]) for h in r["hits"]["hits"]]
        assert [d for d, _ in got] == [d for d, _ in exps]
        for (_, gs), (_, es) in zip(got, exps):
            assert gs == pytest.approx(es, abs=1e-9)

    # tie_breaker=1 ≡ the additive bool-should ranking over the union
    r1 = search(e, {"query": {"dis_max": {"tie_breaker": 1.0, "queries": [
        {"match": {"content": q1}}, {"match": {"content": q2}}]}}, "size": 50})
    rb = search(e, {"query": {"bool": {"should": [
        {"match": {"content": q1}}, {"match": {"content": q2}}]}}, "size": 50})
    assert [(h["_id"], h["_score"]) for h in r1["hits"]["hits"]] == \
        [(h["_id"], h["_score"]) for h in rb["hits"]["hits"]]

    # filter context: any-match union, constant score
    rf = e.execute_filter({"dis_max": {"queries": [
        {"term": {"lang": "go"}}, {"term": {"lang": "rust"}}]}})
    assert list(rf) == sorted(df[df["lang"].isin(["go", "rust"])]["doc_id"])

    # unscorable sub-query raises in query context
    with pytest.raises(ValueError, match="dis_max"):
        search(e, {"query": {"dis_max": {"queries": [
            {"bool": {"must": [{"term": {"lang": "go"}}]}}]}}, "size": 5})


def test_search_metric_aggs(eng):
    """min/max/avg/sum/value_count/cardinality/stats aggregations over
    the full matching set (not the page), OpenSearch envelope shapes:
    single-value aggs return {"value": v}, stats the composite dict."""
    from anomaly_detection_ray.index.query import search

    e, df, oracle = eng
    hits = set(oracle.postings.get("merge", ()))
    sub = df[df["doc_id"].isin(hits)]
    r = search(e, {"query": {"match": {"content": "merge"}}, "size": 1, "aggs": {
        "lo": {"min": {"field": "doc_id"}},
        "hi": {"max": {"field": "doc_id"}},
        "mean_id": {"avg": {"field": "doc_id"}},
        "sum_id": {"sum": {"field": "doc_id"}},
        "n_lang": {"value_count": {"field": "lang"}},
        "langs": {"cardinality": {"field": "lang"}},
        "id_stats": {"stats": {"field": "doc_id"}},
    }})
    a = r["aggregations"]
    assert a["lo"]["value"] == int(sub["doc_id"].min())
    assert a["hi"]["value"] == int(sub["doc_id"].max())
    assert a["mean_id"]["value"] == pytest.approx(float(sub["doc_id"].mean()))
    assert a["sum_id"]["value"] == float(sub["doc_id"].sum())
    assert a["n_lang"]["value"] == int(sub["lang"].notna().sum())
    assert a["langs"]["value"] == int(sub["lang"].nunique())
    st = a["id_stats"]
    assert st["count"] == len(sub) and st["min"] == int(sub["doc_id"].min())
    assert st["sum"] == float(sub["doc_id"].sum())
    # percentiles: OpenSearch shape, exact numpy quantiles
    rp = search(e, {"query": {"match": {"content": "merge"}}, "size": 0, "aggs": {
        "pid": {"percentiles": {"field": "doc_id", "percents": [50, 95]}}}})
    vals = rp["aggregations"]["pid"]["values"]
    ids = sub["doc_id"].to_numpy(dtype=float)
    assert vals["50.0"] == pytest.approx(np.percentile(ids, 50))
    assert vals["95.0"] == pytest.approx(np.percentile(ids, 95))
    # histogram: fixed-width buckets with gap-fill (min_doc_count=0)
    rh = search(e, {"query": {"match": {"content": "merge"}}, "size": 0, "aggs": {
        "h": {"histogram": {"field": "doc_id", "interval": 50}}}})
    hb = rh["aggregations"]["h"]["buckets"]
    exp_counts = sub.groupby((sub["doc_id"] // 50) * 50)["doc_id"].count()
    lo_k, hi_k = int(exp_counts.index.min()), int(exp_counts.index.max())
    assert [b["key"] for b in hb] == [float(k) for k in range(lo_k, hi_k + 1, 50)]
    for b in hb:
        assert b["doc_count"] == int(exp_counts.get(int(b["key"]), 0))

    # range: half-open [from, to) buckets, independent counts
    rr = search(e, {"query": {"match": {"content": "merge"}}, "size": 0, "aggs": {
        "r": {"range": {"field": "doc_id", "ranges": [
            {"to": 100}, {"from": 100, "to": 200}, {"from": 200}]}}}})
    rb = rr["aggregations"]["r"]["buckets"]
    ids = sub["doc_id"]
    assert rb[0]["doc_count"] == int((ids < 100).sum()) and rb[0]["key"] == "*-100"
    assert rb[1]["doc_count"] == int(((ids >= 100) & (ids < 200)).sum())
    assert rb[2]["doc_count"] == int((ids >= 200).sum())

    # date_histogram with fixed_interval ≡ histogram at the parsed ms
    # width (doc_id stands in for an epoch-ms column here)
    rd_ = search(e, {"query": {"match": {"content": "merge"}}, "size": 0, "aggs": {
        "d": {"date_histogram": {"field": "doc_id", "fixed_interval": "50ms",
                                 "min_doc_count": 1}}}})
    rh1 = search(e, {"query": {"match": {"content": "merge"}}, "size": 0, "aggs": {
        "h": {"histogram": {"field": "doc_id", "interval": 50,
                            "min_doc_count": 1}}}})
    assert rd_["aggregations"]["d"]["buckets"] == rh1["aggregations"]["h"]["buckets"]
    # date keys are epoch-ms longs, plain histogram keys floats (OpenSearch)
    assert all(type(b["key"]) is int for b in rd_["aggregations"]["d"]["buckets"])
    assert all(type(b["key"]) is float for b in rh1["aggregations"]["h"]["buckets"])
    from anomaly_detection_ray.index.query import _parse_fixed_interval_ms
    assert _parse_fixed_interval_ms("5m") == 300_000
    assert _parse_fixed_interval_ms("1d") == 86_400_000
    with pytest.raises(ValueError, match="calendar"):
        _parse_fixed_interval_ms("1M")

    # unknown agg kind still errors loudly
    with pytest.raises(ValueError, match="unsupported aggregation"):
        search(e, {"query": {"match_all": {}}, "aggs": {
            "x": {"top_hits": {"size": 3}}}})
    # composite with no sources is malformed
    with pytest.raises(ValueError, match="composite"):
        search(e, {"query": {"match_all": {}}, "aggs": {
            "x": {"composite": {"sources": []}}}})


def test_search_match_boost(eng):
    """Long-form match boost multiplies the clause's BM25 score (Lucene):
    a top-level boost scales reported scores without changing the
    ranking; should-clause boosts rerank the additive sum; a boosted
    search_after cursor pages consistently with its own first page."""
    from anomaly_detection_ray.index.query import search

    e, df, oracle = eng
    q1, q2 = "merge sort", "parse merge"
    s1 = dict(oracle.bm25_topk(q1, k=10_000))
    s2 = dict(oracle.bm25_topk(q2, k=10_000))

    # top-level boost: same ranking, scores × 2.5
    r0 = search(e, {"query": {"match": {"content": q1}}, "size": 8})
    rb = search(e, {"query": {"match": {"content": {"query": q1, "boost": 2.5}}},
                    "size": 8})
    assert [h["_id"] for h in rb["hits"]["hits"]] == [h["_id"] for h in r0["hits"]["hits"]]
    for hb, h0 in zip(rb["hits"]["hits"], r0["hits"]["hits"]):
        assert hb["_score"] == pytest.approx(2.5 * h0["_score"], rel=1e-12)
    assert rb["hits"]["total"] == r0["hits"]["total"]

    # should-clause boost changes the additive sum (and so the ranking)
    r = search(e, {"query": {"bool": {"should": [
        {"match": {"content": q1}},
        {"match": {"content": {"query": q2, "boost": 3.0}}}]}}, "size": 2000})
    exp = {d: s1.get(d, 0.0) + 3.0 * s2.get(d, 0.0) for d in set(s1) | set(s2)}
    exps = sorted(exp.items(), key=lambda t: (-t[1], t[0]))
    got = [(h["_id"], h["_score"]) for h in r["hits"]["hits"]]
    assert [d for d, _ in got] == [d for d, _ in exps]
    for (_, gs), (_, es) in zip(got, exps):
        assert gs == pytest.approx(es, abs=1e-9)

    # boosted search_after: page 2 via the page-1 cursor == boosted full
    # ranking rows 4..8
    q = {"match": {"content": {"query": q1, "boost": 2.0}}}
    first = search(e, {"query": q, "size": 4})
    last = first["hits"]["hits"][-1]
    nxt = search(e, {"query": q, "size": 4, "search_after": [last["_score"], last["_id"]]})
    full = e.bm25_topk(q1, k=8)
    assert [(h["_id"], h["_score"]) for h in nxt["hits"]["hits"]] == \
        [(d, pytest.approx(2.0 * s, rel=1e-12)) for d, s in full[4:8]]

    # non-positive boost is rejected
    with pytest.raises(ValueError, match="boost"):
        search(e, {"query": {"match": {"content": {"query": q1, "boost": 0}}}, "size": 1})


def test_search_from_with_search_after_rejected(eng):
    """OpenSearch rejects from>0 combined with search_after."""
    from anomaly_detection_ray.index.query import search

    e, _, _ = eng
    with pytest.raises(ValueError, match="search_after"):
        search(e, {"query": {"match": {"content": "merge"}},
                   "size": 3, "from": 2, "search_after": [1.0, 0]})


def test_search_sub_aggregations(eng):
    """Bucket aggs with nested METRIC sub-aggregations — the reference's
    central composition (entity buckets wrapping per-feature metric
    aggs, AbstractRetriever.parseBucket shape): terms / histogram /
    date_histogram / range buckets each carry their own avg / sum / min /
    max / value_count / cardinality / stats values, computed over the
    bucket's rows only, vs a pandas groupby."""
    from anomaly_detection_ray.index.query import search

    e, df, oracle = eng
    hits = set(oracle.postings.get("merge", ()))
    sub = df[df["doc_id"].isin(hits)]

    r = search(e, {"query": {"match": {"content": "merge"}}, "size": 0, "aggs": {
        "by_lang": {"terms": {"field": "lang", "size": 100}, "aggs": {
            "mean_id": {"avg": {"field": "doc_id"}},
            "sum_id": {"sum": {"field": "doc_id"}},
            "lo": {"min": {"field": "doc_id"}},
            "hi": {"max": {"field": "doc_id"}},
            "n": {"value_count": {"field": "doc_id"}},
            "langs": {"cardinality": {"field": "lang"}},
            "st": {"stats": {"field": "doc_id"}},
        }}}})
    buckets = r["aggregations"]["by_lang"]["buckets"]
    exp = sorted(sub.groupby("lang"), key=lambda kv: (-len(kv[1]), kv[0]))
    assert [b["key"] for b in buckets] == [k for k, _ in exp]
    for b, (_, g) in zip(buckets, exp):
        assert b["doc_count"] == len(g)
        assert b["mean_id"]["value"] == pytest.approx(float(g["doc_id"].mean()))
        assert b["sum_id"]["value"] == float(g["doc_id"].sum())
        assert b["lo"]["value"] == int(g["doc_id"].min())
        assert b["hi"]["value"] == int(g["doc_id"].max())
        assert b["n"]["value"] == len(g)
        assert b["langs"]["value"] == 1
        st = b["st"]
        assert st["count"] == len(g) and st["avg"] == pytest.approx(float(g["doc_id"].mean()))
        assert st["sum"] == float(g["doc_id"].sum())

    # histogram + sub-aggs: empty gap-filled buckets carry the
    # empty-set metric shapes (avg null, sum 0.0, counts 0)
    rh = search(e, {"query": {"match": {"content": "merge"}}, "size": 0, "aggs": {
        "h": {"histogram": {"field": "doc_id", "interval": 50}, "aggs": {
            "mean_id": {"avg": {"field": "doc_id"}},
            "sum_id": {"sum": {"field": "doc_id"}},
        }}}})
    hb = rh["aggregations"]["h"]["buckets"]
    gk = sub.groupby((sub["doc_id"] // 50) * 50)["doc_id"]
    for b in hb:
        k = int(b["key"])
        if b["doc_count"] == 0:
            assert k not in gk.groups
            assert b["mean_id"]["value"] is None and b["sum_id"]["value"] == 0.0
        else:
            g = gk.get_group(k)
            assert b["doc_count"] == len(g)
            assert b["mean_id"]["value"] == pytest.approx(float(g.mean()))
            assert b["sum_id"]["value"] == float(g.sum())
    assert {int(b["key"]) for b in hb} >= {int(k) for k in gk.groups}

    # date_histogram + sub-aggs ≡ histogram + sub-aggs at the parsed ms
    rdh = search(e, {"query": {"match": {"content": "merge"}}, "size": 0, "aggs": {
        "h": {"date_histogram": {"field": "doc_id", "fixed_interval": "50ms"},
              "aggs": {"mean_id": {"avg": {"field": "doc_id"}},
                       "sum_id": {"sum": {"field": "doc_id"}}}}}})
    assert rdh["aggregations"]["h"]["buckets"] == hb
    assert all(type(b["key"]) is int for b in rdh["aggregations"]["h"]["buckets"])

    # range + sub-aggs: overlapping half-open buckets, independent metrics
    rr = search(e, {"query": {"match": {"content": "merge"}}, "size": 0, "aggs": {
        "r": {"range": {"field": "doc_id", "ranges": [
            {"to": 100}, {"from": 50, "to": 200}, {"from": 200}]},
            "aggs": {"sum_id": {"sum": {"field": "doc_id"}},
                     "st": {"stats": {"field": "doc_id"}}}}}})
    ids = sub["doc_id"]
    for b, mask in zip(rr["aggregations"]["r"]["buckets"],
                       [ids < 100, (ids >= 50) & (ids < 200), ids >= 200]):
        g = ids[mask]
        assert b["doc_count"] == len(g)
        assert b["sum_id"]["value"] == (float(g.sum()) if len(g) else 0.0)
        if len(g):
            assert b["st"]["count"] == len(g) and b["st"]["min"] == int(g.min())
        else:
            assert b["st"] == {"count": 0, "min": None, "max": None,
                               "avg": None, "sum": 0.0}

    # unsupported sub-agg kinds error loudly
    with pytest.raises(ValueError, match="sub-aggregation"):
        search(e, {"query": {"match_all": {}}, "aggs": {
            "x": {"terms": {"field": "lang"},
                  "aggs": {"inner": {"terms": {"field": "lang"}}}}}})


def test_query_string_precedence_and_leaves(eng):
    """Lucene string syntax: AND binds tighter than OR, juxtaposition =
    default_operator, 'a NOT b' excludes conjunctively, field scoping
    routes to docmap columns, trailing * = prefix, ~ = fuzzy, quoted =
    phrase, strict mode rejects bad syntax / unknown fields."""
    e, df, oracle = eng

    def run(q, **body):
        return set(e.execute_filter({"query_string": {"query": q, **body}}).tolist())

    merge = set(oracle.postings.get("merge", ()))
    sort = set(oracle.postings.get("sort", ()))
    parse = set(oracle.postings.get("parse", ()))
    alldocs = set(df["doc_id"])

    # AND > OR precedence (unparenthesized)
    assert run("merge OR sort AND parse") == merge | (sort & parse)
    assert run("(merge OR sort) AND parse") == (merge | sort) & parse
    # juxtaposition = default_operator
    assert run("merge sort") == merge | sort
    assert run("merge sort", default_operator="and") == merge & sort
    # NOT excludes from the conjunction regardless of default_operator
    assert run("merge NOT sort") == merge - sort
    assert run("merge NOT sort", default_operator="and") == merge - sort
    assert run("merge OR NOT sort") == merge | (alldocs - sort)
    assert run("NOT sort") == alldocs - sort
    # field scoping → docmap column; numeric coercion on doc_id
    java = set(df[df["lang"] == "java"]["doc_id"])
    assert run("lang:java AND merge") == java & merge
    some_id = int(df["doc_id"].iloc[5])
    assert run(f"doc_id:{some_id}") == {some_id}
    # trailing * → prefix, embedded wildcard → wildcard
    pa_docs = set(e.execute_filter({"prefix": {"content": "pa"}}).tolist())
    assert run("pa*") == pa_docs
    wild = set(e.execute_filter({"wildcard": {"content": "s?rt"}}).tolist())
    assert run("s?rt") == wild
    # quoted phrase (with slop) → match_phrase lowering (this fixture's
    # index has no positional sidecar; phrase EXECUTION is covered by
    # test_index.py — assert the parse here)
    from anomaly_detection_ray.index.querystring import parse_query_string
    assert parse_query_string('"merge sort"', "content") == \
        {"match_phrase": {"content": "merge sort"}}
    assert parse_query_string('"merge sort"~2', "content") == \
        {"match_phrase": {"content": {"query": "merge sort", "slop": 2}}}
    # fuzzy ~
    fz = set(e.execute_filter({"fuzzy": {"content": {"value": "mergz",
                                                     "fuzziness": 1}}}).tolist())
    assert run("mergz~1") == fz
    # Lucene bracket ranges: [incl TO incl] / {excl TO excl} / * open
    assert run("doc_id:[50 TO 120}") == set(
        df[(df["doc_id"] >= 50) & (df["doc_id"] < 120)]["doc_id"])
    assert run("doc_id:{50 TO 120]") == set(
        df[(df["doc_id"] > 50) & (df["doc_id"] <= 120)]["doc_id"])
    assert run("doc_id:[* TO 30} AND merge") == \
        set(df[df["doc_id"] < 30]["doc_id"]) & merge
    assert run("doc_id:[* TO *]") == alldocs
    # strict mode: syntax + unknown-field errors (+ range on text)
    from anomaly_detection_ray.index.querystring import QueryStringSyntaxError
    for bad in ("merge AND", "(merge", "zzfield:x", "", "content:[a TO b]"):
        with pytest.raises((QueryStringSyntaxError, ValueError)):
            run(bad)


def test_simple_query_string_lenient(eng):
    """simple_query_string NEVER errors: + | - ( ) " operators, and any
    malformed input degrades to a bag of terms."""
    e, df, oracle = eng

    def run(q, **body):
        return set(e.execute_filter(
            {"simple_query_string": {"query": q, **body}}).tolist())

    merge = set(oracle.postings.get("merge", ()))
    sort = set(oracle.postings.get("sort", ()))
    alldocs = set(df["doc_id"])
    assert run("merge + sort") == merge & sort
    assert run("merge | sort") == merge | sort
    assert run("merge -sort") == merge - sort
    assert run("merge + (sort | parse)") == merge & (sort | set(oracle.postings.get("parse", ())))
    # malformed → bag of terms with default_operator (never raises)
    assert run("merge AND ((") == merge | set(oracle.postings.get("and", ()))
    assert run("((") == set()
    assert run("") == set()
    # whitespace juxtaposition honors default_operator
    assert run("merge sort", default_operator="and") == merge & sort


def test_query_string_scoring_through_search(eng):
    """A query_string lowers to the structured DSL before the envelope
    splits scoring clauses — 'merge OR sort' scores like the equivalent
    bool-should of matches, 'lang:java AND merge' like a filtered match."""
    from anomaly_detection_ray.index.query import search

    e, df, oracle = eng
    r_qs = search(e, {"query": {"query_string": {"query": "merge sort"}}, "size": 25})
    r_bool = search(e, {"query": {"bool": {"should": [
        {"match": {"content": "merge"}}, {"match": {"content": "sort"}}]}}, "size": 25})
    assert [(h["_id"], h["_score"]) for h in r_qs["hits"]["hits"]] == \
        [(h["_id"], h["_score"]) for h in r_bool["hits"]["hits"]]
    assert r_qs["hits"]["total"] == r_bool["hits"]["total"]

    r_f = search(e, {"query": {"query_string": {"query": "lang:java AND merge"}},
                     "size": 25})
    r_expl = search(e, {"query": {"bool": {"must": [{"match": {"content": "merge"}}],
                                           "filter": [{"term": {"lang": "java"}}]}},
                        "size": 25})
    assert [(h["_id"], h["_score"]) for h in r_f["hits"]["hits"]] == \
        [(h["_id"], h["_score"]) for h in r_expl["hits"]["hits"]]


def test_search_calendar_date_histogram(eng):
    """date_histogram with calendar_interval: variable-width UTC
    calendar buckets (doc_id stands in for an epoch-ms column — the
    values land in 1970, i.e. one weekly bucket), gap-fill across
    calendar boundaries, metric sub-aggs ride along."""
    from anomaly_detection_ray.index.query import search
    from anomaly_detection_ray.stages.window import calendar_floor_ms

    e, df, oracle = eng
    hits = set(oracle.postings.get("merge", ()))
    sub = df[df["doc_id"].isin(hits)]
    r = search(e, {"query": {"match": {"content": "merge"}}, "size": 0, "aggs": {
        "w": {"date_histogram": {"field": "doc_id", "calendar_interval": "1w"},
              "aggs": {"sum_id": {"sum": {"field": "doc_id"}}}}}})
    buckets = r["aggregations"]["w"]["buckets"]
    starts, _ = calendar_floor_ms(sub["doc_id"].to_numpy(), "1w")
    exp = sub.groupby(starts)["doc_id"]
    assert {b["key"] for b in buckets} >= {int(k) for k in exp.groups}
    for b in buckets:
        if b["key"] in exp.groups:
            g = exp.get_group(b["key"])
            assert b["doc_count"] == len(g)
            assert b["sum_id"]["value"] == float(g.sum())
        else:
            assert b["doc_count"] == 0 and b["sum_id"]["value"] == 0.0


def test_terms_agg_order_by_subagg(eng):
    """OpenSearch terms-agg `order`: by _count/_key or by a metric
    sub-agg's value (dotted path into stats), ties on key asc; empty
    metric values sort last."""
    from anomaly_detection_ray.index.query import search

    e, df, oracle = eng
    hits = set(oracle.postings.get("merge", ()))
    sub = df[df["doc_id"].isin(hits)]
    body = lambda order: {"query": {"match": {"content": "merge"}}, "size": 0,
        "aggs": {"by_lang": {"terms": {"field": "lang", "size": 100, "order": order},
                             "aggs": {"m": {"avg": {"field": "doc_id"}},
                                      "st": {"stats": {"field": "doc_id"}}}}}}

    g = sub.groupby("lang")["doc_id"]

    r = search(e, body({"m": "asc"}))
    keys = [b["key"] for b in r["aggregations"]["by_lang"]["buckets"]]
    exp = sorted(g.mean().items(), key=lambda kv: (kv[1], kv[0]))
    assert keys == [k for k, _ in exp]

    r = search(e, body({"st.max": "desc"}))
    keys = [b["key"] for b in r["aggregations"]["by_lang"]["buckets"]]
    exp = sorted(g.max().items(), key=lambda kv: (-kv[1], kv[0]))
    assert keys == [k for k, _ in exp]

    r = search(e, body({"_key": "desc"}))
    keys = [b["key"] for b in r["aggregations"]["by_lang"]["buckets"]]
    assert keys == sorted(g.groups, reverse=True)

    r = search(e, body({"_count": "asc"}))
    keys = [b["key"] for b in r["aggregations"]["by_lang"]["buckets"]]
    exp = sorted(g.count().items(), key=lambda kv: (kv[1], kv[0]))
    assert keys == [k for k, _ in exp]

    # order without sub-aggs works through the same path
    r = search(e, {"query": {"match": {"content": "merge"}}, "size": 0,
                   "aggs": {"l": {"terms": {"field": "lang", "size": 2,
                                            "order": {"_key": "asc"}}}}})
    assert [b["key"] for b in r["aggregations"]["l"]["buckets"]] == \
        sorted(g.groups)[:2]

    # unknown order target errors loudly
    with pytest.raises(ValueError, match="unknown sub-aggregation"):
        search(e, body({"nope": "desc"}))
    with pytest.raises(ValueError, match="dotted path"):
        search(e, body({"st": "desc"}))


def test_terms_agg_ties_at_size_cut(ray_session, tmp_path):
    """Terms buckets with doc_count ties across the ``size`` cut, vs a
    pandas groupby: doc_count desc then key asc by default, ``_key`` in
    both directions, ``_count`` asc, and a sub-agg order whose empty
    (null-metric) buckets sort last either direction. The forms with
    and without sub-aggs return the same buckets."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from anomaly_detection_ray.index.query import search

    # r0, r2, r4 tie at 3 docs across the size-3 cut; every lang of r0
    # and r4 is missing, so their min(lang) is null
    repos = ["r3"] * 4 + ["r0"] * 3 + ["r2"] * 3 + ["r4"] * 3 + ["r1"]
    langs = ["go", "rust", "go", "java"] + [None] * 3 + ["python", "c", "go"] \
        + [None] * 3 + ["java"]
    df = pd.DataFrame({
        "doc_id": np.arange(len(repos), dtype=np.int64),
        "content": [f"alpha beta {i}" for i in range(len(repos))],
        "repo": repos, "path": "p", "commit": "c", "lang": langs,
    }).sample(frac=1.0, random_state=0)
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), src)
    out = str(tmp_path / "index")
    build_index([src], out, slices=1, num_partitions=2, mode="code")
    e = QueryEngine(out)

    g = df.groupby("repo").agg(n=("doc_id", "count"), m=("lang", "min"))
    expect = {
        None: g.sort_values(["n"], ascending=False, kind="stable").index,
        ("_key", "asc"): g.index,
        ("_key", "desc"): g.index[::-1],
        ("_count", "asc"): g.sort_values(["n"], kind="stable").index,
        ("m", "asc"): g.sort_values(["m"], na_position="last", kind="stable").index,
        ("m", "desc"): g.sort_values(["m"], ascending=False, na_position="last",
                                     kind="stable").index,
    }
    for order, keys in expect.items():
        terms = {"field": "repo", "size": 3}
        if order is not None:
            terms["order"] = dict([order])
        subs = search(e, {"size": 0, "aggs": {"t": {
            "terms": terms, "aggs": {"m": {"min": {"field": "lang"}}}}}})
        bs = subs["aggregations"]["t"]["buckets"]
        exp = [(k, int(g.loc[k, "n"])) for k in list(keys)[:3]]
        assert [(b["key"], b["doc_count"]) for b in bs] == exp, order
        if order is None or order[0] != "m":
            plain = search(e, {"size": 0, "aggs": {"t": {"terms": terms}}})
            assert [(b["key"], b["doc_count"])
                    for b in plain["aggregations"]["t"]["buckets"]] == exp, order
        for b in bs:
            m = g.loc[b["key"], "m"]
            assert b["m"]["value"] == (None if pd.isna(m) else m), order


def test_composite_agg_pagination(eng):
    """Composite agg with after-key pagination — the CompositeRetriever
    shape the reference drives HC detection with: (lang, doc_id%bucket)
    tuple buckets in total key order, strict after-key resume, metric
    sub-aggs per bucket, after_key absent on the final page."""
    from anomaly_detection_ray.index.query import search

    e, df, oracle = eng
    hits = set(oracle.postings.get("merge", ()))
    sub = df[df["doc_id"].isin(hits)]

    # single source, paged in 3s ≡ one pandas groupby
    exp = sub.groupby("lang").agg(n=("doc_id", "count"), s=("doc_id", "sum"))
    exp = exp.sort_index()
    got, after = [], None
    while True:
        comp = {"sources": [{"l": {"terms": {"field": "lang"}}}], "size": 3}
        if after is not None:
            comp["after"] = after
        r = search(e, {"query": {"match": {"content": "merge"}}, "size": 0,
                       "aggs": {"c": {"composite": comp,
                                      "aggs": {"s": {"sum": {"field": "doc_id"}}}}}})
        a = r["aggregations"]["c"]
        got.extend(a["buckets"])
        if "after_key" not in a:
            break
        after = a["after_key"]
    assert [b["key"]["l"] for b in got] == list(exp.index)
    for b, (k, row) in zip(got, exp.iterrows()):
        assert b["doc_count"] == row["n"] and b["s"]["value"] == float(row["s"])

    # two sources: total (lang, doc_id) ascending tuple order
    r = search(e, {"query": {"match": {"content": "merge"}}, "size": 0,
                   "aggs": {"c": {"composite": {
                       "sources": [{"l": {"terms": {"field": "lang"}}},
                                   {"d": {"terms": {"field": "doc_id"}}}],
                       "size": 10_000}}}})
    buckets = r["aggregations"]["c"]["buckets"]
    exp2 = sorted(zip(sub["lang"], sub["doc_id"]))
    assert [(b["key"]["l"], b["key"]["d"]) for b in buckets] == exp2
    assert all(b["doc_count"] == 1 for b in buckets)
    assert "after_key" not in r["aggregations"]["c"]


def test_percentile_ranks_and_significant_terms(eng):
    """percentile_ranks = exact inverse percentiles (% of values <= v);
    significant_terms = JLH-scored overrepresented keyword values in the
    hit set vs the whole index."""
    from anomaly_detection_ray.index.query import search

    e, df, oracle = eng
    hits = set(oracle.postings.get("merge", ()))
    sub = df[df["doc_id"].isin(hits)]

    r = search(e, {"query": {"match": {"content": "merge"}}, "size": 0, "aggs": {
        "pr": {"percentile_ranks": {"field": "doc_id", "values": [50, 150, 10_000]}}}})
    vals = r["aggregations"]["pr"]["values"]
    ids = sub["doc_id"].to_numpy(dtype=float)
    for v in (50, 150, 10_000):
        assert vals[f"{float(v)}"] == pytest.approx((ids <= v).mean() * 100.0)
    assert vals["10000.0"] == 100.0

    r = search(e, {"query": {"match": {"content": "merge"}}, "size": 0, "aggs": {
        "sig": {"significant_terms": {"field": "lang", "size": 100}}}})
    buckets = r["aggregations"]["sig"]["buckets"]
    fg = sub["lang"].value_counts()
    bg = df["lang"].value_counts()
    exp = []
    for term, fg_n in fg.items():
        fg_pct, bg_pct = fg_n / len(sub), bg[term] / len(df)
        if fg_pct <= bg_pct:
            continue
        exp.append((term, int(fg_n), int(bg[term]),
                    (fg_pct - bg_pct) * (fg_pct / bg_pct)))
    exp.sort(key=lambda t: (-t[3], t[0]))
    assert [(b["key"], b["doc_count"], b["bg_count"]) for b in buckets] == \
        [(t, n, b_) for t, n, b_, _ in exp]
    for b, (_, _, _, s) in zip(buckets, exp):
        assert b["score"] == pytest.approx(s)
    # match_all foreground == background → nothing is significant
    r0 = search(e, {"query": {"match_all": {}}, "size": 0, "aggs": {
        "sig": {"significant_terms": {"field": "lang"}}}})
    assert r0["aggregations"]["sig"]["buckets"] == []


def test_search_field_sort(eng):
    """_search with \"sort\": hits in metadata order (multi-key, mixed
    directions, doc_id tie-break, missing last), _score null, total and
    aggs unaffected by the ordering."""
    from anomaly_detection_ray.index.query import search

    e, df, oracle = eng
    hits = set(oracle.postings.get("merge", ()))
    sub = df[df["doc_id"].isin(hits)]

    r = search(e, {"query": {"match": {"content": "merge"}},
                   "sort": [{"lang": "asc"}, {"doc_id": "desc"}],
                   "size": 8,
                   "aggs": {"n": {"value_count": {"field": "doc_id"}}}})
    exp = sub.sort_values(["lang", "doc_id"], ascending=[True, False])
    got = r["hits"]["hits"]
    assert [h["_id"] for h in got] == exp["doc_id"].head(8).tolist()
    assert all(h["_score"] is None for h in got)
    assert got[0]["sort"] == [exp.iloc[0]["lang"], int(exp.iloc[0]["doc_id"])]
    assert r["hits"]["total"]["value"] == len(sub)
    assert r["aggregations"]["n"]["value"] == len(sub)

    # from/size paging walks the same total order
    r2 = search(e, {"query": {"match": {"content": "merge"}},
                    "sort": [{"lang": "asc"}, {"doc_id": "desc"}],
                    "from": 8, "size": 8})
    assert [h["_id"] for h in r2["hits"]["hits"]] == \
        exp["doc_id"].iloc[8:16].tolist()

    # string shorthand + filter-context query
    r3 = search(e, {"query": {"term": {"lang": "java"}},
                    "sort": "doc_id", "size": 5})
    assert [h["_id"] for h in r3["hits"]["hits"]] == \
        sorted(df[df["lang"] == "java"]["doc_id"])[:5]

    # _score inside sort and search_after+sort are rejected
    with pytest.raises(ValueError, match="_score"):
        search(e, {"query": {"match_all": {}}, "sort": [{"_score": "desc"}]})
    with pytest.raises(ValueError, match="search_after"):
        search(e, {"query": {"match": {"content": "merge"}},
                   "sort": "doc_id", "search_after": [1.0, 3]})


def test_terms_top_hits_subagg(eng):
    """top_hits inside terms buckets: per-bucket top-N docs by a field
    sort (doc_id tie-break; no sort → doc_id asc), composing with
    metric sub-aggs in the same request."""
    from anomaly_detection_ray.index.query import search

    e, df, oracle = eng
    hits = set(oracle.postings.get("merge", ()))
    sub = df[df["doc_id"].isin(hits)]
    r = search(e, {"query": {"match": {"content": "merge"}}, "size": 0, "aggs": {
        "by_lang": {"terms": {"field": "lang", "size": 100}, "aggs": {
            "top": {"top_hits": {"size": 2, "sort": [{"doc_id": "desc"}]}},
            "first": {"top_hits": {"size": 1}},
            "m": {"avg": {"field": "doc_id"}},
        }}}})
    for b in r["aggregations"]["by_lang"]["buckets"]:
        g = sub[sub["lang"] == b["key"]]["doc_id"]
        assert [h["_id"] for h in b["top"]["hits"]["hits"]] == \
            sorted(g, reverse=True)[:2]
        assert b["top"]["hits"]["hits"][0]["sort"] == [int(g.max())]
        assert [h["_id"] for h in b["first"]["hits"]["hits"]] == [int(g.min())]
        assert b["top"]["hits"]["total"]["value"] == len(g) == b["doc_count"]
        assert b["m"]["value"] == pytest.approx(float(g.mean()))


def test_search_collapse(eng):
    """Field collapsing: one best-scoring hit per field value in rank
    order, total stays the uncollapsed count, residual filters compose,
    unsupported combinations error."""
    from anomaly_detection_ray.index.query import search

    e, df, oracle = eng
    q = "merge sort"
    full = e.bm25_topk(q, k=10_000)
    langs = df.set_index("doc_id")["lang"]

    r = search(e, {"query": {"match": {"content": q}}, "size": 3,
                   "collapse": {"field": "lang"}})
    seen, exp = set(), []
    for d, s in full:
        v = langs[d]
        if v not in seen:
            seen.add(v)
            exp.append((d, s))
    got = [(h["_id"], h["_score"]) for h in r["hits"]["hits"]]
    assert got == [(d, pytest.approx(s)) for d, s in exp[:3]]
    assert r["hits"]["total"]["value"] == len(full)  # total is uncollapsed
    # one hit per lang across a full page
    r2 = search(e, {"query": {"match": {"content": q}}, "size": 100,
                    "collapse": {"field": "lang"}})
    page_langs = [langs[h["_id"]] for h in r2["hits"]["hits"]]
    assert len(page_langs) == len(set(page_langs)) == df["lang"].nunique()

    # residual filter composes (collapse over the filtered ranking)
    rf = search(e, {"query": {"bool": {"must": [{"match": {"content": q}}],
                                       "filter": [{"range": {"doc_id": {"lt": 150}}}]}},
                    "size": 100, "collapse": {"field": "lang"}})
    allowed = {d for d, _ in full if d < 150}
    seen2, exp2 = set(), []
    for d, s in full:
        if d not in allowed:
            continue
        v = langs[d]
        if v not in seen2:
            seen2.add(v)
            exp2.append(d)
    assert [h["_id"] for h in rf["hits"]["hits"]] == exp2

    with pytest.raises(ValueError, match="collapse"):
        search(e, {"query": {"term": {"lang": "java"}}, "collapse": {"field": "lang"}})
    with pytest.raises(ValueError, match="search_after"):
        search(e, {"query": {"match": {"content": q}}, "collapse": {"field": "lang"},
                   "search_after": [1.0, 2]})


def test_term_suggester(eng):
    """Term suggester: per analyzed token, dictionary candidates within
    max_edits sharing the prefix, (distance, freq desc, term) order,
    suggest_mode missing vs always."""
    from anomaly_detection_ray.index.query import search

    e, df, oracle = eng
    vocab = {t: len(ds) for t, ds in oracle.postings.items()}
    assert "merge" in vocab and "mergz" not in vocab

    r = search(e, {"query": {"match_all": {}}, "size": 0,
                   "suggest": {"fix": {"text": "mergz sort",
                                       "term": {"field": "content", "size": 3}}}})
    entries = r["suggest"]["fix"]
    assert [en["text"] for en in entries] == ["mergz", "sort"]
    # expected candidates for 'mergz': same first char, lev <= 2
    from tests.test_termscan import scalar_edit_distance
    cands = [t for t in vocab if t.startswith("m") and t != "mergz"]
    dists = [scalar_edit_distance(c, "mergz") for c in cands]
    exp = sorted((int(d), -vocab[c], c) for d, c in zip(dists, cands) if d <= 2)
    assert [(o["text"], o["distance"], o["freq"]) for o in entries[0]["options"]] == \
        [(c, d, -negdf) for d, negdf, c in exp[:3]]
    # present token + suggest_mode=missing → no options
    assert entries[1]["options"] == []
    # always mode suggests even for present tokens, never itself
    r2 = search(e, {"query": {"match_all": {}}, "size": 0,
                    "suggest": {"fix": {"text": "sort",
                                        "term": {"field": "content",
                                                 "suggest_mode": "always"}}}})
    opts = r2["suggest"]["fix"][0]["options"]
    assert opts and all(o["text"] != "sort" for o in opts)
    # only the term suggester exists
    with pytest.raises(ValueError, match="term suggester"):
        search(e, {"query": {"match_all": {}},
                   "suggest": {"x": {"text": "a", "phrase": {}}}})


def test_extended_stats_agg(eng):
    """extended_stats: stats + sum_of_squares / population variance /
    std deviation / ±2σ bounds (OpenSearch's response shape)."""
    from anomaly_detection_ray.index.query import search

    e, df, oracle = eng
    hits = set(oracle.postings.get("merge", ()))
    v = df[df["doc_id"].isin(hits)]["doc_id"].to_numpy(dtype=float)
    r = search(e, {"query": {"match": {"content": "merge"}}, "size": 0, "aggs": {
        "x": {"extended_stats": {"field": "doc_id"}}}})
    x = r["aggregations"]["x"]
    assert x["count"] == v.size and x["sum"] == v.sum()
    assert x["sum_of_squares"] == pytest.approx((v * v).sum())
    assert x["variance"] == pytest.approx(v.var())
    assert x["std_deviation"] == pytest.approx(np.sqrt(v.var()))
    assert x["std_deviation_bounds"]["upper"] == pytest.approx(v.mean() + 2 * v.std())
    assert x["std_deviation_bounds"]["lower"] == pytest.approx(v.mean() - 2 * v.std())


def test_filters_agg(eng):
    """filters agg: named buckets, each inner filter intersected with
    the main query's matching set independently."""
    from anomaly_detection_ray.index.query import search

    e, df, oracle = eng
    hits = set(oracle.postings.get("merge", ()))
    sub = df[df["doc_id"].isin(hits)]
    r = search(e, {"query": {"match": {"content": "merge"}}, "size": 0, "aggs": {
        "f": {"filters": {"filters": {
            "java": {"term": {"lang": "java"}},
            "low_ids": {"range": {"doc_id": {"gte": 0, "lt": 100}}},
            "both": {"bool": {"filter": [{"term": {"lang": "java"}},
                                         {"range": {"doc_id": {"lt": 100}}}]}},
        }}}}})
    b = r["aggregations"]["f"]["buckets"]
    assert b["java"]["doc_count"] == int((sub["lang"] == "java").sum())
    assert b["low_ids"]["doc_count"] == int((sub["doc_id"] < 100).sum())
    assert b["both"]["doc_count"] == int(
        ((sub["lang"] == "java") & (sub["doc_id"] < 100)).sum())
    assert list(b) == ["java", "low_ids", "both"]  # request key order


def test_query_string_field_group(eng):
    """Lucene field grouping: ``field:(a OR b)`` scopes every unfielded
    leaf inside the group to ``field`` (an explicit field still wins)."""
    e, df, oracle = eng

    def run(q):
        return set(e.execute_filter({"query_string": {"query": q}}).tolist())

    def langs(*ls):
        return set(df[df["lang"].isin(ls)]["doc_id"])

    merge = set(oracle.postings.get("merge", ()))
    assert run("lang:(go OR rust)") == langs("go", "rust")
    assert run("merge AND lang:(java OR (go NOT python))") == merge & langs("java", "go")
    assert run("lang:(go OR content:merge)") == langs("go") | merge
    assert run("content:(merge)") == merge
    from anomaly_detection_ray.index.querystring import QueryStringSyntaxError
    with pytest.raises(QueryStringSyntaxError, match="unknown field"):
        run("zzfield:(go OR rust)")


def test_term_suggester_equals_brute_force(eng):
    """``suggest_terms``, both ``suggest_mode`` values, equals a ranking
    of the whole dictionary by the scalar DP on (distance, -df, term),
    sharing the first ``prefix_length`` chars, the token itself
    excluded."""
    from tests.test_termscan import scalar_edit_distance

    e, _, oracle = eng
    vocab = {t: len(ds) for t, ds in oracle.postings.items()}
    words = sorted(vocab)[:: max(1, len(vocab) // 6)] + [
        "mergz", "sortt", "prase", "windw", "imprt", "x", "retrun"]
    toks = e.analyzer.tokens(" ".join(words))
    assert any(t not in vocab for t in toks) and any(t in vocab for t in toks)
    n_opts = 0
    for tok in toks:
        dist = {t: scalar_edit_distance(t, tok) for t in vocab}
        for mode in ("missing", "always"):
            for pl in (0, 1, 2):
                for max_edits in (1, 2):
                    for size in (3, 50):
                        (got,) = e.suggest_terms(tok, size=size, max_edits=max_edits,
                                                 prefix_length=pl, suggest_mode=mode)
                        exp = [] if mode == "missing" and tok in vocab else sorted(
                            (dist[t], -df, t) for t, df in vocab.items()
                            if t != tok and t.startswith(tok[:pl]) and dist[t] <= max_edits
                        )[:size]
                        assert got["text"] == tok
                        assert [(o["distance"], -o["freq"], o["text"])
                                for o in got["options"]] == exp, (tok, mode, pl, max_edits)
                        n_opts += len(exp)
    assert n_opts > 100


def test_keyword_fuzzy_equals_brute_force(eng):
    """``{"fuzzy": {<keyword>: …}}`` equals brute force over the column's
    distinct values: the scalar DP, closest-first then value order, cut
    at ``max_expansions``, then every doc holding a kept value."""
    from anomaly_detection_ray.index.termscan import auto_fuzziness
    from tests.test_termscan import scalar_edit_distance

    e, df, _ = eng
    hits = 0
    for field, values in (
        ("lang", ["pythn", "jo", "gs", "rsut", "jav", "javs", "c", "pyhton"]),
        ("path", [p[:-1] + "x" for p in df["path"][:6]] + [df["path"][7][1:]]),
    ):
        distinct = sorted(df[field].dropna().unique())
        for v in values:
            for fz in (0, 1, 2, "AUTO"):
                for pl in (0, 1, 2):
                    for tr in (False, True):
                        max_edits = auto_fuzziness(v) if fz == "AUTO" else fz
                        ranked = sorted(
                            (d, x) for x in distinct if x.startswith(v[:pl])
                            and (d := scalar_edit_distance(x, v, tr)) <= max_edits)
                        for cut in (None, 1, 2):
                            spec = {"value": v, "fuzziness": fz, "prefix_length": pl,
                                    "transpositions": tr, "max_expansions": cut}
                            got = e.execute_filter({"fuzzy": {field: spec}})
                            keep = {x for _, x in ranked[:cut]}
                            exp = sorted(df[df[field].isin(keep)]["doc_id"])
                            assert list(got) == exp, (field, spec)
                            hits += bool(exp)
    assert hits > 50


def test_search_sorted_keeps_suggest(eng):
    """A field-sorted search still answers its ``suggest`` section (the
    term suggester does not depend on the query or the sort)."""
    from anomaly_detection_ray.index.query import search

    e, _, _ = eng
    suggest = {"fix": {"text": "mergz", "term": {"field": "content", "size": 3}}}
    plain = search(e, {"query": {"term": {"lang": "go"}}, "size": 2, "suggest": suggest})
    r = search(e, {"query": {"term": {"lang": "go"}}, "size": 2,
                   "sort": [{"doc_id": "desc"}], "suggest": suggest})
    assert r["suggest"] == plain["suggest"]
    assert r["suggest"]["fix"][0]["options"]
