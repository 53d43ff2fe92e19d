"""multi_match over per-field indexes vs brute-force field merging."""

import numpy as np
import pytest

from anomaly_detection_ray.functions.analyzer import Analyzer
from anomaly_detection_ray.index.multifield import (
    MultiFieldEngine,
    build_multifield_index,
)
from anomaly_detection_ray.index.oracle import BruteForceIndex


@pytest.fixture(scope="module")
def mf(ray_session, tiny_corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("mfidx"))
    build_multifield_index(
        tiny_corpus["paths"], out, fields=["content", "path"],
        mode="code", slices=2, num_partitions=4,
    )
    table = tiny_corpus["table"]
    an = Analyzer("code")
    oracles = {
        f: BruteForceIndex(table["doc_id"].to_pylist(), table[f].to_pylist(), an)
        for f in ("content", "path")
    }
    return MultiFieldEngine(out), oracles, table


def _brute_multi(oracles, fields, q, match_type, boosts=None, k=10):
    boosts = boosts or {}
    per_doc: dict[int, list[float]] = {}
    for f in fields:
        for d, s in oracles[f].bm25_topk(q, k=10_000):
            per_doc.setdefault(d, []).append(s * boosts.get(f, 1.0))
    agg = max if match_type == "best_fields" else sum
    rows = sorted(
        ((d, agg(ss)) for d, ss in per_doc.items()), key=lambda r: (-r[1], r[0])
    )
    return rows[:k]


@pytest.mark.parametrize("match_type", ["best_fields", "most_fields"])
def test_multi_match_vs_brute(mf, match_type):
    eng, oracles, _ = mf
    queries = ["mod7 merge", "src pkg3 sort", "java parse", "js window import"]
    n_nonempty = 0
    for q in queries:
        exp = _brute_multi(oracles, ["content", "path"], q, match_type)
        got = eng.multi_match(q, k=10, match_type=match_type)
        assert [d for d, _ in got] == [d for d, _ in exp], (q, match_type)
        for (_, gs), (_, es) in zip(got, exp):
            assert gs == pytest.approx(es, abs=1e-9)
        n_nonempty += bool(got)
    assert n_nonempty == len(queries)


def test_multi_match_boosts_and_single_field(mf):
    eng, oracles, _ = mf
    q = "mod7 js"
    exp = _brute_multi(oracles, ["content", "path"], q, "best_fields",
                       boosts={"path": 3.0})
    got = eng.multi_match(q, k=10, boosts={"path": 3.0})
    assert [d for d, _ in got] == [d for d, _ in exp]
    # restricting to one field == that field's own BM25 ranking
    single = eng.multi_match(q, k=10, fields=["path"])
    own = eng.engine("path").bm25_topk(q, k=10)
    assert single == own


def test_match_any_docs_and_field_engines(mf):
    eng, oracles, table = mf
    q = "pkg3 merge"
    exp = set()
    for f in ("content", "path"):
        for t in ("pkg3", "merge"):
            exp |= set(oracles[f].postings.get(t, ()))
    assert set(eng.match_any_docs(q).tolist()) == exp
    # per-field engines keep the full single-field surface
    assert list(eng.engine("path").prefix_docs("pkg3")) == sorted(
        set(oracles["path"].postings) and
        {d for t, ds in oracles["path"].postings.items() if t.startswith("pkg3") for d in ds}
    )
    with pytest.raises(KeyError):
        eng.engine("nope")
    with pytest.raises(ValueError):
        eng.multi_match("x", match_type="phrase_prefixy")


def test_cross_fields_vs_brute(mf):
    """Term-centric blending: blended idf (max df across fields) × best
    boosted field occurrence, summed over terms."""
    import math

    eng, oracles, table = mf
    an = Analyzer("code")
    field_tokens = {
        f: [an.tokens(t) for t in table[f].to_pylist()] for f in ("content", "path")
    }
    doc_ids = table["doc_id"].to_pylist()

    def brute(q, boosts=None, k=10):
        boosts = boosts or {}
        terms = sorted(set(an.tokens(q)))
        n = len(doc_ids)
        avgdl = {
            f: sum(len(t) for t in field_tokens[f]) / n for f in field_tokens
        }
        scores = {}
        for t in terms:
            dfs = {f: sum(t in toks for toks in field_tokens[f]) for f in field_tokens}
            if max(dfs.values()) == 0:
                continue
            idf = math.log(1 + (n - max(dfs.values()) + 0.5) / (max(dfs.values()) + 0.5))
            for i, d in enumerate(doc_ids):
                best = None
                for f, toks_list in field_tokens.items():
                    toks = toks_list[i]
                    tf = toks.count(t)
                    if tf == 0:
                        continue
                    dl = len(toks)
                    v = boosts.get(f, 1.0) * (
                        tf * 2.2 / (tf + 1.2 * (1 - 0.75 + 0.75 * dl / avgdl[f]))
                    )
                    best = v if best is None or v > best else best
                if best is not None:
                    scores[d] = scores.get(d, 0.0) + idf * best
        return sorted(scores.items(), key=lambda r: (-r[1], r[0]))[:k]

    for q, boosts in [("mod7 js merge", None), ("src pkg3 sort", {"path": 2.0})]:
        exp = brute(q, boosts)
        got = eng.multi_match(q, k=10, match_type="cross_fields", boosts=boosts)
        assert [d for d, _ in got] == [d for d, _ in exp], q
        for (_, gs), (_, es) in zip(got, exp):
            assert gs == pytest.approx(es, abs=1e-9)


def test_multifield_query_string(mf):
    """Multi-field query_string filter context: unscoped leaves union
    across fields (MultiFieldQueryParser rewrite), field: scoping pins a
    leaf, boolean structure survives the expansion."""
    eng, oracles, table = mf
    all_ids = set(table["doc_id"].to_pylist())

    def docs_with(field, term):
        return set(oracles[field].postings.get(term, ()))

    def anyfield(term):
        return docs_with("content", term) | docs_with("path", term)

    run = lambda q, **kw: set(eng.query_string_docs(q, **kw).tolist())

    # unscoped leaf = union across fields
    assert run("merge") == anyfield("merge")
    # AND distributes per leaf, not per whole-query field
    assert run("merge AND src") == anyfield("merge") & anyfield("src")
    # field scoping pins the leaf
    assert run("content:merge") == docs_with("content", "merge")
    assert run("path:merge OR content:merge") == \
        docs_with("path", "merge") | docs_with("content", "merge")
    # NOT against the shared doc universe
    assert run("merge NOT path:src") == anyfield("merge") - docs_with("path", "src")
    assert run("NOT merge") == all_ids - anyfield("merge")
    # prefix expansion across fields
    pref = {d for f in ("content", "path")
            for t, ds in oracles[f].postings.items() if t.startswith("pk")
            for d in ds}
    assert run("pk*") == pref
    # restricting fields= narrows the default expansion
    assert run("merge", fields=["path"]) == docs_with("path", "merge")
    # unknown scoped field is a strict error
    from anomaly_detection_ray.index.querystring import QueryStringSyntaxError
    with pytest.raises((QueryStringSyntaxError, ValueError)):
        run("zzfield:x")
