"""Multi-term queries (wildcard / regexp / fuzzy) vs brute-force oracles.

Parity model: expand the pattern over the BruteForceIndex vocabulary
with stdlib semantics (fnmatch / re.fullmatch / a scalar edit-distance
DP), union the postings, compare doc-for-doc with the engine. The
scalar DP below is the only other edit distance in the project: the
oracle of the trie walk every fuzzy surface runs.
"""

import random
import re
from fnmatch import fnmatchcase

import pyarrow as pa
import pytest

from anomaly_detection_ray.functions.analyzer import Analyzer
from anomaly_detection_ray.index.build import build_index
from anomaly_detection_ray.index.oracle import BruteForceIndex
from anomaly_detection_ray.index.query import QueryEngine
from anomaly_detection_ray.index.termscan import (
    TermSlice,
    TermTrie,
    _rank_matches,
    auto_fuzziness,
    fuzzy_expand,
    fuzzy_walk,
    regexp_prefix,
    wildcard_prefix,
    wildcard_to_regex,
)


def scalar_edit_distance(a: str, b: str, transpositions: bool = False) -> int:
    """Textbook Wagner-Fischer (+ OSA swap) — the test-side oracle."""
    la, lb = len(a), len(b)
    d = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(la + 1):
        d[i][0] = i
    for j in range(lb + 1):
        d[0][j] = j
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
            if (
                transpositions
                and i > 1
                and j > 1
                and a[i - 1] == b[j - 2]
                and a[i - 2] == b[j - 1]
            ):
                d[i][j] = min(d[i][j], d[i - 2][j - 2] + 1)
    return d[la][lb]


@pytest.fixture(scope="module")
def built(ray_session, tiny_corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("scanindex"))
    build_index(
        tiny_corpus["paths"], out, slices=2, num_partitions=4, batch_size=64, mode="code"
    )
    table = tiny_corpus["table"]
    oracle = BruteForceIndex(
        table["doc_id"].to_pylist(), table["content"].to_pylist(), Analyzer("code")
    )
    return QueryEngine(out), oracle


def _oracle_union(oracle, terms):
    docs = set()
    for t in terms:
        docs |= set(oracle.postings.get(t, ()))
    return sorted(docs)


def _walk_all(q: str, terms: list[str], max_edits: int, transpositions: bool):
    """(position, distance) of every term of the sorted vocabulary
    ``terms`` within ``max_edits`` of ``q``, by the trie walk."""
    pos, dist = fuzzy_walk(TermTrie(pa.array(terms, pa.string())), q, max_edits,
                           transpositions)
    return list(zip(pos.tolist(), dist.tolist()))


def test_fuzzy_walk_exact_vs_scalar():
    """With a budget no distance reaches, the trie walk returns every
    term with its exact distance."""
    rng = random.Random(7)
    alphabet = "abc1"
    for transpositions in (False, True):
        for _ in range(40):
            q = "".join(rng.choices(alphabet, k=rng.randint(0, 7)))
            terms = sorted({
                "".join(rng.choices(alphabet, k=rng.randint(0, 8))) for _ in range(50)
            })
            got = _walk_all(q, terms, 16, transpositions)
            exp = [(i, scalar_edit_distance(t, q, transpositions)) for i, t in enumerate(terms)]
            assert got == exp, (q, transpositions)


def test_wildcard_pattern_helpers():
    assert wildcard_to_regex("fo*ba?") == "^(?:fo.*ba.)$"
    assert wildcard_prefix("fo*ba?") == "fo"
    assert wildcard_prefix("*x") == ""
    assert wildcard_prefix(r"a\*b*") == "a*b"
    assert regexp_prefix("abc[0-9]+") == "abc"
    assert regexp_prefix("abc?x") == "ab"  # trailing literal made optional
    assert regexp_prefix("ab|cd") == ""


def test_wildcard_parity(built):
    eng, oracle = built
    vocab = sorted(oracle.postings)
    patterns = ["pa*", "*ing", "s?rt", "m*e", "??", "import", "zz*", "*", "v?"]
    n_hits = 0
    for pat in patterns:
        exp_terms = sorted(t for t in vocab if fnmatchcase(t, pat))
        assert sorted(eng.wildcard_terms(pat)) == exp_terms, pat
        assert list(eng.wildcard_docs(pat)) == _oracle_union(oracle, exp_terms), pat
        n_hits += bool(exp_terms)
    assert n_hits >= 5  # the pattern set actually exercises matching


def test_regexp_parity(built):
    eng, oracle = built
    vocab = sorted(oracle.postings)
    patterns = [
        "pars(e|er|ing)",
        "[a-f]+",
        "v[0-9]+",
        "merge.?",
        "(so|po)rt(s|ed)?",
    ]
    n_hits = 0
    for pat in patterns:
        exp_terms = sorted(t for t in vocab if re.fullmatch(pat, t))
        assert sorted(eng.regexp_terms(pat)) == exp_terms, pat
        assert list(eng.regexp_docs(pat)) == _oracle_union(oracle, exp_terms), pat
        n_hits += bool(exp_terms)
    assert n_hits >= 3


def test_fuzzy_parity(built):
    eng, oracle = built
    vocab = sorted(oracle.postings)
    cases = [
        # (query, fuzziness, prefix_length, transpositions)
        ("merge", 1, 0, False),
        ("mrege", "AUTO", 0, True),  # transposed 'merge'
        ("parse", 2, 1, False),
        ("window", "AUTO", 0, False),
        ("import", 1, 3, False),
        ("xq", "AUTO", 0, False),  # len<3 → 0 edits → exact-or-nothing
    ]
    n_hits = 0
    for q, fz, pl, tr in cases:
        max_edits = auto_fuzziness(q) if fz == "AUTO" else fz
        exp_terms = sorted(
            t
            for t in vocab
            if t.startswith(q[:pl]) and scalar_edit_distance(t, q, tr) <= max_edits
        )
        got = eng.fuzzy_terms(
            q, fuzziness=fz, prefix_length=pl, transpositions=tr, max_expansions=None
        )
        assert sorted(got) == exp_terms, (q, fz, pl, tr)
        docs = eng.fuzzy_docs(
            q, fuzziness=fz, prefix_length=pl, transpositions=tr, max_expansions=None
        )
        assert list(docs) == _oracle_union(oracle, exp_terms), q
        n_hits += bool(exp_terms)
    assert n_hits >= 4


def test_fuzzy_walk_bounded_vs_scalar():
    """The walk prunes a prefix once its row minimum exceeds the budget:
    exactly the terms within ``max_edits`` come back, with their exact
    distances, both transposition modes, ASCII and non-ASCII slices."""
    rng = random.Random(11)
    for alphabet in ("abc1", "aéß中"):
        for transpositions in (False, True):
            for max_edits in (0, 1, 2):
                terms = sorted({
                    "".join(rng.choices(alphabet, k=rng.randint(0, 9))) for _ in range(300)
                })
                q = "".join(rng.choices(alphabet, k=rng.randint(0, 7)))
                exp = [(i, d) for i, t in enumerate(terms)
                       if (d := scalar_edit_distance(t, q, transpositions)) <= max_edits]
                assert _walk_all(q, terms, max_edits, transpositions) == exp, (
                    q, max_edits, transpositions,
                )
    # distances count characters, not UTF-8 bytes, on either side
    terms = ["", "hallo", "hello", "héllo"]
    assert _walk_all("hello", terms, 1, False) == [(1, 1), (2, 0), (3, 1)]
    assert _walk_all("héllo", terms, 1, False) == [(1, 1), (2, 1), (3, 0)]


def _vocabulary(rng, alphabet: str, n: int) -> list[str]:
    """A sorted vocabulary with runs of terms sharing long prefixes."""
    stems = ["".join(rng.choices(alphabet, k=rng.randint(0, 4))) for _ in range(6)]
    return sorted({
        rng.choice(stems) + "".join(rng.choices(alphabet, k=rng.randint(0, 4)))
        for _ in range(n)
    })


def _brute_fuzzy(vocab, q, max_edits, prefix_length, transpositions, max_expansions):
    """Lucene's closest-first expansion, by the scalar DP over every term."""
    scored = sorted(
        (d, t) for t in vocab
        if t.startswith(q[:prefix_length])
        and (d := scalar_edit_distance(t, q, transpositions)) <= max_edits
    )
    return [t for _, t in scored][:max_expansions]


def test_fuzzy_expand_property_vs_scalar():
    """``fuzzy_expand`` + ``_rank_matches`` over random sorted
    vocabularies equals the brute-force ranking: ASCII and non-ASCII
    (é, ß, CJK) terms with shared-prefix runs, both transposition modes,
    max_edits 0–2, prefix_length 0–3, and the max_expansions cut falling
    inside a run of equal distances."""
    import bisect

    rng = random.Random(5)
    ties_cut = 0
    for alphabet in ("abcd", "aéßb", "ab中文é"):
        for _ in range(60):
            vocab = _vocabulary(rng, alphabet, rng.randint(0, 120))
            sl = TermSlice(pa.array(vocab, pa.string()))
            q = rng.choice(vocab) if vocab and rng.random() < 0.5 else ""
            q = q + "".join(rng.choices(alphabet, k=rng.randint(0, 3)))
            for transpositions in (False, True):
                for max_edits in (0, 1, 2):
                    pl = rng.randint(0, 3)
                    pre = q[:pl]
                    lo = bisect.bisect_left(vocab, pre)
                    hi = bisect.bisect_left(vocab, pre + "\U0010ffff")
                    terms, dist, _ = fuzzy_expand([(sl, lo, hi)], q, max_edits, transpositions)
                    full = _brute_fuzzy(vocab, q, max_edits, pl, transpositions, None)
                    assert terms.to_pylist() == sorted(full)
                    for cut in (None, 1, 3):
                        got = terms.take(pa.array(_rank_matches(dist, cut))).to_pylist()
                        assert got == _brute_fuzzy(vocab, q, max_edits, pl,
                                                   transpositions, cut), (
                            vocab, q, max_edits, pl, transpositions, cut)
                        if cut and len(full) > cut:
                            d = [scalar_edit_distance(t, q, transpositions) for t in full]
                            ties_cut += d[cut - 1] == d[cut]
    assert ties_cut >= 20  # the cut really splits equal-distance runs


def test_fuzzy_max_expansions_closest_first():
    # distances to 'abc': abc=0, abd=1, bc=1 (del), xbc=1, xyz=3
    sl = TermSlice(pa.array(sorted(["abd", "xyz", "abc", "bc", "xbc"])))

    def select(max_expansions):
        terms, dist, _ = fuzzy_expand([(sl, 0, 5)], "abc", 2)
        return terms.take(pa.array(_rank_matches(dist, max_expansions))).to_pylist()

    assert select(3) == ["abc", "abd", "bc"]  # 0 first, then distance-1 in term order
    assert select(None) == [
        "abc",
        "abd",
        "bc",
        "xbc",
    ]


def test_dsl_terms_exists_and_multi_term(built, tiny_corpus):
    eng, oracle = built
    df = tiny_corpus["table"].to_pandas()
    # terms on a metadata column = is_in
    got = eng.execute_filter({"terms": {"lang": ["go", "rust"]}})
    assert list(got) == sorted(df[df["lang"].isin(["go", "rust"])]["doc_id"])
    # terms on the text field = postings union
    got = eng.execute_filter({"terms": {"content": ["merge", "parse"]}})
    assert list(got) == _oracle_union(oracle, ["merge", "parse"])
    # exists: every indexed doc has content and lang
    assert list(eng.execute_filter({"exists": {"field": "lang"}})) == sorted(df["doc_id"])
    assert list(eng.execute_filter({"exists": {"field": "content"}})) == sorted(df["doc_id"])
    # wildcard/regexp/fuzzy through the DSL, text field
    assert list(eng.execute_filter({"wildcard": {"content": "pars*"}})) == list(
        eng.wildcard_docs("pars*")
    )
    assert list(eng.execute_filter({"regexp": {"content": "v[0-9]+"}})) == list(
        eng.regexp_docs("v[0-9]+")
    )
    assert list(
        eng.execute_filter({"fuzzy": {"content": {"value": "merge", "fuzziness": 1}}})
    ) == list(eng.fuzzy_docs("merge", fuzziness=1))
    # wildcard on a metadata column
    got = eng.execute_filter({"wildcard": {"lang": "p*"}})
    assert list(got) == sorted(df[df["lang"].str.startswith("p")]["doc_id"])
    # fuzzy on a metadata column (distinct-value expansion)
    got = eng.execute_filter({"fuzzy": {"lang": {"value": "pythn", "fuzziness": 1}}})
    assert list(got) == sorted(df[df["lang"] == "python"]["doc_id"])


def test_dsl_minimum_should_match(built, tiny_corpus):
    eng, oracle = built
    terms = ["merge", "parse", "sort"]
    sets = [set(oracle.postings.get(t, ())) for t in terms]
    shoulds = [{"term": {"content": t}} for t in terms]
    # pure should, msm=2: docs matching at least two of the three
    got = eng.execute_filter({"bool": {"should": shoulds, "minimum_should_match": 2}})
    exp = sorted(
        d for d in set().union(*sets) if sum(d in s for s in sets) >= 2
    )
    assert list(got) == exp and exp  # non-trivial on this corpus
    # msm alongside a filter: both constraints apply
    df = tiny_corpus["table"].to_pandas()
    got = eng.execute_filter(
        {
            "bool": {
                "filter": [{"term": {"lang": "python"}}],
                "should": shoulds,
                "minimum_should_match": 2,
            }
        }
    )
    py_docs = set(df[df["lang"] == "python"]["doc_id"])
    assert list(got) == sorted(set(exp) & py_docs)
    # default with must present: should is advisory (scoring-only)
    got = eng.execute_filter(
        {"bool": {"must": [{"term": {"lang": "python"}}], "should": shoulds}}
    )
    assert list(got) == sorted(py_docs)
