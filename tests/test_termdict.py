"""TermDictionary: lazy row-group-pruned mode ≡ eager in-RAM mode."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from anomaly_detection_ray.index.termdict import TermDictionary


@pytest.fixture(scope="module")
def dict_file(tmp_path_factory):
    rng = np.random.default_rng(5)
    vocab = sorted({
        "".join(rng.choice(list("abcdef"), size=rng.integers(3, 9)))
        for _ in range(6000)
    })
    path = str(tmp_path_factory.mktemp("dict") / "stats.parquet")
    pq.write_table(
        pa.table({
            "term": pa.array(vocab),
            "df": pa.array(np.arange(1, len(vocab) + 1, dtype=np.int64)),
            "cttf": pa.array(np.arange(1, len(vocab) + 1, dtype=np.int64) * 2),
        }),
        path, row_group_size=256,   # many groups → real pruning
    )
    return path, vocab


@pytest.fixture(scope="module")
def long_term_file(tmp_path_factory):
    """A row group whose largest term is over pyarrow's 4096-byte
    statistics limit: its max statistic reads back as ``''``."""
    vocab = ["a1", "a2", "b" * 5000, "c1", "c2", "c3"]
    path = str(tmp_path_factory.mktemp("dict_long") / "stats.parquet")
    pq.write_table(
        pa.table({
            "term": pa.array(vocab),
            "df": pa.array(np.arange(1, len(vocab) + 1, dtype=np.int64)),
            "cttf": pa.array(np.arange(1, len(vocab) + 1, dtype=np.int64)),
        }),
        path, row_group_size=3,
    )
    return path, vocab


def test_lazy_matches_eager(dict_file, long_term_file):
    for (path, vocab), step in ((dict_file, 37), (long_term_file, 1)):
        eager = TermDictionary(path)                       # fits the budget
        lazy = TermDictionary(path, budget_bytes=0)        # forced lazy
        assert eager.eager and not lazy.eager
        assert len(eager) == len(lazy) == len(vocab)
        # point lookups: every step-th term + misses that fall between terms
        for t in vocab[::step]:
            assert lazy.df(t) == eager.df(t) == vocab.index(t) + 1
        for miss in ("", "zzz", vocab[min(10, len(vocab) - 1)] + "q", "aaa"):
            assert lazy.df(miss) == eager.df(miss)
        # prefix ranges: every 1- and 2-char prefix
        prefixes = [c for c in "abcdefg"] + [a + b for a in "abc" for b in "def"]
        for p in prefixes:
            want = [t for t in vocab if t.startswith(p)]
            got_e = [t for sl in eager.iter_slices(p) for t in sl.to_pylist()]
            got_l = [t for sl in lazy.iter_slices(p) for t in sl.to_pylist()]
            assert got_e == want, p
            assert got_l == want, p
        # full scan (empty prefix) streams the whole vocabulary in order
        assert [t for sl in lazy.iter_slices("") for t in sl.to_pylist()] == vocab
        # the LRU held at most cache_groups groups
        assert len(lazy._cache) <= lazy._cache_groups


def test_dropped_max_bounded_by_next_group(tmp_path):
    """A group whose max statistic pyarrow dropped (a 5000-byte term) is
    bounded by the next group's max, so lookups past it still prune: a
    term in the last of 11 groups reads at most 2 groups, not all 11."""
    vocab = [f"a{i:03d}" for i in range(30)] + ["a" + "z" * 4999] + [f"c{i:03d}" for i in range(300)]
    assert vocab == sorted(vocab) and len(vocab) == 331
    path = str(tmp_path / "stats.parquet")
    pq.write_table(
        pa.table({
            "term": pa.array(vocab),
            "df": pa.array(np.arange(1, len(vocab) + 1, dtype=np.int64)),
            "cttf": pa.array(np.arange(1, len(vocab) + 1, dtype=np.int64)),
        }),
        path, row_group_size=31,
    )
    eager = TermDictionary(path)
    lazy = TermDictionary(path, budget_bytes=0)
    assert len(lazy._grp) == 11
    assert len(lazy._groups_for_range("c290", "c290\x00")) <= 2
    for t in vocab + ["a0295", "b", "azz", "c9"]:
        assert lazy.df(t) == eager.df(t), t[:8]
    for p in ("a", "az", "b", "c2", "c29", ""):
        want = [t for t in vocab if t.startswith(p)]
        assert [t for sl in lazy.iter_slices(p) for t in sl.to_pylist()] == want, p


def test_lazy_cache_bounded(dict_file):
    path, vocab = dict_file
    lazy = TermDictionary(path, budget_bytes=0, cache_groups=2)
    for t in vocab[::101]:
        lazy.df(t)
    list(lazy.iter_slices(""))
    assert len(lazy._cache) <= 2


def test_truncated_stats_bounds_never_miss(dict_file):
    """Parquet statistics truncation can round a group's max UP (and a
    min DOWN), leaving the boundary arrays locally out of order — the
    prune bisect must still never skip an intersecting group. Simulate
    the truncation the writer could apply and check every lookup/scan
    still matches eager (over-read only, no misses)."""
    from anomaly_detection_ray.index.termdict import _monotone_bounds

    # unit: cummax restores monotonicity, bounds only widen
    mins = ["aa", "a", "ca", "bz"]          # locally out of order
    maxs = ["cz", "bb", "dd", "cz"]
    m2, x2 = _monotone_bounds(mins, maxs)
    assert m2 == sorted(m2) and x2 == sorted(x2)
    assert all(x >= orig for x, orig in zip(x2, maxs))  # maxs only go up (over-read)

    path, vocab = dict_file
    eager = TermDictionary(path)
    lazy = TermDictionary(path, budget_bytes=0)
    # perturb the REAL bounds the way truncation would: round every other
    # group's max up past its neighbour, truncate every third min down
    mins = list(lazy._mins)
    maxs = list(lazy._maxs)
    for i in range(0, len(maxs) - 1, 2):
        maxs[i] = maxs[i + 1] + "zz"       # rounded-up max overtakes the next group
    for i in range(2, len(mins), 3):
        mins[i] = mins[i][:1]              # truncated-down min falls behind
    lazy._mins, lazy._maxs = _monotone_bounds(mins, maxs)
    for t in vocab[::23] + ["", "zzz", vocab[5] + "q"]:
        assert lazy.df(t) == eager.df(t), t
    for p in ("a", "bc", "f", "de"):
        want = [t for t in vocab if t.startswith(p)]
        assert [t for sl in lazy.iter_slices(p) for t in sl.to_pylist()] == want, p


def test_engine_lazy_dictionary_parity(ray_session, tiny_corpus, tmp_path_factory):
    """QueryEngine with a forced-lazy dictionary returns identical results
    for every dictionary-driven surface (df/prefix/wildcard/regexp/fuzzy
    and BM25, whose idf reads df)."""
    from anomaly_detection_ray.index.build import build_index
    from anomaly_detection_ray.index.query import QueryEngine

    import os

    out = str(tmp_path_factory.mktemp("lazydict"))
    build_index(tiny_corpus["paths"], out, slices=1, num_partitions=4,
                batch_size=64, mode="code")
    # the tiny corpus fits one row group — re-chunk the dictionary so the
    # lazy mode actually prunes (content identical, just many groups)
    sp = os.path.join(out, "stats.parquet")
    pq.write_table(pq.read_table(sp), sp, row_group_size=64)
    a = QueryEngine(out)
    b = QueryEngine(out, dict_budget_bytes=0)
    assert a._dict.eager and not b._dict.eager
    for t in ("merge", "sort", "zzabsent0"):
        assert a.df(t) == b.df(t)
    assert a.prefix_terms("me") == b.prefix_terms("me")
    assert a.prefix_terms("s", max_expansions=5) == b.prefix_terms("s", max_expansions=5)
    assert a.wildcard_terms("me*e") == b.wildcard_terms("me*e")
    assert a.regexp_terms("m[ae]rge") == b.regexp_terms("m[ae]rge")
    assert a.fuzzy_terms("merge", fuzziness=1) == b.fuzzy_terms("merge", fuzziness=1)
    assert a.fuzzy_terms("mergz", fuzziness="AUTO", max_expansions=10) == \
        b.fuzzy_terms("mergz", fuzziness="AUTO", max_expansions=10)
    assert a.bm25_topk("merge sort", k=10) == b.bm25_topk("merge sort", k=10)
    assert list(a.wildcard_docs("mer*")) == list(b.wildcard_docs("mer*"))
    # fuzzy over row groups of 4 terms, so that a live prefix spans
    # groups and each group's trie walk sees only part of it
    pq.write_table(pq.read_table(sp), sp, row_group_size=4)
    c = QueryEngine(out, dict_budget_bytes=0)
    assert sum(1 for _ in c._dict.iter_ranges("v1")) > 1
    assert sum(1 for _ in c._dict.iter_ranges("s")) > 1
    for q in ("merge", "mergz", "sort", "srot", "stat", "shingel", "v12", "v1x", "x",
              "checkpont"):
        for fz in (0, 1, 2, "AUTO"):
            for pl in (0, 1, 3):
                for tr in (False, True):
                    for cut in (None, 3):
                        kw = dict(fuzziness=fz, prefix_length=pl, transpositions=tr,
                                  max_expansions=cut)
                        assert a.fuzzy_terms(q, **kw) == c.fuzzy_terms(q, **kw), (q, kw)
    assert a.suggest_terms("mergz srot v1x", suggest_mode="always") == \
        c.suggest_terms("mergz srot v1x", suggest_mode="always")
