"""Multi-term dictionary expansion: wildcard, regexp, fuzzy.

Lucene's MultiTermQuery family (WildcardQuery, RegexpQuery, FuzzyQuery)
rewrites a pattern into the set of matching dictionary terms and unions
their postings. The reference plugin exposes this whole surface through
the arbitrary ``filter_query`` it forwards to OpenSearch
(`/root/reference/src/main/java/org/opensearch/timeseries/model/Config.java:99`
ships the user's query straight into the search request). Rebuilt here
over the term-SORTED Arrow dictionary the index already stores:

- wildcard/regexp: bound the scan with the pattern's literal prefix
  (binary search over the sorted dictionary — Lucene walks the FST the
  same way), then ONE vectorized RE2 match over the bounded Arrow slice
  (``pc.match_substring_regex``), no per-term Python loop.
- fuzzy: Lucene FuzzyQuery semantics — AUTO fuzziness by term length,
  ``prefix_length`` sharing, optional transpositions (OSA), closest-
  first ``max_expansions``. Lucene intersects a Levenshtein automaton
  with its term dictionary (Schulz & Mihov, "Fast string correction
  with Levenshtein automata", IJDAR 2002); here the term-SORTED
  dictionary is walked as an implicit trie (:class:`TermTrie`), level
  by level, vectorized across prefixes: every distinct live prefix has
  ONE Wagner-Fischer row (the automaton's state set), shared by every
  term under it, and one numpy pass over (children × query length)
  computes the next level's rows. A prefix whose row minimum exceeds
  ``max_edits`` drops its whole term range at once (the seek). A term's
  distance is the last cell of its own prefix's row. The fuzzy query,
  the keyword ``fuzzy`` and the term suggester all run this one DP
  (:func:`fuzzy_expand`); only the matching terms are ever taken out of
  the Arrow array.

Scale note (10^12-doc corpora): the dictionary is the SMALL side — it
lives in Arrow buffers per serving actor and is already range-sharded
by the term sort. Prefix-bounded scans are sublinear whenever the
pattern has a literal head; a leading-wildcard pattern degrades to one
vectorized pass over the vocabulary (exactly Lucene's documented
behavior and warning for leading wildcards).
"""

from __future__ import annotations

import re
from functools import cached_property

import numpy as np
import pyarrow as pa

_WILDCARD_SPECIALS = "*?"
# regex metacharacters that end a literal prefix
_REGEX_META = set(".^$*+?{}[]()|\\")


def wildcard_to_regex(pattern: str) -> str:
    """Lucene WildcardQuery pattern → anchored RE2 regex.

    ``*`` matches any run (including empty), ``?`` exactly one char;
    everything else is literal (Lucene's ``\\`` escape is honored).
    """
    out = []
    i, n = 0, len(pattern)
    while i < n:
        c = pattern[i]
        if c == "*":
            out.append(".*")
        elif c == "?":
            out.append(".")
        elif c == "\\" and i + 1 < n:
            out.append(re.escape(pattern[i + 1]))
            i += 1
        else:
            out.append(re.escape(c))
        i += 1
    return "^(?:" + "".join(out) + ")$"


def wildcard_prefix(pattern: str) -> str:
    """Literal head of a wildcard pattern (scan lower bound)."""
    out = []
    i, n = 0, len(pattern)
    while i < n:
        c = pattern[i]
        if c in _WILDCARD_SPECIALS:
            break
        if c == "\\" and i + 1 < n:
            out.append(pattern[i + 1])
            i += 2
            continue
        out.append(c)
        i += 1
    return "".join(out)


def regexp_prefix(pattern: str) -> str:
    """Literal head of a regex usable as a dictionary scan bound.

    Conservative: only leading plain characters count, and any top-level
    alternation (``|``) disables the prefix entirely (the other branch
    may start differently). A wrong-but-safe empty prefix just means a
    full-vocabulary vectorized scan.
    """
    if "|" in pattern:
        return ""
    out = []
    for i, c in enumerate(pattern):
        if c in _REGEX_META:
            # a quantifier after the first literal makes IT optional too
            if c in "*?{" and out:
                out.pop()
            break
        out.append(c)
    return "".join(out)


def auto_fuzziness(term: str) -> int:
    """Lucene/OpenSearch ``fuzziness=AUTO``: 0 edits below 3 chars,
    1 for 3-5, 2 for 6+ (AUTO:3,6)."""
    n = len(term)
    if n < 3:
        return 0
    if n < 6:
        return 1
    return 2





def _code_units(terms: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(code units, offsets) of a string array, read off its Arrow
    buffers: the UTF-8 bytes themselves when every term is ASCII, else
    the code points, decoded here in one vectorized pass, so that edit
    distances count characters either way (as Lucene and DuckDB's
    ``levenshtein`` do)."""
    n = len(terms)
    bufs = terms.buffers()
    odt = np.int64 if pa.types.is_large_string(terms.type) else np.int32
    off = np.frombuffer(bufs[1], dtype=odt)[terms.offset : terms.offset + n + 1]
    data = (np.frombuffer(bufs[2], dtype=np.uint8)[off[0] : off[-1]]
            if bufs[2] is not None else np.empty(0, dtype=np.uint8))
    off = off - off[0]
    if not (data >= 0x80).any():
        return data, off
    lead = (data & 0xC0) != 0x80  # one lead byte per character
    at = np.flatnonzero(lead)
    b0 = data[at].astype(np.int32)
    width = 1 + (b0 >= 0xC0) + (b0 >= 0xE0) + (b0 >= 0xF0)
    cp = np.where(width == 1, b0, b0 & (0x7F >> width))
    for k in (1, 2, 3):
        sel = np.flatnonzero(width > k)
        cp[sel] = (cp[sel] << 6) | (data[at[sel] + k] & 0x3F)
    return cp, np.concatenate(([0], np.cumsum(lead, dtype=odt)))[off]


class TermTrie:
    """The implicit trie of a term-sorted Arrow string array: its code
    units and offsets, and each term's common-prefix length with the
    term before it, as the positions sorted by that length (stable) and
    the offsets of each length's run. A prefix's terms are a contiguous
    range; its first term opens its first child (or, as long as the
    prefix, is the prefix itself), and each other child starts at a
    position whose common-prefix length equals the prefix's length.
    Built in O(total code units), without an (n × max length) char
    matrix."""

    def __init__(self, terms: pa.Array):
        self.codes, self.off = _code_units(terms)
        n = len(terms)
        lens = np.diff(self.off)
        # common-prefix length with the previous term, one column at a
        # time over the pairs still equal
        lcp = np.zeros(n, dtype=np.int64)
        pair = np.arange(1, n)
        k = 0
        while pair.size:
            pair = pair[(lens[pair] > k) & (lens[pair - 1] > k)]
            pair = pair[self.codes[self.off[pair] + k] == self.codes[self.off[pair - 1] + k]]
            lcp[pair] = k + 1
            k += 1
        self.depth = int(lens.max()) if n else 0
        self.starts = np.argsort(lcp, kind="stable").astype(np.int32)
        self.level = np.concatenate(([0], np.cumsum(np.bincount(lcp, minlength=self.depth + 1))))


def fuzzy_walk(trie: TermTrie, query: str, max_edits: int,
               transpositions: bool = False, lo: int = 0,
               hi: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Positions (ascending) and edit distances of the terms in
    ``[lo, hi)`` within ``max_edits`` of ``query``: the level-by-level
    trie walk of the module docstring. ``transpositions=True`` adds the
    OSA (restricted Damerau) adjacent swap, reading the grandparent row
    and the parent's char. The row minimum never decreases along a path
    (an OSA swap cell is never below its parent row's cell), so a pruned
    prefix can hold no match."""
    hi = trie.off.size - 1 if hi is None else hi
    if hi <= lo:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32)
    q = np.fromiter(map(ord, query), dtype=np.int32, count=len(query))
    m = q.size
    cols = np.arange(m + 1, dtype=np.int32)
    node_lo, node_hi = np.array([lo]), np.array([hi])
    row = cols[None, :]
    up = row  # the rows of the nodes' parents (OSA only)
    found_pos, found_dist = [], []
    for d in range(trie.depth + 1):
        lens = trie.off[node_lo + 1] - trie.off[node_lo]
        # a term ends at the first position of its own prefix's run
        ends = lens == d
        if ends.any():
            dist = row[ends, m]
            ok = dist <= max_edits
            found_pos.append(node_lo[ends][ok])
            found_dist.append(dist[ok])
        # children: a node's first term opens one unless it ended here;
        # every other starts where the common-prefix length is d
        s = trie.starts[trie.level[d] : trie.level[d + 1]]
        a, b = np.searchsorted(s, node_lo, "right"), np.searchsorted(s, node_hi)
        cnt = b - a
        parent = np.repeat(np.arange(cnt.size), cnt)
        idx = np.repeat(a - (np.cumsum(cnt) - cnt), cnt) + np.arange(int(cnt.sum()))
        first = np.flatnonzero(~ends)
        parent = np.concatenate((first, parent))
        child_lo = np.concatenate((node_lo[first], s[idx]))
        if child_lo.size == 0:
            break
        # a child's range ends at its next sibling, or with its parent's
        nxt = np.concatenate((a[first], idx + 1))
        child_hi = node_hi[parent]
        if s.size:
            child_hi = np.where(nxt < b[parent], s[np.minimum(nxt, s.size - 1)], child_hi)
        char = trie.codes[trie.off[child_lo] + d]
        prow = row[parent]
        t = np.empty((child_lo.size, m + 1), dtype=np.int32)
        t[:, 0] = d + 1
        np.minimum(prow[:, 1:] + 1, prow[:, :-1] + (char[:, None] != q[None, :]), out=t[:, 1:])
        if transpositions and d >= 1 and m >= 2:
            pchar = trie.codes[trie.off[child_lo] + d - 1]
            swap = (char[:, None] == q[None, :-1]) & (pchar[:, None] == q[None, 1:])
            np.minimum(t[:, 2:], np.where(swap, up[parent][:, :-2] + 1, t[:, 2:]),
                       out=t[:, 2:])
        # the insertion chain along the query: a running minimum
        cur = np.minimum.accumulate(t - cols, axis=1) + cols
        keep = cur.min(axis=1) <= max_edits
        up, row = prow[keep], cur[keep]
        node_lo, node_hi = child_lo[keep], child_hi[keep]
        if node_lo.size == 0:
            break
    pos = np.concatenate(found_pos) if found_pos else np.empty(0, dtype=np.int64)
    dist = np.concatenate(found_dist) if found_dist else np.empty(0, dtype=np.int32)
    order = np.argsort(pos)
    return pos[order], dist[order]


class TermSlice:
    """A term-sorted Arrow string array, its doc freqs (None where there
    are none) and, built on first use and kept with it, its
    :class:`TermTrie`."""

    def __init__(self, terms: pa.Array, df: np.ndarray | None = None):
        self.terms = terms
        self.df = df

    @cached_property
    def trie(self) -> TermTrie:
        return TermTrie(self.terms)


def fuzzy_expand(ranges, query: str, max_edits: int, transpositions: bool = False
                 ) -> tuple[pa.Array, np.ndarray, np.ndarray | None]:
    """Every term within ``max_edits`` of ``query`` over ``ranges``
    — ``(TermSlice, lo, hi)`` in global term order — as (terms, edit
    distances, doc freqs or None where the slices have none), in term
    order. The fuzzy query, the keyword ``fuzzy`` and the term
    suggester all expand here."""
    terms, dists, dfs = [], [], []
    for sl, lo, hi in ranges:
        pos, dist = fuzzy_walk(sl.trie, query, max_edits, transpositions, lo, hi)
        if pos.size:
            terms.append(sl.terms.take(pa.array(pos)))
            dists.append(dist)
            if sl.df is not None:
                dfs.append(sl.df[pos])
    if not terms:
        return pa.array([], pa.string()), np.empty(0, dtype=np.int32), np.empty(0, np.int64)
    return (pa.concat_arrays(terms), np.concatenate(dists),
            np.concatenate(dfs) if dfs else None)


def _rank_matches(dist: np.ndarray, max_expansions: int | None) -> np.ndarray:
    """Indices of ``dist`` closest-first, ties in input (term) order, cut
    at ``max_expansions`` (Lucene FuzzyQuery keeps the ``max_expansions``
    highest-boost = smallest-distance expansions)."""
    order = np.argsort(dist, kind="stable")
    return order if max_expansions is None else order[:max_expansions]
