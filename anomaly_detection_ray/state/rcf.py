"""Streaming Random Cut Forest — the scoring core of Layer B.

A from-scratch vectorized implementation of the random-cut-forest sketch
of Guha, Mishra, Roy & Schrijvers, "Robust random cut forest based
anomaly detection on streams" (ICML 2016) — the published algorithm
behind the ThresholdedRandomCutForest the reference uses
(``ad/ml/ADColdStart.java:181-226`` builds it with 50 trees / 256
samples / outputAfter max(shingle,32)). NOT a port of the AWS
random-cut-forest library.

Design (round-2 rework for throughput — the round-1 pointer-tree
implementation scored ~630 pts/s/model, all of it Python node
chasing):

- **Time-decayed weighted reservoir** (wires ``DetectorConfig.time_decay
  = 1/recencyEmphasis``, ``TimeSeriesSettings.java:195-220``): one
  shared sample across trees, kept by Efraimidis–Spirakis keys with
  exponential time weights — keep the ``sample_size`` smallest
  ``log_v(t) = log(E_t) − λ·t`` (E_t ~ Exp(1)); new points beat old
  ones with probability growing in age, so the steady-state sample has
  mean age ≈ 1/λ and most stream points are never inserted at all.
- **Epochal forest builds**: instead of incremental insert/delete, the
  whole forest is rebuilt from the reservoir at deterministic stream
  positions (doubling up to ``sample_size``, then every
  ``rebuild_every``). The build is level-synchronous and vectorized
  ACROSS ALL TREES at once (segmented ``reduceat`` bboxes, one
  counter-hash uniform per node for the extent-proportional cut) —
  ~1-2 ms for 30 trees × 256 points.
- **Batch scoring against the frozen forest**, vectorized across
  trees × points: a root-to-leaf sweep accumulating the expected
  collusive displacement — at each node the probability that a fresh
  random cut of the point-extended bbox separates the point
  (sum of outside-distances / extended extent) times the subtree mass
  it would displace; the residual (never separated) contributes 1.
  Normalized by ``log2(sample+1)`` as before.
- **Determinism without RNG state**: every random draw (reservoir
  exponential, cut position) is a counter-based splitmix64 hash of
  (seed, stream position | epoch, node id), so scores are independent
  of call batching — ``score_and_update`` point-by-point and
  ``score_then_observe_batch`` over the same stream are bit-identical.
- **Restore without a rebuild**: a pickled forest keeps its snapshot and
  its topology (which nodes split, each split's dim and cut, ~9 bytes a
  split); unpickling routes the snapshot through the stored cuts and
  recomputes boxes, counts and extents bottom-up — the exact arrays the
  build made, ~4× cheaper than re-running it. ``_build_from`` is the only
  builder; it runs at schedule positions and for pre-topology pickles.

Scores are scored-then-observed (the point never sees itself), unlike
the round-1 insert-then-CoDisp order; the expectation form replaces the
max-over-ancestors CoDisp. Same quality floors hold
(``tests/test_detector.py``: precision ≥ 0.4 / recall ≥ 0.7, mirroring
``SingleStreamModelPerfIT.java:47-53``).
"""

from __future__ import annotations

import heapq
import math

import numpy as np

_U64 = np.uint64
_MASK53 = np.float64(1.0 / (1 << 53))


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Counter-based uint64 mix (splitmix64 finalizer; public domain
    algorithm, Steele et al. 2014). Vectorized, wraps mod 2^64."""
    with np.errstate(over="ignore"):
        x = x + _U64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)
        return x ^ (x >> _U64(31))


def _uniform01(x: np.ndarray) -> np.ndarray:
    """uint64 counters → uniforms in (0, 1] (never 0, so log() is safe)."""
    bits = _splitmix64(np.asarray(x, dtype=_U64)) >> _U64(11)
    return (bits.astype(np.float64) + 1.0) * _MASK53


_C_EPOCH = _U64(0x9E3779B97F4A7C15)
_C_NODE = _U64(0xC2B2AE3D27D4EB4F)
_C_RESERVOIR = _U64(0xA0761D6478BD642F)


class RCForest:
    """Shared-reservoir random cut forest with epochal vectorized builds.

    ``time_decay`` = λ (1/recencyEmphasis); 0 gives a plain uniform
    reservoir over the whole stream. ``score_and_update`` keeps the
    round-1 per-point API; ``score_then_observe_batch`` is the fast
    path (identical outputs by construction).
    """

    MAX_DEPTH = 96  # build depth cap; random binary trees on 256 pts sit ~4.3·log2(n)

    def __init__(
        self,
        num_trees: int = 30,
        sample_size: int = 256,
        seed: int = 0,
        time_decay: float = 1.0 / 2560.0,
        rebuild_every: int | None = None,
    ):
        self.num_trees = int(num_trees)
        self.sample_size = int(sample_size)
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.time_decay = float(time_decay)
        # epoch length: staleness ≤ 2·sample between rebuilds is negligible
        # against the 1/time_decay reservoir turnover, and build cost
        # amortizes to ~build/(2·sample) per point
        self.rebuild_every = int(rebuild_every or max(2 * sample_size, 64))
        self._tree_seeds = _splitmix64(
            _U64(self.seed) + np.arange(1, self.num_trees + 1, dtype=_U64) * _C_NODE
        )
        self._n_seen = 0            # stream position (reservoir counter)
        self._next_rebuild = 2
        self._epoch = 0
        # reservoir: key → (log_v, point); heap of (-log_v, key) for eviction
        self._res: dict[int, tuple[float, np.ndarray]] = {}
        self._heap: list[tuple[float, int]] = []
        # built forest (pickled as its topology — re-derived on unpickle)
        self._snapshot: np.ndarray | None = None   # (K, D) points at last build
        self._built = False
        self._roots = None
        self._lo = self._hi = self._cut = self._ext_sum = None
        self._left = self._right = self._dim = self._count = None
        self._built_size = 0

    # ------------------------------------------------------------------
    # reservoir
    # ------------------------------------------------------------------

    def _log_v(self, t: int) -> float:
        # pure-int splitmix64 (same constants as the vectorized path is
        # NOT required here — this counter stream is only ever scalar)
        x = (self.seed + t * 0xA0761D6478BD642F) & 0xFFFFFFFFFFFFFFFF
        x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 31
        u = ((x >> 11) + 1) * (1.0 / (1 << 53))  # (0, 1]
        e = -math.log(u)  # Exp(1)
        return math.log(e) - self.time_decay * t

    def observe(self, point: np.ndarray) -> None:
        """Feed one point to the reservoir; rebuilds the forest when the
        stream position crosses the deterministic schedule."""
        t = self._n_seen
        self._n_seen = t + 1
        lv = self._log_v(t)
        if len(self._res) < self.sample_size:
            self._res[t] = (lv, np.asarray(point, dtype=np.float64).copy())
            heapq.heappush(self._heap, (-lv, t))
        else:
            neg_top, top_key = self._heap[0]
            if lv < -neg_top:  # newcomer beats the weakest member
                heapq.heapreplace(self._heap, (-lv, t))
                del self._res[top_key]
                self._res[t] = (lv, np.asarray(point, dtype=np.float64).copy())
        if self._n_seen >= self._next_rebuild:
            self._rebuild()

    def _advance_schedule(self) -> None:
        if self._next_rebuild < self.sample_size:
            self._next_rebuild = min(self._next_rebuild * 2, self.sample_size)
        else:
            self._next_rebuild += self.rebuild_every

    # ------------------------------------------------------------------
    # epochal build (level-synchronous, vectorized across trees)
    # ------------------------------------------------------------------

    def _rebuild(self) -> None:
        self._epoch += 1
        keys = sorted(self._res)
        snap = np.stack([self._res[k][1] for k in keys]) if keys else None
        self._snapshot = snap
        self._advance_schedule()
        self._build_from(snap, self._epoch)

    def _build_from(self, snap: np.ndarray | None, epoch: int) -> None:
        if snap is None or len(snap) == 0:
            self._built = False
            self._roots = None
            return
        K, D = snap.shape
        T = self.num_trees
        cap = T * (2 * K)
        lo = np.empty((cap, D))
        hi = np.empty((cap, D))
        cut = np.zeros(cap)
        dim = np.zeros(cap, dtype=np.int64)
        left = np.full(cap, -1, dtype=np.int64)
        right = np.full(cap, -1, dtype=np.int64)
        count = np.zeros(cap, dtype=np.int64)

        tree_of_slot = np.repeat(np.arange(T, dtype=np.int64), K)
        pt_of_slot = np.tile(np.arange(K, dtype=np.int64), T)
        order = np.arange(T * K, dtype=np.int64)        # slots grouped by tree
        grp_starts = np.arange(T, dtype=np.int64) * K    # offsets into `order`
        grp_sizes = np.full(T, K, dtype=np.int64)
        grp_node = np.arange(T, dtype=np.int64)          # global node ids
        grp_tree = np.arange(T, dtype=np.int64)
        self._roots = np.arange(T, dtype=np.int64)
        next_node = T
        epoch_salt = _U64((epoch * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
        depth = 0

        while grp_starts.size:
            pts_ord = snap[pt_of_slot[order]]            # (A, D)
            glo = np.minimum.reduceat(pts_ord, grp_starts, axis=0)
            ghi = np.maximum.reduceat(pts_ord, grp_starts, axis=0)
            ext = ghi - glo
            tot = ext.sum(axis=1)
            nid = grp_node
            lo[nid] = glo
            hi[nid] = ghi
            count[nid] = grp_sizes
            split = (tot > 0) & (grp_sizes > 1) & (depth < self.MAX_DEPTH)
            if not split.any():
                break
            s_nid = nid[split]
            with np.errstate(over="ignore"):
                ctr = self._tree_seeds[grp_tree[split]] + epoch_salt + _C_NODE * s_nid.astype(_U64)
            u = _uniform01(ctr)
            r = u * tot[split]
            ext_s = ext[split]
            cum = np.cumsum(ext_s, axis=1)
            dim_g = (cum > r[:, None]).argmax(axis=1)
            rows = np.arange(dim_g.size)
            prev = cum[rows, dim_g] - ext_s[rows, dim_g]
            cut_g = glo[split][rows, dim_g] + (r - prev)
            # keep the cut strictly inside [lo, hi) so both children are
            # non-empty even at float boundaries
            hi_d = ghi[split][rows, dim_g]
            lo_d = glo[split][rows, dim_g]
            cut_g = np.minimum(np.maximum(cut_g, lo_d), np.nextafter(hi_d, lo_d))
            dim[s_nid] = dim_g
            cut[s_nid] = cut_g
            n_split = int(split.sum())
            lids = next_node + 2 * np.arange(n_split, dtype=np.int64)
            rids = lids + 1
            next_node += 2 * n_split
            left[s_nid] = lids
            right[s_nid] = rids
            # route points of splitting groups to their child — a segmented
            # stable partition computed with cumsums (no sort): slots of a
            # group are contiguous in `order`, lefts keep relative order at
            # the front of the group's block, rights fill the back
            G = grp_starts.size
            gidx = np.repeat(np.arange(G, dtype=np.int64), grp_sizes)
            active = split[gidx]
            slots = order[active]
            ga = gidx[active]
            asizes = grp_sizes[split]
            dim_full = np.zeros(G, dtype=np.int64)
            cut_full = np.full(G, np.inf)
            dim_full[split] = dim_g
            cut_full[split] = cut_g
            pv = snap[pt_of_slot[slots], dim_full[ga]]
            is_left = pv <= cut_full[ga]
            starts = np.concatenate(([0], np.cumsum(asizes)[:-1]))
            l64 = is_left.astype(np.int64)
            cl = np.cumsum(l64)
            before_grp = np.repeat(cl[starts] - l64[starts], asizes)
            nleft_incl = cl - before_grp
            nleft_before = nleft_incl - l64
            nlt = np.add.reduceat(l64, starts)           # lefts per group
            j = np.arange(slots.size, dtype=np.int64) - np.repeat(starts, asizes)
            pos_within = np.where(is_left, nleft_before, np.repeat(nlt, asizes) + (j - nleft_before))
            new_order = np.empty(slots.size, dtype=np.int64)
            new_order[np.repeat(starts, asizes) + pos_within] = slots
            order = new_order
            n2 = asizes.size
            grp_starts = np.empty(2 * n2, dtype=np.int64)
            grp_starts[0::2] = starts
            grp_starts[1::2] = starts + nlt
            grp_sizes = np.empty(2 * n2, dtype=np.int64)
            grp_sizes[0::2] = nlt
            grp_sizes[1::2] = asizes - nlt
            grp_node = np.empty(2 * n2, dtype=np.int64)
            grp_node[0::2] = lids
            grp_node[1::2] = rids
            grp_tree = np.repeat(grp_tree[split], 2)
            depth += 1

        self._lo = lo[:next_node]
        self._hi = hi[:next_node]
        self._ext_sum = (self._hi - self._lo).sum(axis=1)  # base bbox extent per node
        self._cut = cut[:next_node]
        self._dim = dim[:next_node]
        self._left = left[:next_node]
        self._right = right[:next_node]
        self._count = count[:next_node]
        self._built = True
        self._built_size = K

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------

    def score_batch(self, pts: np.ndarray, detailed: bool = False):
        """Score points against the FROZEN forest (pure — no state change).

        → (P,) scores; with ``detailed=True`` → (scores, attribution
        (P, D) summing to the score, expected (P, D) = mass-weighted mean
        of the leaf points each traversal lands on)."""
        pts = np.asarray(pts, dtype=np.float64)
        P = len(pts)
        if not self._built or self._built_size < 2 or P == 0:
            z = np.zeros(P)
            if detailed:
                return z, np.zeros_like(pts), pts.copy()
            return z
        T = self.num_trees
        A = T * P
        cur = np.repeat(self._roots, P)
        pidx = np.tile(np.arange(P, dtype=np.int64), T)
        idx = np.arange(A, dtype=np.int64)
        score = np.zeros(A)
        keep = np.ones(A)
        if detailed:
            attr = np.zeros((A, pts.shape[1]))
            leafpt = np.zeros((A, pts.shape[1]))
        while idx.size:
            n = cur[idx]
            p = pts[pidx[idx]]
            lo = self._lo[n]
            hi = self._hi[n]
            below = np.maximum(lo - p, 0.0)
            above = np.maximum(p - hi, 0.0)
            out_d = below + above
            out_sum = out_d.sum(axis=1)
            # extended extent = base extent + outside distance, dim by dim
            rng_ext = self._ext_sum[n] + out_sum
            q = np.divide(out_sum, rng_ext, out=np.zeros_like(out_sum), where=rng_ext > 0)
            k = keep[idx]
            w = k * q * self._count[n]
            score[idx] += w
            if detailed:
                # per-dimension share of this node's contribution
                share = np.divide(out_d, out_sum[:, None], out=np.zeros_like(out_d), where=out_sum[:, None] > 0)
                attr[idx] += w[:, None] * share
            keep[idx] = k * (1.0 - q)
            lf = self._left[n] < 0
            if lf.any():
                li = idx[lf]
                score[li] += keep[li]  # residual: point ~ duplicate, displacement 1
                if detailed:
                    leafpt[li] = self._lo[n[lf]]
                    # residual attribution spreads evenly (no offending dim)
                    attr[li] += keep[li][:, None] / pts.shape[1]
            go = ~lf
            ni = idx[go]
            nn = n[go]
            pv = pts[pidx[ni], self._dim[nn]]
            cur[ni] = np.where(pv <= self._cut[nn], self._left[nn], self._right[nn])
            idx = ni
        norm = np.log2(self._built_size + 1)
        # explicit sequential tree reduction: numpy's mean(axis=0) blocks
        # differently with P, which would make batch size leak 1-ulp
        # differences into otherwise bit-identical streams
        tot = np.zeros(P)
        for t in range(T):
            tot += score[t * P : (t + 1) * P]
        out = tot / T / norm
        if detailed:
            a3 = attr.reshape(T, P, -1)
            l3 = leafpt.reshape(T, P, -1)
            asum = np.zeros_like(a3[0])
            lsum = np.zeros_like(l3[0])
            for t in range(T):
                asum += a3[t]
                lsum += l3[t]
            return out, asum / T / norm, lsum / T
        return out

    def impute_batch(self, pts: np.ndarray, missing: np.ndarray) -> np.ndarray:
        """Conditional expectation for MISSING dimensions: walk each tree
        using only the known dims (at a node that cuts on a missing dim,
        descend into the heavier-mass child), read the leaf's values for
        the missing dims, average across trees. This is the public
        RCF-imputation recipe the caster-style forecaster builds on
        (forecast = impute the next shingle position). Known dims pass
        through unchanged. Pure — no state change."""
        pts = np.asarray(pts, dtype=np.float64)
        missing = np.asarray(missing, dtype=bool)
        out = pts.copy()
        if not self._built or self._built_size < 1 or len(pts) == 0:
            out[missing] = 0.0
            return out
        T = self.num_trees
        P = len(pts)
        cur = np.repeat(self._roots, P)
        pidx = np.tile(np.arange(P, dtype=np.int64), T)
        idx = np.arange(T * P, dtype=np.int64)
        leafvals = np.zeros((T * P, pts.shape[1]))
        while idx.size:
            n = cur[idx]
            lf = self._left[n] < 0
            if lf.any():
                li = idx[lf]
                leafvals[li] = self._lo[n[lf]]
            go = ~lf
            ni = idx[go]
            nn = n[go]
            d = self._dim[nn]
            pv = pts[pidx[ni], d]
            miss = missing[pidx[ni], d]
            left_heavier = self._count[self._left[nn]] >= self._count[self._right[nn]]
            go_left = np.where(miss, left_heavier, pv <= self._cut[nn])
            cur[ni] = np.where(go_left, self._left[nn], self._right[nn])
            idx = ni
        l3 = leafvals.reshape(T, P, -1)
        acc = np.zeros_like(l3[0])
        for t in range(T):
            acc += l3[t]
        est = acc / T
        out[missing] = est[missing]
        return out

    def score_then_observe_batch(self, pts: np.ndarray, detailed: bool = False):
        """The fast streaming path: score each point against the forest as
        of the last rebuild ≤ its stream position, then feed it to the
        reservoir. Chunk boundaries are the absolute rebuild schedule, so
        the result is bit-identical to per-point ``score_and_update``
        calls (and therefore to any split of the stream across runs)."""
        pts = np.asarray(pts, dtype=np.float64)
        P = len(pts)
        out = np.empty(P)
        if detailed:
            D = pts.shape[1]
            attr = np.empty((P, D))
            exp = np.empty((P, D))
        i = 0
        while i < P:
            take = min(P - i, self._next_rebuild - self._n_seen)
            chunk = pts[i : i + take]
            if detailed:
                s, a, e = self.score_batch(chunk, detailed=True)
                out[i : i + take] = s
                attr[i : i + take] = a
                exp[i : i + take] = e
            else:
                out[i : i + take] = self.score_batch(chunk)
            for p in chunk:
                self.observe(p)
            i += take
        if detailed:
            return out, attr, exp
        return out

    def score_and_update(self, point) -> float:
        """Round-1 per-point API: score against the frozen forest, then
        observe. (The point never scores against itself.)"""
        pt = np.asarray(point, dtype=np.float64)
        s = float(self.score_batch(pt[None, :])[0])
        self.observe(pt)
        return s

    # ------------------------------------------------------------------
    # serde — pickle the reservoir, the snapshot and the forest TOPOLOGY
    # (which nodes split, each split's dim and cut); boxes, counts and
    # extents are derived from the snapshot on restore, never rebuilt
    # ------------------------------------------------------------------

    def __getstate__(self):
        state = self.__dict__.copy()
        for k in ("_roots", "_lo", "_hi", "_cut", "_dim", "_left", "_right", "_count", "_ext_sum"):
            state[k] = None
        state["_built"] = False
        state["_topo"] = None
        if self._built:
            internal = self._left >= 0
            dims = self._dim[internal].astype(np.min_scalar_type(self._lo.shape[1] - 1))
            state["_topo"] = (np.packbits(internal), dims, self._cut[internal], len(internal))
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        topo = self.__dict__.pop("_topo", None)
        if topo is not None:
            self._restore_from(self._snapshot, topo)
        elif self._snapshot is not None:
            # a format-1 pickle carries no topology: same snapshot, same
            # epoch → the same cuts
            self._build_from(self._snapshot, self._epoch)

    def _restore_from(self, snap: np.ndarray, topo: tuple) -> None:
        """Re-derive a built forest from its snapshot and topology,
        bit-identical to the ``_build_from`` that produced it.

        Node ids are assigned level by level, so the k-th internal node
        in id order has children ``T + 2k`` and ``T + 2k + 1``, and each
        level is a contiguous id range. Routing every snapshot point
        with the build's own rule (``pv <= cut``) lands it in the leaf
        the build put it in; a leaf's box is the min/max of its points
        (reduced in the build's order), a parent's box the min/max of
        its children's. min and max are exact, so the boxes equal the
        build's."""
        bits, dims, cuts, n_nodes = topo
        K, D = snap.shape
        T = self.num_trees
        n_nodes = int(n_nodes)
        internal = np.unpackbits(bits, count=n_nodes).view(bool)
        inodes = np.flatnonzero(internal)
        n_int = inodes.size
        if (n_nodes != T + 2 * n_int or len(dims) != n_int or len(cuts) != n_int
                or (n_int and int(dims.max()) >= D)):
            raise ValueError(
                f"corrupt forest topology: {n_nodes} nodes, {n_int} internal, "
                f"{len(dims)} dims, {len(cuts)} cuts for {T} trees of {D} dims"
            )
        left = np.full(n_nodes, -1, dtype=np.int64)
        left[inodes] = T + 2 * np.arange(n_int, dtype=np.int64)
        right = np.where(internal, left + 1, -1)
        dim = np.zeros(n_nodes, dtype=np.int64)
        dim[inodes] = dims
        cut = np.zeros(n_nodes)
        cut[inodes] = cuts

        # route each (tree, point) slot to its leaf; slots are tree-major,
        # points ascending within a tree — the build's stable order
        flat = snap.ravel()
        slot = np.arange(T * K, dtype=np.int64)
        pt_all = np.tile(np.arange(K, dtype=np.int64), T)
        pt = pt_all
        node = np.repeat(np.arange(T, dtype=np.int64), K)
        leaf = np.empty(T * K, dtype=np.int64)
        while slot.size:
            at_leaf = ~internal[node]
            if at_leaf.any():
                leaf[slot[at_leaf]] = node[at_leaf]
                go = ~at_leaf
                slot, pt, node = slot[go], pt[go], node[go]
            right_of = flat[pt * D + dim[node]] > cut[node]
            node = left[node] + right_of

        count = np.bincount(leaf, minlength=n_nodes)
        if (count[~internal] == 0).any():
            raise ValueError("corrupt forest topology: a leaf holds no snapshot point")
        lo = np.empty((n_nodes, D))
        hi = np.empty((n_nodes, D))
        # most leaves hold one point: scatter those, reduce the rest
        single = count[leaf] == 1
        lo[leaf[single]] = hi[leaf[single]] = snap[pt_all[single]]
        multi = np.flatnonzero(~single)
        if multi.size:
            m_leaf = leaf[multi]
            order = np.argsort(m_leaf, kind="stable")
            m_leaf = m_leaf[order]
            starts = np.flatnonzero(np.r_[True, m_leaf[1:] != m_leaf[:-1]])
            pts = snap[pt_all[multi[order]]]
            lo[m_leaf[starts]] = np.minimum.reduceat(pts, starts, axis=0)
            hi[m_leaf[starts]] = np.maximum.reduceat(pts, starts, axis=0)

        # bottom-up, one level at a time: the internal nodes of level
        # [a, b) are ranks k0..k1 of the internal order, and their
        # children are the next level's ids T+2·k0 .. T+2·k1
        levels = []
        a, b, k0 = 0, T, 0
        while a < b:
            k1 = k0 + int(np.count_nonzero(internal[a:b]))
            levels.append((k0, k1))
            a, b, k0 = b, T + 2 * k1, k1
        for k0, k1 in reversed(levels):
            if k0 == k1:
                continue
            p = inodes[k0:k1]
            c0, c1 = T + 2 * k0, T + 2 * k1
            lo[p] = np.minimum(lo[c0:c1:2], lo[c0 + 1:c1:2])
            hi[p] = np.maximum(hi[c0:c1:2], hi[c0 + 1:c1:2])
            count[p] = count[c0:c1:2] + count[c0 + 1:c1:2]

        self._roots = np.arange(T, dtype=np.int64)
        self._lo = lo
        self._hi = hi
        self._ext_sum = (hi - lo).sum(axis=1)
        self._cut = cut
        self._dim = dim
        self._left = left
        self._right = right
        self._count = count
        self._built = True
        self._built_size = K
