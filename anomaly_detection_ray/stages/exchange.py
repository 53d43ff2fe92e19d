"""The one exchange of both layers, on raw Ray tasks: index writes call
:func:`exchange`, Layer B's per-entity stages :func:`exchange_by_key`
(each model has one owner, like the reference's ``HashRing.java:61-199``)
and its rankings :func:`top_k_by_key`; every grouping stage outside both
layers (dedup, corpus cleaning, ANN, corpus term counts) runs
:func:`group_by_key` on its real key.
Ray Data's ``groupby().map_groups`` sort shuffle cost ~0.57 of a ~2.4
CPU-s detect tick on 1 vCPU; its ``repartition(keys=…)`` starts actors.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# Layer B part count: the smallest multiple of the session's CPUs whose
# parts hold ≤ PART_BYTES of map-side rows. Whole waves keep a tick
# parallel and leave no lone last part (`bench.py --hc`, 10k entities at
# 4 CPUs: 35 s in 4 parts, 48 s in 5); the bytes bound caps one reducer's
# table (8 MiB ≈ 2,500 entities × 40 windows: ~390 MB peak per worker at
# 1 CPU; 480 MB with 32 MiB, measured when reducers ran on pandas). Tests
# force P > 1 by monkeypatching it.
PART_BYTES = 8 << 20


def split_by_key(tbl: pa.Table, key: np.ndarray, n_parts: int) -> list[pa.Table]:
    """``tbl``'s rows grouped by ``key`` (values in ``[0, n_parts)``) →
    one slice per key value, rows in their input order within a slice."""
    order = np.argsort(key, kind="stable")
    sorted_tbl = tbl.take(pa.array(order))
    bounds = np.searchsorted(key[order], np.arange(n_parts + 1))
    return [sorted_tbl.slice(bounds[p], bounds[p + 1] - bounds[p]) for p in range(n_parts)]


def _only_piece(split, x, arg):
    return split(x, arg)[0]


def exchange(inputs, split, split_arg, n_parts: int, reduce, *reduce_args) -> list:
    """Explicit two-stage exchange on raw Ray tasks: one ``split(x,
    split_arg)`` task per input (an object ref or a path) returns
    ``n_parts`` pieces as separate object refs (``num_returns``, moved
    zero-copy through the object store); then one ``reduce(p,
    *reduce_args, *pieces_of_p)`` task per part. Splits are submitted as
    ``inputs`` yields, so a streaming Dataset's map stage and the split
    stage run without a barrier. Returns the reducers' result refs in
    part order."""
    import ray

    if n_parts > 1:
        split_task = ray.remote(num_returns=n_parts)(split).remote
    else:
        # num_returns=1 returns the one-element LIST as a single object;
        # the reducer needs the piece itself
        only = ray.remote(_only_piece)

        def split_task(x, arg):
            return [only.remote(split, x, arg)]

    pieces: list[list] = [[] for _ in range(n_parts)]
    for x in inputs:
        for p, r in enumerate(split_task(x, split_arg)):
            pieces[p].append(r)
    reduce_task = ray.remote(reduce)
    return [reduce_task.remote(p, *reduce_args, *pieces[p]) for p in range(n_parts)]


def split_by_keys(tbl: pa.Table, arg) -> list[pa.Table]:
    """``tbl`` → ``n_parts`` pieces by a deterministic 64-bit hash of each
    row's ``keys`` columns (cast to string, ``\\x1f``-joined); ``arg`` is
    ``(keys, n_parts)``."""
    from ..functions.hashing import hash_strings

    keys, n_parts = arg
    key = pc.cast(tbl[keys[0]], pa.string())
    for c in keys[1:]:
        key = pc.binary_join_element_wise(key, pc.cast(tbl[c], pa.string()), "\x1f")
    part = hash_strings(key.to_numpy(zero_copy_only=False)) % np.uint64(n_parts)
    return split_by_key(tbl, part.astype(np.int64), n_parts)


def _reduce_stage(p: int, stage, *pieces: pa.Table) -> pa.Table:
    """One part's pieces as ONE Arrow table → ``stage``, which returns a
    typed Arrow table, zero rows included, so every part's block has one
    schema."""
    return stage(pa.concat_tables(pieces))


def exchange_by_key(ds, keys, stage, empty) -> list:
    """Layer B's per-entity exchange: ``ds``'s blocks (the map side, run
    here) split by :func:`split_by_keys` into P parts (see
    ``PART_BYTES``), one ``stage(group)`` reducer task per part. Without
    rows it reduces ``empty()``, the typed zero-row map side. Returns the
    reducers' Arrow table refs."""
    import ray

    bundles = list(ds.iter_internal_ref_bundles())
    # zero-row map outputs can be column-less blocks: never a piece
    blocks = [ref for b in bundles for ref, meta in b.blocks if meta.num_rows != 0]
    cpus = max(1, int(ray.cluster_resources().get("CPU", 1)))
    n_parts = cpus * max(1, -(-sum(b.size_bytes() for b in bundles) // (cpus * PART_BYTES)))
    if not blocks:
        blocks, n_parts = [ray.put(empty())], 1
    return exchange(blocks, split_by_keys, (tuple(keys), n_parts), n_parts, _reduce_stage, stage)


def top_k_by_key(ds, keys, finalize, order, k: int, empty) -> pa.Table:
    """A per-group ranking on :func:`exchange_by_key`: each reducer turns
    its part into one row per group (``finalize``) and keeps its own first
    ``k`` rows in ``order`` (pyarrow sort keys: the ranking value, then
    the group keys ascending); the driver merges the P lists in the same
    order. Exact, because no group spans two parts (a terms aggregation
    ordered by a sub-aggregation, like ``_topAnomalies``)."""
    import ray

    def top(t: pa.Table) -> pa.Table:
        return t.take(pc.sort_indices(t, order)[:k])

    return top(pa.concat_tables(ray.get(exchange_by_key(ds, keys, lambda part: top(finalize(part)),
                                                        empty))))


def group_by_key(ds, keys, stage, schema: pa.Schema):
    """A grouping stage on :func:`exchange_by_key`, keyed on the REAL
    grouping key: ``stage`` runs once per part over all of the part's
    groups (no group spans two parts) and returns a typed Arrow table →
    the Dataset of those tables. ``schema`` is the map side's; it types
    an input without rows."""
    import ray.data as rd

    return rd.from_arrow_refs(exchange_by_key(ds, keys, stage, schema.empty_table))


def sum_blocks(ds, f) -> int:
    """Σ ``f(block)`` over ``ds``: one partial per block, summed in the
    driver (Ray Data's ``Dataset.sum`` is ``groupby(None)``, an
    all-to-all shuffle for one number)."""
    rows = ds.map_batches(lambda b: pa.table({"n": [int(f(b)) if b.num_rows else 0]}),
                          batch_format="pyarrow", batch_size=None, zero_copy_batch=True).take_all()
    return sum(r["n"] for r in rows)


def key_runs(*cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end offsets of the runs of equal rows in the sorted key
    columns ``cols`` — the groups of a reducer's sorted part."""
    n = cols[0].size
    new = np.zeros(n, bool)
    new[:1] = True
    for c in cols:
        new[1:] |= c[1:] != c[:-1]
    starts = np.flatnonzero(new)
    return starts, np.append(starts[1:], n)[: starts.size]
