"""The one exchange of both layers, on raw Ray tasks: index writes call
:func:`exchange`, Layer B's per-entity stages :func:`exchange_by_key`
(each model has one owner, like the reference's ``HashRing.java:61-199``)
and its rankings :func:`top_k_by_key`; every grouping stage outside both
layers (dedup, corpus cleaning, ANN, corpus term counts) runs
:func:`group_by_key` on its real key.
Ray Data's ``groupby().map_groups`` sort shuffle cost ~0.57 of a ~2.4
CPU-s detect tick on 1 vCPU; its ``repartition(keys=…)`` starts actors.
A detector tick reads its files in :func:`exchange_by_key`'s own split
tasks (:class:`ParquetFiles`), so it runs no Ray Data execution at all.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

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


def _reduce_stage(p: int, stage, *pieces: pa.Table):
    """One part's pieces as ONE Arrow table → ``stage``, which returns a
    typed Arrow table, zero rows included, so every part's block has one
    schema (or what a writing stage returns: its rows written)."""
    return stage(pa.concat_tables(pieces))


class ParquetFiles(NamedTuple):
    """A file source of :func:`exchange_by_key`: Parquet ``paths``, each
    read with pyarrow inside the split tasks, only ``columns`` (every
    column when None)."""

    paths: tuple[str, ...]
    columns: tuple[str, ...] | None = None


def row_group_bytes(paths) -> list[list[int]]:
    """Each file's row-group sizes (uncompressed bytes) from its footer."""
    out = []
    for path in paths:
        md = pq.read_metadata(path)
        out.append([md.row_group(i).total_byte_size for i in range(md.num_row_groups)])
    return out


def _file_ranges(files: ParquetFiles) -> tuple[list[tuple], int]:
    """``files`` → (ranges, bytes). A range is ``(path, row groups,
    columns)``: consecutive whole row groups of one file, at most
    Layer A's read-block bytes (``index.build._read_blocks``: 4 MiB, at
    most 6 blocks per CPU, the total spread evenly). Without any row
    group the first file gives one empty range, typed by its footer."""
    from ..index.build import _read_blocks

    if not files.paths:
        raise FileNotFoundError("no Parquet files to read")
    sizes = row_group_bytes(files.paths)
    n_bytes = sum(map(sum, sizes))
    cap = -(-n_bytes // _read_blocks(n_bytes))
    ranges = []
    for path, rg in zip(files.paths, sizes):
        start, held = 0, 0
        for i, b in enumerate(rg):
            if i > start and held + b > cap:
                ranges.append((path, tuple(range(start, i)), files.columns))
                start, held = i, 0
            held += b
        if rg:
            ranges.append((path, tuple(range(start, len(rg))), files.columns))
    if not ranges:
        ranges = [(files.paths[0], (), files.columns)]
    return ranges, n_bytes


def _map_split(x, arg) -> list[pa.Table]:
    """One split task: ``x`` (a block, or a file range read here with
    pyarrow) → ``fn(x)`` → :func:`split_by_keys`. ``arg`` is ``(fn,
    keys, n_parts)``."""
    fn, keys, n_parts = arg
    if isinstance(x, tuple):
        path, groups, columns = x
        x = pq.ParquetFile(path).read_row_groups(
            list(groups), columns=None if columns is None else list(columns), use_threads=False)
    return split_by_keys(fn(x), (keys, n_parts))


def exchange_by_key(source, fn, keys, stage, empty) -> list:
    """Layer B's per-entity exchange on raw Ray tasks, with no Ray Data
    execution for a file source. One split task per input piece maps it
    (``fn``: table → table, the map side) and splits the result by
    :func:`split_by_keys` into P parts (see ``PART_BYTES``); then one
    ``stage(part)`` reducer task per part.

    ``source`` is :class:`ParquetFiles` (a piece is a range of whole row
    groups, :func:`_file_ranges`; the bytes sizing P come from the
    footers) or a Dataset (a piece is each block with rows, as it is;
    ``empty()``, its zero-row table, is the one piece when no block has
    rows). Returns the reducers' result refs."""
    import ray

    if isinstance(source, ParquetFiles):
        inputs, n_bytes = _file_ranges(source)
    else:
        bundles = list(source.iter_internal_ref_bundles())
        # zero-row blocks can be column-less: never a piece
        inputs = [ref for b in bundles for ref, meta in b.blocks if meta.num_rows != 0]
        n_bytes = sum(b.size_bytes() for b in bundles)
        if not inputs:
            inputs, n_bytes = [ray.put(empty())], 0
    cpus = max(1, int(ray.cluster_resources().get("CPU", 1)))
    n_parts = cpus * max(1, -(-n_bytes // (cpus * PART_BYTES))) if n_bytes else 1
    return exchange(inputs, _map_split, (fn, tuple(keys), n_parts), n_parts, _reduce_stage, stage)


def _same(t: pa.Table) -> pa.Table:
    return t


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

    return top(pa.concat_tables(ray.get(exchange_by_key(ds, _same, keys,
                                                        lambda part: top(finalize(part)), empty))))


def group_by_key(ds, keys, stage, schema: pa.Schema):
    """A grouping stage on :func:`exchange_by_key`, keyed on the REAL
    grouping key: ``stage`` runs once per part over all of the part's
    groups (no group spans two parts) and returns a typed Arrow table →
    the Dataset of those tables. ``schema`` is the map side's; it types
    an input without rows."""
    import ray.data as rd

    return rd.from_arrow_refs(exchange_by_key(ds, _same, keys, stage, schema.empty_table))


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
