"""Evidence run for the vocabulary-scale stats finalize (VERDICT r4 #2).

Synthesizes posting-stat parquet files with N distinct terms (default
5×10⁷ — the 10⁹-vocab feature's test point at 1/20 scale, far beyond
anything one process sorts comfortably), runs
``build._write_global_stats`` with more than one term range forced
(``build.STATS_PART_BYTES`` lowered so the synthetic files split into
about one range per file), and reports wall time + DRIVER peak-RSS
growth. The vocabulary never lands on the driver: generation happens in
Ray tasks, the range exchange's reducers write their own part files,
and the driver holds only the range boundaries.

    python tools/bench_stats_finalize.py [n_terms] [n_files]

Runs on ``RAY_GRAFT_CPUS`` CPUs (default: all of this machine's).
Prints one JSON line.
"""

import json
import os
import resource
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(n_terms: int = 50_000_000, n_files: int = 50) -> dict:
    import numpy as np
    import ray

    ray.init(address="local", num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", os.cpu_count())),
             include_dashboard=False, ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    work = "/tmp/adr_stats_finalize"
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "postings"))
    # round so every file holds the same whole number of terms AND a
    # multiple of 10 (the ::10 duplication + df spot-check assume it);
    # cap ids below 10^9 so the U9 string dtype never truncates
    per_file = max(10, n_terms // n_files // 10 * 10)
    n_terms = per_file * n_files
    assert n_terms < 10**9, "term ids must fit 9 decimal digits"

    @ray.remote
    def gen(i: int) -> str:
        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq

        lo = i * per_file
        ids = np.arange(lo, lo + per_file, dtype=np.int64)
        terms = np.char.add("t", ids.astype("U9"))
        # 10% of terms also appear as a second chunk row (simulates the
        # same term landing in two posting partitions), so the groupby
        # genuinely merges instead of passing rows through
        dup = ids[:: 10]
        terms_all = np.concatenate([terms, np.char.add("t", dup.astype("U9"))])
        df_chunk = np.ones(terms_all.size, dtype=np.int64)
        tf_sum = np.full(terms_all.size, 2, dtype=np.int64)
        path = os.path.join(work, "postings", f"syn-{i:04d}.parquet")
        pq.write_table(pa.table({"term": pa.array(terms_all.tolist(), pa.string()),
                                 "df_chunk": pa.array(df_chunk),
                                 "tf_sum": pa.array(tf_sum)}),
                       path, row_group_size=131072)
        return path

    t0 = time.perf_counter()
    files = ray.get([gen.remote(i) for i in range(n_files)])
    gen_sec = round(time.perf_counter() - t0, 1)

    from anomaly_detection_ray.index import build

    # about one term range per synthetic file
    build.STATS_PART_BYTES = max(1, sum(os.path.getsize(f) for f in files) // n_files)
    rss0_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024
    stats_path = os.path.join(work, "stats.parquet")
    t0 = time.perf_counter()
    got_terms = build._write_global_stats(sorted(files), stats_path)
    finalize_sec = round(time.perf_counter() - t0, 1)
    rss1_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024

    assert got_terms == n_terms, (got_terms, n_terms)
    assert os.path.isdir(stats_path)
    n_parts = len([n for n in os.listdir(stats_path) if n.endswith(".parquet")])

    # the lazy dictionary prunes over the part directory: spot-check df
    from anomaly_detection_ray.index.termdict import TermDictionary

    d = TermDictionary(stats_path, budget_bytes=0)
    assert not d.eager and len(d) == n_terms
    for tid in (0, per_file - 1, n_terms // 2, n_terms - 1):
        expect = 2 if tid % 10 == 0 else 1  # per_file is a multiple of 10
        assert d.df(f"t{tid}") == expect, tid

    ray.shutdown()
    out = {
        "metric": "stats_finalize_50M_terms",
        "value": finalize_sec,
        "unit": "sec",
        "n_terms": n_terms,
        "n_parts": n_parts,
        "gen_sec": gen_sec,
        "terms_per_sec": round(n_terms / finalize_sec),
        "driver_peak_rss_mb_before": rss0_mb,
        "driver_peak_rss_mb_after": rss1_mb,
        "driver_rss_growth_mb": rss1_mb - rss0_mb,
    }
    shutil.rmtree(work, ignore_errors=True)
    return out


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 50_000_000
    f = int(sys.argv[2]) if len(sys.argv) > 2 else 50
    print(json.dumps(main(n, f)))
