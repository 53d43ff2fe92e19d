import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """Shared tiny deterministic corpus + query set (FIXTURES.md F1/F2)."""
    from anomaly_detection_ray.sources.corpus import generate_corpus, generate_queries, write_corpus

    d = tmp_path_factory.mktemp("corpus_tiny")
    paths = write_corpus(str(d), n_docs=200, seed=42, n_files=3)
    return {
        "dir": str(d),
        "paths": paths,
        "table": generate_corpus(200, seed=42),
        "queries": generate_queries(30, seed=43),
    }


@pytest.fixture
def check_positions_layout():
    """``check(index_dir)``: every live slice's positional sidecar has
    each part file sorted by (term, doc_id), and each term in exactly
    one part of its slice."""
    import json
    from glob import glob

    import pyarrow.parquet as pq

    def check(index_dir: str) -> None:
        with open(os.path.join(index_dir, "manifest.json")) as f:
            slices = json.load(f)["slices"]
        for s in slices:
            files = sorted(glob(os.path.join(index_dir, s["dir"], "positions", "*.parquet")))
            assert files, s["dir"]
            seen: set[str] = set()
            for path in files:
                t = pq.read_table(path, columns=["term", "doc_id"])
                keys = list(zip(t["term"].to_pylist(), t["doc_id"].to_pylist()))
                assert keys == sorted(keys), path
                terms = set(t["term"].to_pylist())
                assert not terms & seen, path
                seen |= terms

    return check


SF_DIR = "/root/testdata/sf0.001"
SF01_DIR = "/root/testdata/sf0.01"
