"""RCForest checkpoint restore: a pickled forest carries its tree topology,
and unpickling re-derives boxes, counts and extents from the snapshot.
The restored forest must equal the one ``_build_from`` built, array for
array, and score and impute bit-identically — across Gaussian,
duplicate-heavy, constant and depth-capped streams, ``time_decay = 0``,
several sample sizes and a shingle wider than 255 dims."""

import pickle

import numpy as np
import pytest

from anomaly_detection_ray.config import DetectorConfig, FeatureSpec
from anomaly_detection_ray.state.checkpoint import CheckpointStore
from anomaly_detection_ray.state.model import TRCFModel
from anomaly_detection_ray.state.rcf import RCForest

FIELDS = ("_lo", "_hi", "_cut", "_dim", "_left", "_right", "_count", "_ext_sum", "_roots")


def _stream(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "gauss":
        return rng.normal(size=(n, 4)) * [1.0, 10.0, 0.1, 3.0]
    if kind == "dupes":
        return rng.integers(0, 3, size=(n, 2)).astype(np.float64)
    if kind == "const":
        return np.full((n, 3), 7.5)
    if kind == "exp":
        # exponentially spaced: each cut peels off a short tail, so the
        # smallest points sit deeper than MAX_DEPTH
        return (2.0 ** np.arange(n))[:, None]
    if kind == "wide":
        return rng.normal(size=(n, 300))
    raise AssertionError(kind)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _assert_restores_exactly(f: RCForest, rng: np.random.Generator) -> RCForest:
    g = pickle.loads(pickle.dumps(f))
    assert g._built and g._built_size == f._built_size
    for k in FIELDS:
        a, b = getattr(f, k), getattr(g, k)
        assert a.dtype == b.dtype and np.array_equal(a, b), k
    snap = f._snapshot
    probe = np.vstack([snap[:: max(1, len(snap) // 16)],
                       snap[rng.integers(0, len(snap), 16)] * 1.5 + rng.normal(size=(16, snap.shape[1]))])
    for a, b in zip(f.score_batch(probe, detailed=True), g.score_batch(probe, detailed=True)):
        assert np.array_equal(_bits(a), _bits(b))
    missing = rng.random(probe.shape) < 0.3
    assert np.array_equal(_bits(f.impute_batch(probe, missing)), _bits(g.impute_batch(probe, missing)))
    return g


@pytest.mark.parametrize(
    "kind, sample_size, time_decay",
    [
        ("gauss", 64, 1 / 2560),
        ("gauss", 300, 1 / 2560),
        ("gauss", 64, 0.0),
        ("dupes", 64, 1 / 2560),
        ("dupes", 256, 0.0),
        ("const", 64, 1 / 2560),
        ("exp", 256, 1 / 2560),
        ("wide", 64, 1 / 2560),
    ],
)
def test_restored_forest_equals_rebuild(kind, sample_size, time_decay):
    rng = np.random.default_rng(sample_size * 31 + len(kind))
    pts = _stream(kind, sample_size + 37, rng)
    f = RCForest(num_trees=12, sample_size=sample_size, seed=len(kind) * 977 + sample_size,
                 time_decay=time_decay)
    for p in pts[:sample_size]:
        f.observe(p)
    assert f._n_seen == sample_size and f._next_rebuild > sample_size  # just rebuilt
    _assert_restores_exactly(f, rng)
    if kind == "exp":
        leaf = f._left < 0
        capped = leaf & (f._count > 1) & (f._lo != f._hi).any(axis=1)
        assert capped.any()  # only a MAX_DEPTH leaf holds distinct points
    if kind == "const":
        assert (f._left[f._roots] < 0).all() and (f._count[f._roots] == sample_size).all()
    for p in pts[sample_size:]:
        f.observe(p)
    assert f._n_seen < f._next_rebuild - 1  # mid-epoch: reservoir moved, forest did not
    g = _assert_restores_exactly(f, rng)
    # dims use the smallest unsigned dtype that holds D - 1
    dims = f.__getstate__()["_topo"][1]
    assert dims.dtype == (np.uint16 if pts.shape[1] > 256 else np.uint8)
    # restored and original continue the stream identically
    more = _stream(kind, 16, rng)
    assert np.array_equal(_bits(f.score_then_observe_batch(more)),
                          _bits(g.score_then_observe_batch(more)))


def test_unbuilt_forest_stays_unbuilt():
    f = RCForest(num_trees=5, sample_size=16, seed=1)
    f.observe(np.array([1.0, 2.0]))
    assert not f._built
    assert f.__getstate__()["_topo"] is None
    g = pickle.loads(pickle.dumps(f))
    assert not g._built and g._lo is None
    assert np.array_equal(g.score_batch(np.ones((2, 2))), np.zeros(2))


def test_corrupt_topology_raises():
    rng = np.random.default_rng(3)
    f = RCForest(num_trees=6, sample_size=32, seed=5)
    for p in rng.normal(size=(32, 3)):
        f.observe(p)
    bits, dims, cuts, n_nodes = f.__getstate__()["_topo"]
    for topo in ((bits, dims, cuts, n_nodes + 2),      # wrong node count
                 (bits, dims[:-1], cuts, n_nodes),     # dims short
                 (bits, dims, cuts[:-1], n_nodes),     # cuts short
                 (bits, dims + 3, cuts, n_nodes)):     # a dim past D
        state = f.__getstate__()
        state["_topo"] = topo
        g = RCForest.__new__(RCForest)
        with pytest.raises(ValueError, match="topology"):
            g.__setstate__(state)


def test_checkpoint_load_never_rebuilds(tmp_path, monkeypatch):
    """``CheckpointStore.load`` of a format-2 blob with a built forest
    restores it from the topology; ``_build_from`` is not called, and
    the restored model continues exactly like the one that was saved."""
    cfg = DetectorConfig(config_id="d1", features=(FeatureSpec("f0", "value", "avg"),),
                         shingle_size=4, num_trees=10, sample_size=64)
    m = TRCFModel(cfg, "m1")
    rng = np.random.default_rng(2)
    for i in range(90):
        m.process(np.array([50 + rng.normal()]), (i + 1) * 600_000)
    assert m.forest._built
    store = CheckpointStore(str(tmp_path))
    store.save(m)

    def no_rebuild(*a, **k):
        raise AssertionError("restore rebuilt the forest")

    with monkeypatch.context() as mp:
        mp.setattr(RCForest, "_build_from", no_rebuild)
        m2 = store.load("m1")
    for k in FIELDS:
        assert np.array_equal(getattr(m.forest, k), getattr(m2.forest, k)), k
    feats = 50 + rng.normal(size=(40, 1))
    ends = (91 + np.arange(40)) * 600_000
    a, b = m.process_many(feats, ends), m2.process_many(feats, ends)
    assert np.array_equal(a["anomaly_score"], b["anomaly_score"])


@pytest.mark.parametrize("windows, k", [(62, 32), (300, 256)])
def test_topology_at_most_doubles_model_checkpoint(tmp_path, monkeypatch, windows, k):
    """A model's checkpoint with the forest topology (a bit, a dim and a
    cut per split) is at most twice the format-1 blob (reservoir and
    snapshot only), for 30 trees × 256 over 2 features × shingle 8 at a
    32- and a 256-point build."""
    cfg = DetectorConfig(config_id="sz", features=(FeatureSpec("a", "value", "avg"),
                                                   FeatureSpec("b", "value", "max")))
    m = TRCFModel(cfg, "m")
    rng = np.random.default_rng(k)
    m.process_many(rng.normal(size=(windows, 2)), (1 + np.arange(windows)) * 600_000)
    assert m.forest._built_size == k
    store = CheckpointStore(str(tmp_path))
    v2 = store.save(m)["bytes"]
    orig = RCForest.__getstate__
    monkeypatch.setattr(RCForest, "__getstate__",
                        lambda self: {n: v for n, v in orig(self).items() if n != "_topo"})
    v1 = store.save(m)["bytes"]
    assert v1 < v2 <= 2 * v1
