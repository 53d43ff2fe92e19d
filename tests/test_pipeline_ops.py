"""Training-data-pipeline ops: dedup family, ANN, text analysis, multimodal."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from anomaly_detection_ray.functions.minhash import (
    MinHasher,
    hamming64,
    hash_shingles,
    jaccard,
    simhash,
    token_shingles,
    winnow_fingerprints,
)
from anomaly_detection_ray.functions.textstats import lang_id, token_stats

DOCS = "/root/testdata/sf0.001/documents.parquet"
EMB = "/root/testdata/sf0.001/embeddings.parquet"


# ---------- pure functions ----------

def test_token_shingles_and_jaccard():
    t = ["a", "b", "c", "d"]
    assert token_shingles(t, 3) == ["a b c", "b c d"]
    assert token_shingles(["a"], 3) == ["a"]
    assert jaccard({1, 2}, {2, 3}) == pytest.approx(1 / 3)


def test_minhash_estimates_jaccard():
    mh = MinHasher(256, seed=1)
    a = hash_shingles([f"tok{i}" for i in range(100)])
    b = hash_shingles([f"tok{i}" for i in range(80)])  # true J = 80/100
    sa, sb = mh.signature(a), mh.signature(b)
    est = (sa == sb).mean()
    assert abs(est - 0.8) < 0.1
    # deterministic across instances
    assert np.array_equal(MinHasher(256, seed=1).signature(a), sa)


def test_simhash_properties():
    a = simhash(["the", "quick", "brown", "fox"] * 10)
    b = simhash(["the", "quick", "brown", "fox"] * 10 + ["jumps"])
    c = simhash(["completely", "different", "tokens", "here"] * 10)
    assert hamming64(a, b) < hamming64(a, c)
    assert a == simhash(["the", "quick", "brown", "fox"] * 10)


def test_winnow_fingerprints_deterministic_and_local():
    t1 = ("alpha beta gamma delta epsilon zeta eta theta " * 5).split()
    fp1 = winnow_fingerprints(t1)
    assert fp1 == winnow_fingerprints(list(t1))
    # shared long run ⇒ shared fingerprints
    t2 = ["prefix", "words"] + t1
    assert len(set(fp1) & set(winnow_fingerprints(t2))) > 0


def test_textstats_and_langid():
    st = token_stats(["The cat and the dog", ""])
    assert st["n_tokens"][0] == 5 and st["n_tokens"][1] == 0
    assert st["stopword_ratio"][0] == pytest.approx(3 / 5)  # the, and, the
    assert lang_id(["the cat and the dog is here", "el perro es una mascota", ""]) == ["en", "es", "und"]


# ---------- Ray stages vs duckdb oracles ----------

@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data as rd

    return rd.read_parquet(DOCS)


def test_exact_dedup_matches_sql(docs_ds):
    from anomaly_detection_ray.stages.dedup import exact_dedup

    got = exact_dedup(docs_ds, "text", "doc_id").to_pandas().sort_values("doc_id").reset_index(drop=True)
    exp = (
        duckdb.sql(
            f"SELECT min(doc_id) AS doc_id, count(*) AS n_dups FROM '{DOCS}' GROUP BY text ORDER BY doc_id"
        )
        .df()
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got.astype("int64"), exp.astype("int64"))


def test_ngram_jaccard_pairs_exact(ray_session):
    """Hand-built corpus with known near-dups."""
    import ray.data as rd

    from anomaly_detection_ray.stages.dedup import ngram_jaccard_pairs

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    docs = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
            "text": [base, base + " extra", "totally different words entirely now", base],
        }
    )
    got = (
        ngram_jaccard_pairs(rd.from_arrow(docs), threshold=0.5)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    pairs = set(zip(got["doc_a"], got["doc_b"]))
    assert (0, 3) in pairs and (0, 1) in pairs and (1, 3) in pairs
    assert not any(2 in p for p in pairs)
    exact = got[(got["doc_a"] == 0) & (got["doc_b"] == 3)]["jaccard"].iloc[0]
    assert exact == pytest.approx(1.0)


def test_minhash_near_dup_finds_planted(ray_session):
    import ray.data as rd

    from anomaly_detection_ray.stages.dedup import minhash_near_dup_pairs

    words = [f"w{i}" for i in range(40)]
    rng = np.random.default_rng(0)
    texts = [" ".join(rng.permutation(words).tolist()) for _ in range(20)]
    texts.append(texts[0])  # exact dup of doc 0 → J=1
    docs = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()), "text": texts})
    got = minhash_near_dup_pairs(rd.from_arrow(docs), threshold=0.8)
    pairs = set(zip(got["doc_a"].to_pylist(), got["doc_b"].to_pylist()))
    assert (0, 20) in pairs


def test_simhash_near_dup(ray_session):
    import ray.data as rd

    from anomaly_detection_ray.stages.dedup import simhash_near_dup_pairs

    base = " ".join(f"tok{i}" for i in range(60))
    docs = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], type=pa.int64()),
            "text": [base, base, " ".join(f"other{i}" for i in range(60))],  # 0≡1 exact dup
        }
    )
    got = simhash_near_dup_pairs(rd.from_arrow(docs), max_hamming=3).to_pandas()
    pairs = set(zip(got["doc_a"], got["doc_b"]))
    assert (0, 1) in pairs and (0, 2) not in pairs and (1, 2) not in pairs


def test_cosine_topk_matches_numpy(ray_session):
    import ray.data as rd

    from anomaly_detection_ray.stages.ann import cosine_topk

    ds = rd.read_parquet(EMB)
    tbl = ds.to_pandas()
    mat = np.vstack(tbl["embedding"].to_numpy()).astype(np.float64)
    q = mat[0]
    got = cosine_topk(ds, q[None, :], k=10)
    # numpy oracle
    mn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = mn @ (q / np.linalg.norm(q))
    order = np.lexsort((tbl["vec_id"].to_numpy(), -sims))[:10]
    assert got["vec_id"].tolist() == tbl["vec_id"].to_numpy()[order].tolist()
    assert np.allclose(got["cosine"].to_numpy(), sims[order], atol=1e-12)


def test_ivf_full_probe_equals_bruteforce(ray_session):
    import ray.data as rd

    from anomaly_detection_ray.stages.ann import cosine_topk, ivf_cosine_topk, train_centroids

    ds = rd.read_parquet(EMB)
    tbl = ds.to_pandas()
    mat = np.vstack(tbl["embedding"].to_numpy()).astype(np.float64)
    cent = train_centroids(mat[:200], n_cells=8, seed=3)
    q = mat[5][None, :]
    bf = cosine_topk(ds, q, k=10)
    ivf_all = ivf_cosine_topk(ds, q, cent, nprobe=8, k=10)
    assert bf["vec_id"].tolist() == ivf_all["vec_id"].tolist()
    # partial probe returns a subset ranking but still k rows
    ivf_p = ivf_cosine_topk(ds, q, cent, nprobe=2, k=10)
    assert len(ivf_p) == 10


_TWO_CPU_SCRIPT = r"""
import json
import sys

import numpy as np
import ray
import ray.data as rd

ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
rd.DataContext.get_current().enable_progress_bars = False
try:
    from anomaly_detection_ray.stages.ann import ivf_cosine_topk, train_centroids
    from anomaly_detection_ray.stages.dedup import minhash_near_dup_pairs, ngram_jaccard_pairs

    docs_path, emb_path = sys.argv[1:3]
    ng = ngram_jaccard_pairs(rd.read_parquet(docs_path), threshold=0.8)
    mh = minhash_near_dup_pairs(rd.read_parquet(docs_path), threshold=0.8)
    vecs = np.random.default_rng(1).normal(size=(200, 16))
    ivf = ivf_cosine_topk(rd.read_parquet(emb_path), vecs[:3],
                          train_centroids(vecs, n_cells=4, seed=1), nprobe=4, k=5)
    print(json.dumps({
        "ngram": sorted(zip(ng["doc_a"].to_pylist(), ng["doc_b"].to_pylist())),
        "minhash": sorted(zip(mh["doc_a"].to_pylist(), mh["doc_b"].to_pylist())),
        "ivf": [g["vec_id"].tolist() for _, g in ivf.sort_values(["query_idx", "rank"]).groupby("query_idx")],
    }))
finally:
    ray.shutdown()
"""


def test_map_stages_finish_in_two_cpu_session(tmp_path):
    """Regression: in a 2-CPU Ray session, n-gram and MinHash near-dup
    and IVF top-k over a parquet read finish. When their map stages ran
    as actor pools, the pools of one execution took both CPUs before
    the read task ran, and these calls hung (a one-file read hung every
    time). Runs in its own Ray session in a subprocess, whose process
    group is killed if it outlives the timeout."""
    import json
    import os
    import signal
    import subprocess
    import sys

    import pyarrow.parquet as pq

    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(300)]
    texts = [" ".join(rng.choice(words, 40).tolist()) for _ in range(120)]
    for i in range(0, 120, 10):
        texts[i + 1] = texts[i]  # planted duplicate pairs
    pq.write_table(pa.table({"doc_id": pa.array(range(120), pa.int64()), "text": texts}),
                   tmp_path / "docs.parquet")
    vecs = np.random.default_rng(1).normal(size=(200, 16))
    pq.write_table(pa.table({"vec_id": pa.array(range(200), pa.int64()),
                             "embedding": pa.array(list(vecs), pa.list_(pa.float64()))}),
                   tmp_path / "emb.parquet")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=root + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen(
        [sys.executable, "-c", _TWO_CPU_SCRIPT, str(tmp_path / "docs.parquet"), str(tmp_path / "emb.parquet")],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("near-dup / IVF stages did not finish in 120 s in a 2-CPU session")
    assert proc.returncode == 0, err[-3000:]
    got = json.loads(out.strip().splitlines()[-1])
    planted = [[i, i + 1] for i in range(0, 120, 10)]
    assert got["ngram"] == planted
    assert got["minhash"] == planted
    mn = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    for qi in range(3):
        assert got["ivf"][qi] == np.lexsort((np.arange(200), -(mn @ mn[qi])))[:5].tolist()


def test_embedding_near_dup(ray_session):
    import ray.data as rd

    from anomaly_detection_ray.stages.ann import embedding_near_dup_pairs

    rng = np.random.default_rng(1)
    base = rng.normal(size=(30, 8))
    base[7] = base[3] + 1e-6  # planted near-dup
    tbl = pa.table(
        {
            "vec_id": pa.array(range(30), type=pa.int64()),
            "embedding": pa.array([list(r) for r in base], type=pa.list_(pa.float32())),
        }
    )
    got = embedding_near_dup_pairs(rd.from_arrow(tbl), threshold=0.999).to_pandas()
    assert (3, 7) in set(zip(got["vec_a"], got["vec_b"]))


def test_embedding_near_dup_tiling_matches_single_block(ray_session):
    """Block-pair tiling must be exact for any block count: forcing many
    tiny blocks gives identical pairs to the single-tile run."""
    import ray.data as rd

    from anomaly_detection_ray.stages.ann import embedding_near_dup_pairs

    rng = np.random.default_rng(9)
    base = rng.normal(size=(120, 16))
    for i in range(0, 40, 7):
        base[i + 1] = base[i] + rng.normal(0, 1e-3, 16)  # planted near-dups
    tbl = pa.table({
        "vec_id": pa.array(range(120), type=pa.int64()),
        "embedding": pa.array([list(r) for r in base], type=pa.list_(pa.float64())),
    })
    kw = dict(threshold=0.5)
    one = embedding_near_dup_pairs(rd.from_arrow(tbl), rows_per_block=10_000, **kw).to_pandas()
    many = embedding_near_dup_pairs(rd.from_arrow(tbl), rows_per_block=16, **kw).to_pandas()
    key = ["vec_a", "vec_b"]
    pd.testing.assert_frame_equal(
        one.sort_values(key).reset_index(drop=True).round(9),
        many.sort_values(key).reset_index(drop=True).round(9),
    )
    assert len(one) >= 6  # the planted pairs are all found


def test_embedding_near_dup_lsh_recall(ray_session):
    """Sign-LSH banded near-dup: full recall on planted high-cosine pairs
    and no pairs the exact path would not also report."""
    import ray.data as rd

    from anomaly_detection_ray.stages.ann import embedding_near_dup_lsh, embedding_near_dup_pairs

    rng = np.random.default_rng(3)
    base = rng.normal(size=(200, 32))
    planted = []
    for i in range(0, 60, 6):
        base[i + 1] = base[i] + rng.normal(0, 0.02, 32)
        planted.append((i, i + 1))
    tbl = pa.table({
        "vec_id": pa.array(range(200), type=pa.int64()),
        "embedding": pa.array([list(r) for r in base], type=pa.list_(pa.float64())),
    })
    exact = embedding_near_dup_pairs(rd.from_arrow(tbl), threshold=0.9).to_pandas()
    lsh = embedding_near_dup_lsh(rd.from_arrow(tbl), threshold=0.9, n_bands=24, bits_per_band=6)
    exact_pairs = set(zip(exact["vec_a"], exact["vec_b"]))
    lsh_pairs = set(zip(lsh["vec_a"], lsh["vec_b"]))
    assert lsh_pairs <= exact_pairs          # no false positives (exact verify)
    assert set(planted) <= lsh_pairs         # planted near-dups recalled


def test_multimodal_real_codecs_roundtrip():
    """PGM / WAV-PCM16 / RAWV encode→decode are exact (pure numpy — the
    REAL decode path; external-codec formats stay behind the declared
    NotImplementedError boundary)."""
    from anomaly_detection_ray.stages.multimodal import (
        block_mean_resize, decode_pgm, decode_rawv, decode_wav_pcm16,
        encode_pgm, encode_rawv, encode_wav_pcm16, media_features,
    )

    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, (41, 29), dtype=np.uint8)
    assert np.array_equal(decode_pgm(encode_pgm(img)), img)
    sig = rng.normal(0, 9000, 1500).astype(np.int16)
    s, r = decode_wav_pcm16(encode_wav_pcm16(sig, 16_000))
    assert np.array_equal(s, sig) and r == 16_000
    fr = rng.integers(0, 256, (7, 9, 9), dtype=np.uint8)
    assert np.array_equal(decode_rawv(encode_rawv(fr)), fr)
    assert np.allclose(block_mean_resize(np.full((32, 32), 7.0), 8, 8), 7.0)
    with pytest.raises(NotImplementedError):
        media_features("image", b"\x89PNG\r\n")


def test_multimodal_real_decode_pipeline(ray_session):
    """End-to-end real decode: synthesized real payloads → features via
    the map stage, deterministic (same payload → same features); audio
    rms reflects the encoded tone; resize stage produces decodable
    smaller PGMs."""
    import ray.data as rd

    from anomaly_detection_ray.stages.multimodal import (
        decode_features, decode_pgm, resize_images, synthesize_media_table,
    )

    t = synthesize_media_table(32, seed=7)
    out = decode_features(rd.from_arrow(t), batch_size=8).to_pandas()
    assert len(out) == 32
    feats = np.vstack(out["features"].to_numpy())
    assert feats.shape == (32, 8) and np.isfinite(feats).all()
    out2 = decode_features(rd.from_arrow(t), batch_size=8).to_pandas()
    a = out.sort_values("media_id")["features"].map(tuple).tolist()
    b = out2.sort_values("media_id")["features"].map(tuple).tolist()
    assert a == b
    audio = out[out["kind"] == "audio"]
    assert len(audio) and all(f[0] > 0.05 for f in audio["features"])  # real rms, not hash noise
    resized = resize_images(rd.from_arrow(t), out_h=8, out_w=8, batch_size=8).to_pandas()
    for _, row in resized[resized["kind"] == "image"].iterrows():
        assert decode_pgm(row["payload"]).shape == (8, 8)


def test_batch_shingle_hashes_matches_reference():
    """The batched rolling shingle-hash (one token-hash call + k mix
    steps) is value-identical to the per-doc scalar reference, incl.
    short docs (<k tokens) and empty docs."""
    from anomaly_detection_ray.functions.minhash import (
        batch_shingle_hashes,
        shingle_hashes_ref,
    )

    rng = np.random.default_rng(4)
    docs = [[f"w{rng.integers(0, 30)}" for _ in range(n)]
            for n in (0, 1, 2, 3, 7, 64, 300)]
    vals, offs = batch_shingle_hashes(docs, 3)
    for d, toks in enumerate(docs):
        got = np.sort(vals[offs[d]:offs[d + 1]].view(np.uint64))
        assert np.array_equal(got, shingle_hashes_ref(toks, 3)), d
    # distinct token sequences get distinct shingle ids (order sensitivity)
    a = shingle_hashes_ref(["x", "y", "z"], 3)
    b = shingle_hashes_ref(["z", "y", "x"], 3)
    assert not np.array_equal(a, b)


def test_connected_components_and_near_dup_groups(ray_session, monkeypatch):
    """Near-dup clustering: distributed hash-min + pointer-jumping CC over
    the pair graph; group_id = min doc id in the component (keep-one-per-
    cluster dedup). DuckDB recursive-CTE oracle covers it at sf0.01
    (near_dup_groups query); here: planted structure + a long path
    (log-rounds convergence)."""
    import ray.data as rd

    from anomaly_detection_ray.stages import dedup
    from anomaly_detection_ray.stages.dedup import connected_components, near_dup_groups

    # components {1,2,3,4} (path), {10,11} — BOTH paths must agree:
    # the small-graph one-task fast path and the iterative hash-min
    pairs = pa.table({"doc_a": pa.array([1, 2, 3, 10], pa.int64()),
                      "doc_b": pa.array([2, 3, 4, 11], pa.int64())})
    expect = {1: 1, 2: 1, 3: 1, 4: 1, 10: 10, 11: 10}
    chain = pa.table({"doc_a": pa.array(np.arange(19), pa.int64()),
                      "doc_b": pa.array(np.arange(1, 20), pa.int64())})
    lab3 = connected_components(rd.from_arrow(chain)).to_pandas()
    assert (lab3["label"] == 0).all()
    for sgr in (2_000_000, 0):
        monkeypatch.setattr(dedup, "SMALL_GRAPH_ROWS", sgr)
        lab = connected_components(rd.from_arrow(pairs))
        lab = lab.to_pandas().sort_values("node")
        assert dict(zip(lab["node"], lab["label"])) == expect, f"SMALL_GRAPH_ROWS={sgr}"

    # diameter-19 path converges on the ITERATIVE path too (pointer
    # jumping: O(log d) rounds, capped)
    lab2 = connected_components(rd.from_arrow(chain), max_rounds=10).to_pandas()
    assert (lab2["label"] == 0).all()

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    docs = pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
        "text": [base, base + " extra", "totally different words entirely now",
                 base, "another unique document body here"],
    })
    g = near_dup_groups(rd.from_arrow(docs), threshold=0.5).to_pandas().sort_values("doc_id")
    assert dict(zip(g["doc_id"], g["group_id"])) == {0: 0, 1: 0, 2: 2, 3: 0, 4: 4}
    # filtering group_id == doc_id keeps exactly one doc per cluster
    keep = g[g["group_id"] == g["doc_id"]]
    assert sorted(keep["doc_id"]) == [0, 2, 4]


def test_phash64_properties():
    """DCT pHash invariants: identical and area-resized images hash
    equal (or near), random/structurally different images land far —
    the properties the hamming near-dup grouping relies on."""
    from anomaly_detection_ray.stages.multimodal import block_mean_resize, phash64

    yy, xx = np.mgrid[0:64, 0:80]
    img = (128 + 100 * np.sin(xx / 7.0) * np.cos(yy / 5.0)).clip(0, 255).astype(np.uint8)
    other = (128 + 100 * np.sin(xx / 3.0 + 2) * np.cos(yy / 11.0)).clip(0, 255).astype(np.uint8)

    def ham(a, b):
        return bin(a ^ b).count("1")

    h0 = phash64(img)
    assert ham(h0, phash64(img.copy())) == 0
    resized = np.round(block_mean_resize(img, 48, 60)).clip(0, 255).astype(np.uint8)
    assert ham(h0, phash64(resized)) <= 3
    rng = np.random.default_rng(0)
    mild = (img.astype(int) + rng.integers(-2, 3, img.shape)).clip(0, 255).astype(np.uint8)
    assert ham(h0, phash64(mild)) <= 3
    assert ham(h0, phash64(other)) > 10
    assert ham(h0, phash64(rng.integers(0, 256, img.shape).astype(np.uint8))) > 10


def test_sample_frames_explodes_videos(ray_session):
    """Frame sampling: every video row explodes into min(frame_samples,
    n_frames) decodable PGM rows with the video's dims; image rows pass
    through; audio rows drop."""
    import ray.data as rd

    from anomaly_detection_ray.stages.multimodal import (
        decode_pgm, sample_frames, synthesize_media_table)

    media = synthesize_media_table(64, seed=42)
    out = sample_frames(rd.from_arrow(media), frame_samples=4, batch_size=16).to_pandas()
    src = media.to_pandas().set_index("media_id")
    expected = sum(
        min(4, int(r.n_frames)) if r.kind == "video" else (1 if r.kind == "image" else 0)
        for r in src.itertuples()
    )
    assert len(out) == expected
    assert (out["frame_idx"] >= 0).all()
    for r in out.sample(8, random_state=0).itertuples():
        img = decode_pgm(r.payload)
        assert img.shape == (r.height, r.width)
        if src.loc[r.media_id, "kind"] == "video":
            assert r.frame_idx < src.loc[r.media_id, "n_frames"]


def _photo_like_image(seed: int) -> np.ndarray:
    """Deterministic low-frequency 'photo-like' image (a few smooth 2-D
    waves): the regime perceptual hashes are built for — near-Nyquist
    synthetic sinusoids alias under resampling and are adversarial for
    ANY 64-bit sketch."""
    rng = np.random.default_rng(seed)
    h, w = int(rng.integers(40, 96)), int(rng.integers(40, 96))
    yy, xx = np.mgrid[0:h, 0:w]
    img = np.full((h, w), 128.0)
    for _ in range(3):
        fx, fy = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        px, py = rng.uniform(0, 6.28), rng.uniform(0, 6.28)
        img += rng.uniform(20, 50) * np.sin(2 * np.pi * fx * xx / w + px) * np.cos(2 * np.pi * fy * yy / h + py)
    return np.clip(img, 0, 255).astype(np.uint8)


def test_image_near_dup_phash(ray_session):
    """Planted image near-dups (half-size copies + noised copies) are
    recovered by dHash chunk-pair pigeonhole pairing; distinct images
    are not paired."""
    import ray.data as rd

    from anomaly_detection_ray.stages.multimodal import (
        block_mean_resize, encode_pgm, image_near_dup_pairs)

    ids, payloads = [], []
    planted = set()
    for s in range(20):
        img = _photo_like_image(s)
        ids.append(s)
        payloads.append(encode_pgm(img))
        rng = np.random.default_rng(100 + s)
        if s % 2 == 0:  # half-size copy
            twin = np.round(block_mean_resize(img, img.shape[0] // 2, img.shape[1] // 2))
            twin = twin.clip(0, 255).astype(np.uint8)
        else:           # noised copy
            twin = (img.astype(int) + rng.integers(-4, 5, img.shape)).clip(0, 255).astype(np.uint8)
        ids.append(1000 + s)
        payloads.append(encode_pgm(twin))
        planted.add((s, 1000 + s))
    media = pa.table({
        "media_id": pa.array(ids, pa.int64()),
        "kind": pa.array(["image"] * len(ids)),
        "payload": pa.array(payloads, pa.binary()),
    })
    pairs = image_near_dup_pairs(rd.from_arrow(media), batch_size=16).to_pandas()
    got = set(zip(pairs["doc_a"], pairs["doc_b"]))
    missed = planted - got
    assert not missed, f"missed planted twins: {missed}"
    # no pair between two distinct originals (dhash keeps them apart)
    assert not [p for p in got if p[0] < 1000 and p[1] < 1000]
    assert (pairs["hamming"] <= 6).all()


def test_stratified_sample_determinism_and_rates(ray_session):
    """Hash-of-id stratified sampling: selection is invariant to block
    layout, per-stratum rates track the requested fractions tightly
    (low-discrepancy hash), and the module's own SQL twin selects the
    identical rows in DuckDB."""
    import duckdb
    import ray.data as rd

    from anomaly_detection_ray.stages.sampling import (
        stratified_sample, stratified_sample_sql)

    n = 6000
    strata = np.asarray(["en", "de", "xx"])[np.arange(n) % 3]
    tbl = pa.table({"doc_id": pa.array(np.arange(n), pa.int64()),
                    "lang": pa.array(strata.tolist())})
    fr = {"en": 0.5, "de": 0.2}

    out1 = stratified_sample(rd.from_arrow(tbl), "doc_id", "lang", fr,
                             default_fraction=0.05, seed=3).to_pandas()
    out2 = stratified_sample(rd.from_arrow(tbl).repartition(7), "doc_id", "lang", fr,
                             default_fraction=0.05, seed=3).to_pandas()
    a = out1.sort_values("doc_id").reset_index(drop=True)
    b = out2.sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)  # block layout can't change the sample

    rates = a.groupby("lang")["doc_id"].count() / (n / 3)
    assert abs(rates["en"] - 0.5) < 0.02
    assert abs(rates["de"] - 0.2) < 0.02
    assert abs(rates.get("xx", 0.0) - 0.05) < 0.02

    con = duckdb.connect()
    con.register("docs", tbl)
    sql = stratified_sample_sql("docs", "doc_id", "lang", fr,
                                default_fraction=0.05, seed=3, columns="doc_id, lang")
    sql_rows = con.execute(sql).fetchdf()
    assert list(sql_rows["doc_id"]) == list(a["doc_id"])

    # different seed → different (deterministic) sample
    out3 = stratified_sample(rd.from_arrow(tbl), "doc_id", "lang", fr,
                             default_fraction=0.05, seed=4).to_pandas()
    assert set(out3["doc_id"]) != set(a["doc_id"])

    # null strata take the default fraction (SQL CASE ELSE on NULL)
    tbl_null = pa.table({"doc_id": pa.array(np.arange(2000), pa.int64()),
                         "lang": pa.array(["en", None] * 1000)})
    out4 = stratified_sample(rd.from_arrow(tbl_null), "doc_id", "lang", fr,
                             default_fraction=0.05, seed=3).to_pandas()
    n_null = out4["lang"].isna().sum()
    assert abs(n_null / 1000 - 0.05) < 0.03
    all_null = pa.table({"doc_id": pa.array(np.arange(1000), pa.int64()),
                         "lang": pa.array([None] * 1000, pa.string())})
    out5 = stratified_sample(rd.from_arrow(all_null), "doc_id", "lang", fr,
                             default_fraction=0.5, seed=3).to_pandas()
    assert abs(len(out5) / 1000 - 0.5) < 0.03


def test_bpe_token_counts():
    """BPE pre-tokenizer piece counting: contractions split, leading
    spaces attach, runs of punctuation collapse — and the count matches
    DuckDB running the identical pattern (the oracle contract)."""
    import duckdb

    from anomaly_detection_ray.functions.textstats import BPE_SPLIT_PATTERN, bpe_token_counts

    texts = [
        "don't stop",             # don | 't | _stop
        "hello   world!!",        # hello | _world | !! (+ inner spaces)
        "",                       # 0
        "x" * 5,                  # 1
        "a1b2 c3",                # a |1| b |2| _c |3
        "tab\tand\nnewline",
        "we've they'll it's I'm you're",
    ]
    got = bpe_token_counts(texts)
    assert got[0] == 3
    assert got[2] == 0 and got[3] == 1
    con = duckdb.connect()
    for t, n in zip(texts, got):
        sql_n = con.execute(
            f"SELECT len(regexp_extract_all(?, $$({BPE_SPLIT_PATTERN})$$))", [t]
        ).fetchone()[0]
        assert sql_n == int(n), t


def test_hamming_near_dup_vs_bruteforce(ray_session):
    """Property check of the generic pigeonhole pairer, both probe
    modes, against brute force: single-chunk (sound to n_chunks−1) and
    chunk-pair (sound to n_chunks−2) recover EXACTLY the pairs within
    the radius — planted near pairs + random far hashes, several seeds."""
    import itertools

    import ray.data as rd

    from anomaly_detection_ray.stages.dedup import hamming_near_dup_pairs

    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 2**63, 30, dtype=np.int64)
        hashes = list(base)
        for h in base[:10]:  # plant near twins at hamming 1..6
            flips = rng.choice(64, size=int(rng.integers(1, 7)), replace=False)
            x = np.int64(h)
            for f in flips:
                x = np.bitwise_xor(x, np.int64(np.uint64(1 << int(f)).astype(np.int64)))
            hashes.append(x)
        hs = np.asarray(hashes, dtype=np.int64)
        ids = np.arange(hs.size, dtype=np.int64)
        sk = rd.from_arrow(pa.table({"doc_id": pa.array(ids), "simhash": pa.array(hs)}))

        def brute(radius):
            out = set()
            u = hs.astype(np.uint64)
            for i, j in itertools.combinations(range(hs.size), 2):
                if bin(int(u[i] ^ u[j])).count("1") <= radius:
                    out.add((i, j))
            return out

        for kwargs, radius in (
            (dict(max_hamming=3, n_chunks=4), 3),
            (dict(max_hamming=6, n_chunks=8, chunk_pairs=True), 6),
        ):
            got = hamming_near_dup_pairs(sk, **kwargs).to_pandas()
            got_pairs = set(zip(got["doc_a"], got["doc_b"]))
            assert got_pairs == brute(radius), (seed, kwargs)
            u = hs.astype(np.uint64)
            for a, b, hm in zip(got["doc_a"], got["doc_b"], got["hamming"]):
                assert bin(int(u[a] ^ u[b])).count("1") == hm


def test_hamming_pairs_degenerate_high_dup_dataset(ray_session):
    """A high-dup-rate sketch corpus (50 groups x 40 identical sketches
    -> ~156k pair INSTANCES across the 4 chunk buckets) must flow through
    the coarse pair-keyed dedup as a Dataset end-to-end: collect=False
    returns an unmaterialized Dataset, the distinct pair count is exact
    (50 * C(40,2)), and every pair's hamming is 0. This is the shape the
    r3 native multi-key groupby + forced to_pandas hit a ~139 s sort-
    shuffle cliff on."""
    import ray.data as rd

    from anomaly_detection_ray.stages.dedup import hamming_near_dup_pairs

    groups, per = 50, 40
    rng = np.random.default_rng(3)
    vals = rng.integers(0, 2**63, groups, dtype=np.int64)
    hs = np.repeat(vals, per)
    ids = np.arange(hs.size, dtype=np.int64)
    sk = rd.from_arrow(pa.table({"doc_id": pa.array(ids), "simhash": pa.array(hs)}))
    out = hamming_near_dup_pairs(sk, collect=False)
    assert hasattr(out, "map_batches")  # a Dataset, not a driver table
    df = out.to_pandas()
    assert len(df) == groups * per * (per - 1) // 2
    assert (df["hamming"] == 0).all()
    assert not df.duplicated(["doc_a", "doc_b"]).any()


def test_quality_flags_rules():
    """Gopher-rule quality filter: each bound rejects its crafted doc."""
    from anomaly_detection_ray.functions.textstats import quality_flags

    # 60 distinct content words + stopwords: passes every bound
    good = "the dog and the cat of it went " + " ".join(f"token{i:02d}" for i in range(60))
    docs = [
        good,                                    # passes all rules
        "short doc only",                        # too few tokens
        ("x " * 200).strip(),                    # mean token len 1 < 3
        ("the " * 200).strip(),                  # distinct_ratio 1/200 < 0.3
        good + "!@#$%^&*" * 300,                 # symbol ratio > 0.25
        (" ".join(f"palabra{i:02d}" for i in range(60))),  # no english stopwords
        "",                                      # empty
    ]
    q = quality_flags(docs)
    assert list(q["keep"]) == [True, False, False, False, False, False, False]
    assert q["n_tokens"][0] == 68 and q["stopword_hits"][0] >= 2
    assert q["symbol_ratio"][4] > 0.25
    assert q["distinct_ratio"][3] < 0.3
    # override loosens a bound
    q2 = quality_flags(["short doc only"], min_tokens=1, min_stopword_hits=0)
    assert bool(q2["keep"][0])


def test_corpus_clean_dispositions(ray_session, monkeypatch):
    """Flagship cleaning pipeline: quality filter -> exact dedup ->
    near-dup CC -> one disposition row per doc. Planted corpus hits all
    four statuses; sf0.01 value-parity is the corpus_clean oracle row."""
    import ray.data as rd

    from anomaly_detection_ray.pipelines.clean import corpus_clean

    good = "the dog and the cat of it went " + " ".join(f"token{i:02d}" for i in range(60))
    near = good + " trailing extra words appended here"
    docs = pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
        "text": [
            good,              # kept (canonical)
            good,              # exact_dup of 0
            near,              # near_dup of 0 (high jaccard, not identical)
            "short doc only",  # quality reject
            "the of and is was be are " + " ".join(f"uniq{i:03d}" for i in range(70)),  # kept, distinct
        ],
    })
    out = corpus_clean(rd.from_arrow(docs), threshold=0.5).to_pandas().sort_values("doc_id")
    got = list(zip(out["doc_id"], out["status"], out["group_id"]))
    assert got == [
        (0, "kept", 0),
        (1, "exact_dup", 0),
        (2, "near_dup", 0),
        (3, "quality", -1),
        (4, "kept", 4),
    ]

    # loosened bounds pull doc 3 back in as its own kept group
    out2 = corpus_clean(rd.from_arrow(docs), threshold=0.5,
                        bounds=dict(min_tokens=1, min_stopword_hits=0)).to_pandas()
    assert dict(zip(out2["doc_id"], out2["status"]))[3] == "kept"

    # above EXACT_DUP_BROADCAST_MAX exact dups the survivors' text joins
    # the keeper table on an exchange instead of the broadcast anti-filter
    from anomaly_detection_ray.pipelines import clean

    monkeypatch.setattr(clean, "EXACT_DUP_BROADCAST_MAX", 0)
    out3 = corpus_clean(rd.from_arrow(docs), threshold=0.5).to_pandas().sort_values("doc_id")
    assert list(zip(out3["doc_id"], out3["status"], out3["group_id"])) == got


def test_corpus_clean_decontam_stage(ray_session):
    """Decontamination inside corpus_clean: a quality survivor sharing an
    8-token shingle with the benchmark is 'contaminated' and — removed
    BEFORE dedup — can no longer anchor a near-dup group, so its near
    twin flips to 'kept'. min_overlap above the planted overlap switches
    the stage off. sf0.01 value-parity is the corpus_clean_decontam
    oracle row."""
    import ray.data as rd

    from anomaly_detection_ray.pipelines.clean import corpus_clean

    bench8 = "alpha bravo charlie delta echo foxtrot golf hotel"
    tail = "the dog and the cat of it went " + " ".join(f"token{i:02d}" for i in range(60))
    near8 = bench8.rsplit(" ", 1)[0] + " hotelx"   # one token off: no bench 8-gram
    docs = pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
        "text": [
            "the of and is was be are " + " ".join(f"uniq{i:03d}" for i in range(70)),
            f"{bench8} {tail}",    # contaminated (contains the bench shingle)
            f"{near8} {tail}",     # near-dup of 1, but bench-clean
            f"{near8} {tail}",     # exact_dup of 2
            "short doc only",      # quality reject
        ],
    })
    bench = pa.table({"doc_id": pa.array([100], pa.int64()), "text": [bench8]})

    out = corpus_clean(rd.from_arrow(docs), threshold=0.5,
                       bench_ds=rd.from_arrow(bench)).to_pandas().sort_values("doc_id")
    got = list(zip(out["doc_id"], out["status"], out["group_id"]))
    assert got == [
        (0, "kept", 0),
        (1, "contaminated", -1),
        (2, "kept", 2),          # partner was decontaminated away
        (3, "exact_dup", 2),
        (4, "quality", -1),
    ]

    # without the bench (or with an unreachable min_overlap) doc 1 anchors
    # the near-dup group instead
    for kw in ({}, dict(bench_ds=rd.from_arrow(bench), min_overlap=2)):
        out2 = corpus_clean(rd.from_arrow(docs), threshold=0.5, **kw).to_pandas()
        st = dict(zip(out2["doc_id"], zip(out2["status"], out2["group_id"])))
        assert st[1] == ("kept", 1) and st[2] == ("near_dup", 1) and st[3] == ("exact_dup", 2)


def test_corpus_clean_custom_column_names(ray_session):
    """corpus_clean with id/text columns named differently (both with
    and without the decontamination stage, which internally rebuilds the
    id column) produces the same dispositions as the default names."""
    import ray.data as rd

    from anomaly_detection_ray.pipelines.clean import corpus_clean

    good = "the dog and the cat of it went " + " ".join(f"token{i:02d}" for i in range(60))
    texts = [good, good, "short doc only",
             "the of and is was be are " + " ".join(f"uniq{i:03d}" for i in range(70))]
    default = pa.table({"doc_id": pa.array(range(4), pa.int64()), "text": texts})
    renamed = pa.table({"item_id": pa.array(range(4), pa.int64()), "body": texts})
    bench = pa.table({"item_id": pa.array([99], pa.int64()), "body": [good]})

    base = corpus_clean(rd.from_arrow(default), threshold=0.5).to_pandas().sort_values("doc_id")
    got = corpus_clean(rd.from_arrow(renamed), text_col="body", id_col="item_id",
                       threshold=0.5).to_pandas().sort_values("doc_id")
    assert list(zip(got["doc_id"], got["status"], got["group_id"])) == \
        list(zip(base["doc_id"], base["status"], base["group_id"]))

    got2 = corpus_clean(rd.from_arrow(renamed), text_col="body", id_col="item_id",
                        threshold=0.5, bench_ds=rd.from_arrow(bench)).to_pandas()
    st = dict(zip(got2["doc_id"], got2["status"]))
    assert st[0] == "contaminated" and st[1] == "contaminated"  # both copies overlap bench
    assert st[3] == "kept"


def test_frame_level_image_dedup(ray_session):
    """The documented video-frame dedup flow: sample_frames → unique
    per-frame id (media_id*1000 + frame_idx) → image_near_dup_pairs. A
    duplicated video's sampled frames pair up frame-for-frame."""
    import ray.data as rd

    from anomaly_detection_ray.stages.multimodal import (
        encode_rawv, image_near_dup_pairs, sample_frames)

    base = _photo_like_image(100)
    frames = np.stack([np.roll(base, 7 * k, axis=1) for k in range(4)])
    media = pa.table({
        "media_id": pa.array([1, 2], pa.int64()),
        "kind": pa.array(["video", "video"]),
        "payload": pa.array([encode_rawv(frames), encode_rawv(frames)], pa.binary()),
    })
    fr = sample_frames(rd.from_arrow(media), frame_samples=4, batch_size=4)

    def frame_id(b: pa.Table) -> pa.Table:
        fid = b["media_id"].to_numpy() * 1000 + b["frame_idx"].to_numpy()
        return b.append_column("frame_uid", pa.array(fid.astype(np.int64)))

    fr = fr.map_batches(frame_id, batch_format="pyarrow", zero_copy_batch=True)
    pairs = image_near_dup_pairs(fr, id_col="frame_uid", batch_size=4).to_pandas()
    got = set(zip(pairs["doc_a"], pairs["doc_b"]))
    # identical frames across the two copies must pair (hamming 0)
    for k in range(4):
        assert (1000 + k, 2000 + k) in got
    zero = pairs[pairs["hamming"] == 0]
    assert len(zero) >= 4


def test_clean_and_write_kept_corpus(ray_session, tmp_path):
    """clean_and_write persists exactly the kept docs, hash-sharded;
    rerunning over the same input reproduces the same layout."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from anomaly_detection_ray.pipelines.clean import clean_and_write

    good = "the dog and the cat of it went " + " ".join(f"token{i:02d}" for i in range(60))
    docs = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": [good, good, "short doc only"],
    })
    out = str(tmp_path / "clean")
    res = clean_and_write(rd.from_arrow(docs), out, n_shards=4, threshold=0.5)
    assert res == {"kept": 1, "total": 3}
    t = pads.dataset(out, partitioning="hive").to_table()
    assert t.num_rows == 1 and t["doc_id"][0].as_py() == 0
    # idempotent rerun
    res2 = clean_and_write(rd.from_arrow(docs), out, n_shards=4, threshold=0.5)
    assert res2 == res
    assert pads.dataset(out, partitioning="hive").count_rows() == 1


def test_decontaminate_overlap(ray_session):
    """Benchmark decontamination: shared 8-gram flags the doc, disjoint
    text does not; min_overlap raises the bar; short docs safe."""
    import ray.data as rd

    from anomaly_detection_ray.stages.dedup import decontaminate

    bench_text = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    corpus = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": [
            "x " + bench_text + " y",          # contains the benchmark 8-grams
            "totally different content with no shared window at all here",
            "",                                 # empty
            "alpha beta gamma",                 # shares tokens but no 8-gram window
        ],
    })
    bench = pa.table({"doc_id": pa.array([100], pa.int64()), "text": [bench_text]})
    out = decontaminate(rd.from_arrow(corpus), rd.from_arrow(bench), k=8).to_pandas().sort_values("doc_id")
    assert list(out["contaminated"]) == [True, False, False, False]
    assert out["n_overlap"].iloc[0] == 3  # windows 1-8, 2-9, 3-10 of the 10-token bench doc
    # min_overlap bar
    out2 = decontaminate(rd.from_arrow(corpus), rd.from_arrow(bench), k=8, min_overlap=4).to_pandas()
    assert not out2.sort_values("doc_id")["contaminated"].any()


def test_corpus_clean_minhash_backend(ray_session):
    """pair_backend='minhash' (LSH candidates, exact-verified) agrees
    with the exact backend on a planted high-jaccard corpus."""
    import ray.data as rd

    from anomaly_detection_ray.pipelines.clean import corpus_clean

    good = "the dog and the cat of it went " + " ".join(f"token{i:02d}" for i in range(60))
    near = good + " tail words"
    docs = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": [good, near,
                 "the of and is was be are " + " ".join(f"uniq{i:03d}" for i in range(70))],
    })
    exact = corpus_clean(rd.from_arrow(docs), threshold=0.8).to_pandas().sort_values("doc_id")
    mh = corpus_clean(rd.from_arrow(docs), threshold=0.8,
                      pair_backend="minhash").to_pandas().sort_values("doc_id")
    assert list(exact["status"]) == list(mh["status"]) == ["kept", "near_dup", "kept"]
    assert list(mh["group_id"]) == [0, 0, 2]


def test_corpus_clean_degenerate_inputs(ray_session):
    """Empty corpus and all-rejected corpus both produce clean results."""
    import ray.data as rd

    from anomaly_detection_ray.pipelines.clean import corpus_clean

    empty = pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())})
    assert len(corpus_clean(rd.from_arrow(empty)).to_pandas()) == 0

    allbad = pa.table({"doc_id": pa.array([0, 1], pa.int64()), "text": ["short", "tiny doc"]})
    out = corpus_clean(rd.from_arrow(allbad)).to_pandas().sort_values("doc_id")
    assert list(out["status"]) == ["quality", "quality"]
    assert list(out["group_id"]) == [-1, -1]


def test_lmscore_hand_computed(ray_session):
    """Unigram NLL and tf-idf keywords on a 3-doc corpus, checked against
    hand-computed values (token-less docs drop from NLL, ties by term)."""
    import math

    import ray.data as rd

    from anomaly_detection_ray.stages.lmscore import doc_nll, tfidf_keywords

    docs = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                     "text": pa.array(["a a b", "b c", "??!"])})
    ds = rd.from_arrow(docs)
    # counts: a=2, b=2, c=1, total=5
    nll = doc_nll(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert list(nll["doc_id"]) == [0, 1]  # doc 2 has no tokens
    want0 = -(2 * math.log(2 / 5) + math.log(2 / 5)) / 3
    want1 = -(math.log(2 / 5) + math.log(1 / 5)) / 2
    assert nll["nll_nats"].to_numpy() == pytest.approx([round(want0, 6), round(want1, 6)])
    # df: a=1, b=2, c=1; N=3
    kw = (tfidf_keywords(ds, k=3).to_pandas()
          .sort_values(["doc_id", "rank"]).reset_index(drop=True))
    d0 = kw[kw["doc_id"] == 0]
    assert list(d0["term"]) == ["a", "b"]  # 2·ln3 > 1·ln1.5
    assert d0["score"].to_numpy() == pytest.approx(
        [round(2 * math.log(3), 6), round(math.log(1.5), 6)])
    d1 = kw[kw["doc_id"] == 1]
    assert list(d1["term"]) == ["c", "b"]  # ln3 > ln1.5
    assert 2 not in set(kw["doc_id"])


def test_chunk_windows_hand_computed():
    """LM-pretraining chunker: window/stride math on hand-checkable docs
    (short doc = one full-length chunk; one-past-boundary doc = a tiny
    tail chunk of overlap+1 tokens; exact-stride doc = full final chunk;
    empty doc emits nothing; the overlap really repeats tokens)."""
    from anomaly_detection_ray.functions.textstats import chunk_windows

    toks10 = " ".join(f"w{i}" for i in range(10))
    toks65 = " ".join(f"w{i}" for i in range(65))
    toks120 = " ".join(f"w{i}" for i in range(120))
    w = chunk_windows([toks10, toks65, "??!", toks120], chunk_tokens=64, overlap=8)
    got = list(zip(w["row"].tolist(), w["chunk_idx"].tolist(), w["n_tokens"].tolist()))
    assert got == [(0, 0, 10), (1, 0, 64), (1, 1, 9), (3, 0, 64), (3, 1, 64)]
    # overlap: chunk 1 of doc 1 starts at token 56 and repeats 8 tokens
    assert w["chunk_text"][2].split() == [f"w{i}" for i in range(56, 65)]
    assert w["chunk_text"][1].split()[-8:] == w["chunk_text"][2].split()[:8]
    # doc 3 has n = 64 + 56 → the second window ends exactly at the doc
    assert w["chunk_text"][4].split() == [f"w{i}" for i in range(56, 120)]
    with pytest.raises(ValueError, match="overlap"):
        chunk_windows(["a b"], chunk_tokens=8, overlap=8)


def test_lmscore_sorted_array_lookup_memory():
    """The scoring actors keep the broadcast vocabulary as SORTED numpy
    arrays + searchsorted lookups — never a per-actor Python dict (which
    would cost ~100 B/term at a 10⁸-term web vocabulary). Numeric side
    memory = 16 B/term exactly; OOV tokens come back NaN."""
    from anomaly_detection_ray.stages.lmscore import _Scorer

    vocab = np.array(sorted(f"t{i:04d}" for i in range(1000)), dtype=object)
    table = {"terms": vocab,
             "c": np.arange(1, 1001, dtype=np.int64),
             "df": np.arange(1, 1001, dtype=np.int64),
             "total": int(np.arange(1, 1001).sum())}
    s = _Scorer(table, text_col="text", id_col="doc_id")
    assert isinstance(s.logp, np.ndarray) and isinstance(s.df, np.ndarray)
    assert s.logp.nbytes + s.df.nbytes == 16 * len(vocab)  # 16 B/term numeric
    toks = np.array(["t0000", "zzz-oov", "t0999", "a"], dtype=object)
    got = s._lookup(toks, s.df)
    assert got[0] == 1.0 and got[2] == 1000.0
    assert np.isnan(got[1]) and np.isnan(got[3])
    # empty vocabulary → all-NaN, no crash
    empty = _Scorer({"terms": np.empty(0, object), "c": np.empty(0, np.int64),
                     "df": np.empty(0, np.int64), "total": 1}, "text", "doc_id")
    assert np.isnan(empty._lookup(toks, empty.df)).all()


def test_overlap_count_trailing_empty_doc(ray_session):
    """Regression: a trailing token-less doc must not steal the previous
    doc's last shingle from its overlap count (the reduceat clamp bug)."""
    import ray.data as rd

    from anomaly_detection_ray.stages.dedup import decontaminate

    # doc 0 = TWO 8-token shingles, both in the bench set; doc 1 = empty
    # → the old clamp ended doc 0's reduceat segment one short and
    # counted 1 instead of 2
    text = "a b c d e f g h i"
    docs = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                     "text": pa.array([text, "?!"])})
    bench = pa.table({"doc_id": pa.array([99], pa.int64()),
                      "text": pa.array([text])})
    out = decontaminate(rd.from_arrow(docs), rd.from_arrow(bench)).to_pandas()
    out = out.sort_values("doc_id").reset_index(drop=True)
    assert out.loc[0, "n_overlap"] == 2 and bool(out.loc[0, "contaminated"])
    assert out.loc[1, "n_overlap"] == 0


def test_temperature_mix_rebalances(ray_session):
    """Temperature mixing: the rarest stratum keeps 100%, heavier strata
    keep (n/n_min)^(alpha-1), and the OUTPUT distribution moves toward
    p^alpha (flatter for alpha<1). Deterministic rerun-identical."""
    import ray.data as rd

    from anomaly_detection_ray.stages.sampling import (
        temperature_fractions, temperature_mix)

    n_a, n_b = 1600, 100  # 16:1 skew
    ids = np.arange(n_a + n_b, dtype=np.int64)
    langs = np.array(["en"] * n_a + ["fr"] * n_b, dtype=object)
    tbl = pa.table({"doc_id": pa.array(ids), "lang": pa.array(langs)})

    fr = temperature_fractions({"en": n_a, "fr": n_b}, alpha=0.5)
    assert fr["fr"] == 1.0 and fr["en"] == pytest.approx((16) ** -0.5)

    out1 = temperature_mix(rd.from_arrow(tbl), "doc_id", "lang", 0.5, seed=3).to_pandas()
    out2 = temperature_mix(rd.from_arrow(tbl), "doc_id", "lang", 0.5, seed=3).to_pandas()
    pd.testing.assert_frame_equal(
        out1.sort_values("doc_id").reset_index(drop=True),
        out2.sort_values("doc_id").reset_index(drop=True))
    counts = out1["lang"].value_counts()
    assert counts["fr"] == n_b  # rarest keeps everything
    # en kept ≈ 1600/sqrt(16) = 400 (low-discrepancy hash tracks closely)
    assert abs(counts["en"] - n_a * 16 ** -0.5) < 40
    # output ratio moved from 16:1 toward sqrt(16)=4:1
    assert 3.0 < counts["en"] / counts["fr"] < 5.0


def test_chunk_dedup_planted(ray_session):
    """Span dedup: doc 0 and doc 2 share their first 8-token chunk —
    global first occurrence (doc 0, chunk 0) wins; intra-doc repeats of
    the same chunk also drop."""
    import ray.data as rd

    from anomaly_detection_ray.stages.dedup import chunk_dedup_stats

    span = "a b c d e f g h"
    docs = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array([
            span + " tail one two three four five six seven",  # 2 chunks
            "totally different words " * 4,                     # unique
            span + " " + span,                                  # dup of doc0 c0, twice
            "",                                                 # token-less
        ]),
    })
    out = (chunk_dedup_stats(rd.from_arrow(docs), chunk_tokens=8).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert list(out["doc_id"]) == [0, 1, 2]  # empty doc emits nothing
    d = out.set_index("doc_id")
    assert d.loc[0, "n_chunks"] == 2 and d.loc[0, "n_kept"] == 2
    assert d.loc[1, "n_kept"] == d.loc[1, "n_chunks"]
    assert d.loc[2, "n_chunks"] == 2 and d.loc[2, "n_kept"] == 0  # both copies lose


def test_repetition_signals_hand_case():
    """Gopher repetition signals against hand counts, incl. the <2-token
    and empty edges."""
    from anomaly_detection_ray.functions.textstats import repetition_signals

    out = repetition_signals([
        "the cat the cat the dog",   # 6 toks: the×3, cat×2, dog; bigrams: 'the cat'×2 of 5
        "a b c d",                   # all distinct
        "x",                         # single token → no bigrams
        "",                          # empty
    ])
    assert list(out["n_tokens"]) == [6, 4, 1, 0]
    assert out["top_word_frac"][0] == pytest.approx(3 / 6)
    assert out["dup_word_frac"][0] == pytest.approx((6 - 3) / 6)
    assert out["top_bigram_frac"][0] == pytest.approx(2 / 5)
    assert out["dup_word_frac"][1] == 0.0 and out["top_word_frac"][1] == pytest.approx(0.25)
    assert out["top_bigram_frac"][2] == 0.0 and out["top_word_frac"][2] == 1.0
    assert out["top_word_frac"][3] == 0.0


def test_pii_redact_batch_and_duckdb_parity():
    """RE2 redaction: sequential email→ip→phone replacement + per-class
    counts on the ORIGINAL text; Arrow kernels byte-identical to
    DuckDB's regexp_replace/extract_all (both RE2)."""
    from anomaly_detection_ray.stages.pii import PII_PATTERNS, redact_batch

    texts = [
        "mail a.b+c@x-y.io now",
        "ip 10.0.255.1 and 1.2.3.4.",
        "call 555-012-3456!",
        "user7@10.0.0.1 oddball",      # not an email (numeric TLD); IP redacts
        "edge 1234-567-8901 no match",  # no word boundary before 234
        "",
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    out = redact_batch(t)
    red = out["text"].to_pylist()
    assert red[0] == "mail <EMAIL> now"
    assert red[1] == "ip <IP> and <IP>."
    assert red[2] == "call <PHONE>!"
    assert red[3] == "user7@<IP> oddball"
    assert red[4] == "edge 1234-567-8901 no match"
    assert out["n_email"].to_pylist() == [1, 0, 0, 0, 0, 0]
    assert out["n_ipv4"].to_pylist() == [0, 2, 0, 1, 0, 0]
    assert out["n_phone"].to_pylist() == [0, 0, 1, 0, 0, 0]

    con = duckdb.connect()
    for txt, expect in zip(texts, red):
        got = txt
        for _, pat, rep in PII_PATTERNS:
            got = con.execute(
                "SELECT regexp_replace(?, ?, ?, 'g')", [got, pat, rep]
            ).fetchone()[0]
        assert got == expect


def test_corpus_clean_redact_merges_pii_only_dups(ray_session, tmp_path):
    """redact=True scrubs PII BEFORE quality/dedup (the C4/RefinedWeb
    order): two docs differing only in an email become exact duplicates
    and the written corpus carries the scrubbed text."""
    import ray.data as rd

    from anomaly_detection_ray.pipelines.clean import clean_and_write, corpus_clean

    base = ("the quick brown fox jumps over the lazy dog and then returns home "
            "to rest for a while before it is time to jump again in the field")
    docs = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array([
            base + " contact alice@example.com",
            base + " contact bob@other.org",
            "a completely different document about streams windows and batch engines "
            "that keeps itself distinct from the fox story in every shingle it has",
        ]),
    })
    bounds = dict(min_tokens=5, min_stopword_hits=0, max_symbol_ratio=1.0,
                  min_mean_len=1.0, min_distinct_ratio=0.1)

    # unredacted, the emails differ → not EXACT dups (the shared prose
    # still makes them near-dups, which is the clustering stage's job)
    plain = corpus_clean(rd.from_arrow(docs), bounds=bounds).to_pandas()
    assert "exact_dup" not in set(plain["status"])

    red = (corpus_clean(rd.from_arrow(docs), bounds=bounds, redact=True)
           .to_pandas().set_index("doc_id"))
    assert red.loc[0, "status"] == "kept"
    assert red.loc[1, "status"] == "exact_dup"
    assert red.loc[2, "status"] == "kept"

    out = str(tmp_path / "cleaned")
    res = clean_and_write(rd.from_arrow(docs), out, bounds=bounds,
                          redact=True, n_shards=4)
    assert res == {"kept": 2, "total": 3}
    import pyarrow.dataset as pads

    written = pads.dataset(out, partitioning="hive").to_table().to_pandas()
    assert sorted(written["doc_id"]) == [0, 2]
    t0 = written.set_index("doc_id").loc[0, "text"]
    assert "<EMAIL>" in t0 and "@" not in t0.replace("<EMAIL>", "")


def test_ccnet_quality_buckets(ray_session):
    """Head/middle/tail thirds by NLL rank: equal-size (±1) buckets,
    every head score <= every middle score <= every tail score, all
    docs present exactly once."""
    import ray.data as rd

    from anomaly_detection_ray.stages.lmscore import ccnet_quality_buckets

    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(40)]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(20, 60)))
             for _ in range(100)]
    docs = pa.table({"doc_id": pa.array(range(100), pa.int64()),
                     "text": pa.array(texts)})
    out = ccnet_quality_buckets(rd.from_arrow(docs)).to_pandas()
    assert sorted(out["doc_id"]) == list(range(100))
    sizes = out["bucket"].value_counts()
    assert sizes["head"] == 34 and sizes["middle"] == 33 and sizes["tail"] == 33
    h = out[out["bucket"] == "head"]["nll_r"]
    m = out[out["bucket"] == "middle"]["nll_r"]
    t = out[out["bucket"] == "tail"]["nll_r"]
    assert h.max() <= m.min() + 1e-12 and m.max() <= t.min() + 1e-12


def test_duplicate_span_stats_planted(ray_session):
    """Stride-1 exact-substring duplication: a copied doc is 100%
    duplicated, a doc sharing only a k-token prefix shows exactly the
    prefix's spans as dups, short docs emit nothing."""
    import ray.data as rd

    from anomaly_detection_ray.stages.dedup import duplicate_span_stats

    k = 8
    base = " ".join(f"w{i}" for i in range(20))           # 20 tokens
    prefix = " ".join(f"w{i}" for i in range(k))          # first 8 tokens
    docs = pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
        "text": pa.array([
            base,                                          # original
            base,                                          # full copy
            prefix + " zz0 zz1 zz2 zz3 zz4 zz5 zz6 zz7",   # shares ONLY the prefix span
            "u0 u1 u2 u3 u4 u5 u6 u7 u8 u9",               # unique
            "tiny doc",                                    # < k tokens → no spans
        ]),
    })
    out = (duplicate_span_stats(rd.from_arrow(docs), span_tokens=k)
           .to_pandas().set_index("doc_id"))
    assert sorted(out.index) == [0, 1, 2, 3]  # doc 4 has no spans
    n = 20 - k + 1
    assert out.loc[0, "n_spans"] == n and out.loc[0, "n_dup_spans"] == n
    assert out.loc[1, "n_dup_spans"] == n and out.loc[1, "dup_frac"] == 1.0
    # doc 2: 16 tokens → 9 spans; only span at position 0 (the shared
    # prefix) also occurs in docs 0/1
    assert out.loc[2, "n_spans"] == 9 and out.loc[2, "n_dup_spans"] == 1
    assert out.loc[3, "n_dup_spans"] == 0 and out.loc[3, "dup_frac"] == 0.0


def test_grouping_stages_need_no_ray_data_groupby(ray_session, monkeypatch, tmp_path):
    """Every grouping stage outside both layers runs on the raw-Ray
    exchange keyed on its real grouping key: with Ray Data's
    ``Dataset.groupby`` (``aggregate``/``sum``/``min``/``max`` run as
    ``groupby(None)``) and ``Dataset.sort`` made to raise, each function
    answers, and with ``PART_BYTES`` forcing P ≥ 2 parts it returns the
    frame it returns at P = 1 (no group spans two parts)."""
    import os

    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    import ray.data as rd
    from ray.data import Dataset

    from anomaly_detection_ray.pipelines import clean, queries
    from anomaly_detection_ray.stages import ann, dedup, exchange, lmscore, sampling
    from anomaly_detection_ray.stages.correlation import correlate_clusters

    src = pq.read_table(DOCS, columns=["doc_id", "text", "lang"])
    copies = src.slice(0, 20).set_column(0, "doc_id", pa.array(np.arange(1000, 1020)))
    docs = pa.concat_tables([src, copies])  # 20 exact duplicates
    emb = pq.read_table(EMB)
    rng = np.random.default_rng(4)
    sketches = np.repeat(rng.integers(0, 2**63, 30, dtype=np.int64), 3)
    sketches[::3] ^= 1 << 40  # a one-bit twin in every group
    sk = pa.table({"doc_id": pa.array(np.arange(sketches.size)), "simhash": pa.array(sketches)})
    chain = pa.table({"doc_a": pa.array([1, 2, 3, 10], pa.int64()),
                      "doc_b": pa.array([2, 3, 4, 11], pa.int64())})
    anoms = pd.DataFrame({"model_id": [f"m{i}" for i in range(6)], "config_id": "d",
                          "start_ms": np.arange(6) * 600_000, "end_ms": np.arange(6) * 600_000 + 900_000})

    def D():
        return rd.from_arrow(docs)

    def clean_and_write(*args, **kwargs):
        clean.clean_and_write(*args, **kwargs)
        return pads.dataset(args[1], partitioning="hive").to_table()

    def patched(mod, name, value, f):
        def run():
            with monkeypatch.context() as m:
                m.setattr(mod, name, value)
                return f()
        return run

    cases = {
        "exact_dedup": lambda: dedup.exact_dedup(D()),
        "ngram": lambda: dedup.ngram_jaccard_pairs(D(), threshold=0.05, min_shared=2),
        "minhash": lambda: dedup.minhash_near_dup_pairs(D(), threshold=0.3),
        "simhash": lambda: dedup.simhash_near_dup_pairs(D()),
        "hamming_chunk_pairs": lambda: dedup.hamming_near_dup_pairs(
            rd.from_arrow(sk), max_hamming=2, n_chunks=4, chunk_pairs=True),
        "near_dup_groups": lambda: dedup.near_dup_groups(D(), threshold=0.05),
        "components_iterative": patched(dedup, "SMALL_GRAPH_ROWS", 0,
                                        lambda: dedup.connected_components(rd.from_arrow(chain))),
        "near_dup_groups_minhash": lambda: dedup.near_dup_groups_minhash(D(), threshold=0.3),
        "chunk_dedup": lambda: dedup.chunk_dedup_stats(D()),
        "duplicate_spans": lambda: dedup.duplicate_span_stats(D()),
        "corpus_clean": lambda: clean.corpus_clean(D(), threshold=0.5),
        "corpus_clean_exchange": patched(clean, "EXACT_DUP_BROADCAST_MAX", 0,
                                         lambda: clean.corpus_clean(D(), threshold=0.5)),
        "corpus_clean_decontam": lambda: clean.corpus_clean(
            D(), threshold=0.5, bench_ds=rd.from_arrow(src.slice(40, 3))),
        "clean_and_write": lambda: clean_and_write(D(), str(tmp_path / "kept"), n_shards=4, threshold=0.5),
        "embedding_pairs": lambda: ann.embedding_near_dup_pairs(rd.from_arrow(emb), threshold=0.4),
        "embedding_lsh": lambda: ann.embedding_near_dup_lsh(rd.from_arrow(emb), threshold=0.45,
                                                            n_bands=24, bits_per_band=6),
        "term_table": lambda: lmscore.term_table(D()),
        "temperature_mix": lambda: sampling.temperature_mix(D(), "doc_id", "lang", 0.5),
        "tpch_q1": lambda: queries.q_tpch_q1(os.path.dirname(DOCS)),
        "correlate": lambda: correlate_clusters(anoms),
    }

    def frame(x) -> pd.DataFrame:
        df = x if isinstance(x, pd.DataFrame) else x.to_pandas()
        df = df[sorted(df.columns)]
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    def refuse(*args, **kwargs):
        raise AssertionError("a Ray Data groupby/sort plan")

    real = exchange.exchange

    def run_all(parts):
        used = []

        def spy(inputs, split, split_arg, n_parts, *rest):
            if parts:
                n_parts, split_arg = parts, (*split_arg[:-1], parts)  # the part count is last
            used.append(n_parts)
            return real(inputs, split, split_arg, n_parts, *rest)

        monkeypatch.setattr(exchange, "exchange", spy)
        return {name: frame(f()) for name, f in cases.items()}, used

    monkeypatch.setattr(Dataset, "groupby", refuse)
    monkeypatch.setattr(Dataset, "sort", refuse)
    one, used1 = run_all(1)
    monkeypatch.setattr(exchange, "PART_BYTES", 256 << 10)
    many, used = run_all(None)
    assert set(used1) == {1} and min(used) >= 2
    for name in cases:
        pd.testing.assert_frame_equal(many[name], one[name], check_exact=True, obj=name)
    assert len(one["exact_dedup"]) == 500 and len(one["ngram"]) and len(one["minhash"])
    assert (one["near_dup_groups"]["group_id"] != one["near_dup_groups"]["doc_id"]).any()
    assert set(one["corpus_clean"]["status"]) >= {"exact_dup", "kept"}
    assert len(one["hamming_chunk_pairs"]) == 90 and len(one["embedding_pairs"])
    assert one["components_iterative"]["label"].tolist() == [1, 1, 1, 1, 10, 10]
