"""Model checkpointing — the analogue of ``ADCheckpointDao.java:60-591``.

Models are pickled per model-id under ``checkpoint_dir`` with a JSON
manifest (sha256, n_points, last_window_end — the lineage the north
rule asks for). A scoring pass restores each model it touches and
re-saves after processing, so a second pipeline run over later windows
continues streams instead of retraining (C6 semantics); restoring and
reprocessing the same windows is idempotent because out-of-order
samples are dropped (§2.F ordering rule).

Model ids can contain characters unsafe for filenames, so files are
keyed by sha256(model_id).

Blobs are stamped with a ``format_version`` (the reference keeps golden
checkpoints of every historical schema and reads them all —
``ADCheckpointDao.java:60-138`` legacy-JSON handling,
``src/test/resources/.../checkpoint_1..4.json``); a known version loads,
an unknown/newer version refuses with a clear message instead of
mis-deserializing a running job's state.

- **Version 2** (written now): each pickled ``RCForest`` carries its
  reservoir, its build snapshot and its tree topology (``_topo``: the
  packed "is internal" bitmap in node-id order, each split's ``dim`` and
  ``cut``). Unpickling re-derives boxes, counts and extents from the
  snapshot (``RCForest._restore_from``) — a restore never rebuilds.
- **Version 1** (blobs without the stamp, or stamped 1): the same
  state dict, but forests carry no topology, so unpickling rebuilds each
  forest from its snapshot and epoch (``RCForest._build_from``) — the
  same forest, bit for bit. Re-saving writes version 2.
"""

from __future__ import annotations

import glob
import json
import os
import pickle

from ..functions.hashing import sha256_hex
from .model import TRCFModel

# bump when the state-dict layout changes; add a migration branch in
# load_state for every version this reader still accepts
FORMAT_VERSION = 2
READABLE_VERSIONS = (1, 2)


def list_checkpoints(root: str) -> list[tuple[str, dict]]:
    """Every model's checkpoint under ``root`` as (blob path, sidecar
    meta), in path order; an unreadable sidecar is skipped. The one
    reader of the sidecar layout (``CheckpointStore._path`` + ``.json``).
    It only reads: a missing ``root`` lists nothing and is not created."""
    out = []
    for meta_path in sorted(glob.glob(os.path.join(root, "*", "*.pkl.json"))):
        try:
            with open(meta_path) as f:
                out.append((meta_path[: -len(".json")], json.load(f)))
        except (OSError, ValueError):
            continue
    return out


class CheckpointStore:
    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, model_id: str) -> str:
        # two-level fan-out by hash prefix: 1M models in one flat dir
        # makes listing/GC and many filesystems miserable; 256 shards
        # keep each directory ~4k files at that scale. Side-effect free:
        # only save_state() creates the shard dir, so pure reads (cache
        # misses, profile lookups) never pollute the store.
        h = sha256_hex(model_id)
        return os.path.join(self.root, h[:2], h[:32] + ".pkl")

    # ---- generic state blobs (shared by the AD and forecast sides) ----

    def load_state(self, model_id: str) -> dict | None:
        try:
            with open(self._path(model_id), "rb") as f:
                state = pickle.load(f)
        except FileNotFoundError:
            return None
        if state.get("model_id") != model_id:
            return None  # hash-prefix collision — treat as cold start
        # A blob without the stamp predates versioning = format 1. Its
        # migration happened while unpickling: forests without a topology
        # rebuild from their snapshot (RCForest.__setstate__). An UNKNOWN
        # version must refuse loudly (silently mis-reading a newer
        # engine's state would corrupt a running job), never cold-start.
        version = int(state.get("format_version", 1))
        if version not in READABLE_VERSIONS:
            raise ValueError(
                f"checkpoint for {model_id!r} has format_version={version}; "
                f"this engine reads versions {READABLE_VERSIONS} — upgrade the "
                "engine or re-train the model"
            )
        return state

    def save_state(self, model_id: str, state: dict, n_points: int | None = None,
                   last_window_end: int | None = None) -> dict:
        p = self._path(model_id)
        os.makedirs(os.path.dirname(p), exist_ok=True)
        state = dict(state, model_id=model_id, format_version=FORMAT_VERSION)
        blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        tmp = f"{p}.tmp.{os.getpid()}"
        with open(tmp, "wb") as f:
            f.write(blob)
        os.replace(tmp, p)
        meta = {
            "model_id": model_id,
            "format_version": FORMAT_VERSION,
            "sha256": sha256_hex(blob),
            "n_points": n_points,
            "last_window_end": last_window_end,
            "bytes": len(blob),
        }
        meta_tmp = f"{p}.json.tmp.{os.getpid()}"
        with open(meta_tmp, "w") as f:
            json.dump(meta, f)
        os.replace(meta_tmp, p + ".json")
        return meta

    # ---- TRCF models ----

    def load(self, model_id: str) -> TRCFModel | None:
        state = self.load_state(model_id)
        return TRCFModel.from_state(state) if state is not None else None

    def save(self, model: TRCFModel) -> dict:
        return self.save_state(
            model.model_id, model.to_state(),
            n_points=model.n_points, last_window_end=model.last_window_end,
        )

    def gc(self, before_window_end_ms: int) -> int:
        """E3 retention cleanup (``ad/cluster/diskcleanup/*``, 3-day TTL
        hourly in the reference): drop checkpoints whose stream hasn't
        advanced past the cutoff. Returns the number removed."""
        removed = 0
        for pkl, meta in list_checkpoints(self.root):
            last = meta.get("last_window_end")
            if last is not None and last < before_window_end_ms:
                for p in (pkl, pkl + ".json"):
                    try:
                        os.remove(p)
                    except FileNotFoundError:
                        pass
                removed += 1
        return removed
