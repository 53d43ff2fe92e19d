"""Tailing (incremental) file source for continuous job ticks.

The reference's scheduled jobs re-query the live index for "whatever new
data arrived" each interval (``timeseries/JobProcessor.java:129-175``);
the parquet-dir analogue is a growing directory of immutable part files.
Re-scanning the WHOLE directory every tick is correct (out-of-order
windows drop) but wasteful — at realtime scale each tick should read
only the files that appeared since the last one.

:class:`TailingSource` tracks processed files in a JSON manifest
(path → (size, mtime)). ``poll()`` lists files that are new **or
changed** since the last ``commit()``; ``commit()`` persists the
manifest atomically (temp file + ``os.replace``) and is called only
AFTER the tick's results are written, so a crash between the two
reprocesses the same files on restart, and ticks drop the overlapping
windows. That retry is not yet lossless: the scorer saves each model's
checkpoint BEFORE the results are written, so a tick whose sink fails
after scoring drops its new windows as out-of-order on the retry
(``tests/test_realtime_ops.py::test_sink_failure_retry_emits_every_window``,
a strict xfail until checkpoints commit after the results).

A changed file (size or mtime moved) is treated as wholly new: its old
rows are re-read and dropped as out-of-order, its appended rows are
processed — append-style CSV/JSONL logs work without special casing.
"""

from __future__ import annotations

import json
import os


class TailingSource:
    def __init__(self, input_path: str, manifest_path: str,
                 suffixes: tuple[str, ...] = (".parquet", ".pq", ".csv", ".jsonl", ".ndjson", ".json")):
        self.input_path = input_path
        self.manifest_path = manifest_path
        self.suffixes = tuple(suffixes)
        self._seen: dict[str, list] = {}
        if os.path.exists(manifest_path):
            with open(manifest_path) as f:
                self._seen = json.load(f)

    def _list(self) -> list[str]:
        if os.path.isfile(self.input_path):
            return [self.input_path]
        out = []
        for root, _, names in os.walk(self.input_path):
            for n in sorted(names):
                if n.startswith((".", "_")):
                    continue  # staging dirs / _metadata
                if n.lower().endswith(self.suffixes):
                    out.append(os.path.join(root, n))
        return sorted(out)

    @staticmethod
    def _stat(path: str) -> list:
        st = os.stat(path)
        return [st.st_size, st.st_mtime_ns]

    def poll(self) -> list[str]:
        """Files new or changed since the last commit, sorted."""
        return [p for p in self._list()
                if os.path.exists(p) and self._seen.get(p) != self._stat(p)]

    def commit(self, files: list[str]) -> None:
        """Mark ``files`` processed; atomic manifest replace."""
        for p in files:
            if os.path.exists(p):
                self._seen[p] = self._stat(p)
        tmp = f"{self.manifest_path}.tmp-{os.getpid()}"
        os.makedirs(os.path.dirname(os.path.abspath(self.manifest_path)), exist_ok=True)
        with open(tmp, "w") as f:
            json.dump(self._seen, f)
        os.replace(tmp, self.manifest_path)
