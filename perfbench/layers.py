"""Per-layer measurement: spans, Ray Data operator stats, store counters.

Spans are recorded from the benchmark's own files around each call into a
layer's public function; the call is made measurable by materializing its
output at that boundary. Spans stay in memory until ``Tracer.dump``.

Ray Data's per-operator stats of a consumed Dataset map onto the layers
by operator name (``OPERATOR_LAYERS``). Store counters are read from the
files the program leaves behind: manifest JSONs, state pickles, parquet
sizes.
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import time

import numpy as np

# Ray fuses adjacent map operators (ReadParquet->...->MapBatches(add)), so a
# fused operator can match several layers; the traced jobs take those layers
# from spans around materialized boundaries instead.
OPERATOR_LAYERS = {
    "ReadParquet": "sources",
    "MapBatches(add)": "stages.bucketize",
    "Sort": "stages.bucketize.shuffle",
    "MapBatches(kern)": "state.window_kernel_pl",
    "merge_bucket": "state.asof",
    "commit": "state.manifest",
    "process": "state.incremental",
}


class Tracer:
    """In-memory span log: (name, job, parent, start, end) per span."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.job = 0

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "name": name, "job": self.job,
            "parent": self.spans[self._stack[-1]]["name"] if self._stack else None,
            "start": time.perf_counter(),
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def seconds(self, name: str, job: int) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name and s["job"] == job)

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(self.spans, f)


def operator_stats(ds) -> dict:
    """Sum Ray Data's per-operator stats of a consumed Dataset by layer:
    ``{layer: {"busy_s", "rows", "bytes"}}`` plus the driver's blocked
    time in ``iter_batches`` and bytes spilled."""
    summary = ds._plan.stats().to_summary()
    out: dict = {}

    def walk(s) -> None:
        for op in s.operators_stats:
            for pattern, layer in OPERATOR_LAYERS.items():
                if pattern in op.operator_name:
                    acc = out.setdefault(layer, {"busy_s": 0.0, "rows": 0, "bytes": 0})
                    acc["busy_s"] += op.wall_time.get("sum", 0.0) if op.wall_time else 0.0
                    # a sort's map side carries every row once
                    if layer != "stages.bucketize.shuffle" or "SortMap" in op.operator_name:
                        acc["rows"] += op.output_num_rows.get("sum", 0) if op.output_num_rows else 0
                        acc["bytes"] += (
                            op.output_size_bytes.get("sum", 0) if op.output_size_bytes else 0
                        )
        for p in s.parents:
            walk(p)

    walk(summary)
    it = summary.iter_stats
    out["driver"] = {"blocked_s": it.block_time.get() if it is not None else 0.0}
    out["spilled_bytes"] = getattr(summary, "dataset_bytes_spilled", 0) or 0
    return out


def bucket_sizes(*bucketed):
    """Rows per bucket index, summed over ``with_bucket`` outputs."""
    counts = np.zeros(0, np.int64)
    for ds in bucketed:
        for b in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
            c = np.bincount(b.column("_bucket").to_numpy())
            counts = np.pad(counts, (0, max(0, len(c) - len(counts))))
            counts[: len(c)] += c
    return counts


def skew(counts) -> float:
    """max / mean rows over the non-empty buckets."""
    nz = counts[counts > 0]
    return float(nz.max() / nz.mean()) if len(nz) else 0.0


def manifests(part_dir: str) -> dict[str, dict]:
    out = {}
    for p in glob.glob(os.path.join(part_dir, "part-*.json")):
        with open(p) as f:
            out[os.path.basename(p)] = dict(json.load(f), mtime_ns=os.stat(p).st_mtime_ns)
    return out


def bytes_written_since(dirs: list[str], since_ns: int) -> int:
    """Bytes of files under ``dirs`` created or replaced at or after
    ``since_ns`` (every store write is a tmp-file rename, so a rewritten
    file carries a fresh mtime)."""
    total = 0
    for d in dirs:
        for root, _, files in os.walk(d):
            for name in files:
                st = os.stat(os.path.join(root, name))
                if st.st_mtime_ns >= since_ns:
                    total += st.st_size
    return total


def _ppid_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            kids.setdefault(ppid, []).append(int(d))
    return kids


def descendants() -> list[int]:
    """Every live process below this one (Ray's daemons and workers)."""
    kids, out, todo = _ppid_map(), [], [os.getpid()]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def state_bytes(state_dir: str) -> int:
    return sum(os.path.getsize(p) for p in glob.glob(os.path.join(state_dir, "*.state.pkl")))
