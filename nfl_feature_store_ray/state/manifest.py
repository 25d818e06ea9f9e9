"""Per-partition checkpoint manifests — resumable partitioned output.

The reference's incrementality is "rewrite whole season files, discover
staleness by scanning output" (`feature_store_runner.py:39-55`) and its
shipped outputs are provably run-window-dependent (SURVEY §0 probe 5).
The rebuild replaces that with deterministic lineage manifests:

- output is partitioned by the engine's hash-bucket key (one directory of
  ``part-{bucket:05d}.parquet`` files — never one giant file);
- each partition commit writes ``part-{bucket}.json`` AFTER an atomic
  tmp-file rename, recording the input fingerprint, row counts, and
  throughput metrics (the north rule's per-partition lineage + metrics);
- a resumed run recomputes fingerprints from the (deterministic) input
  partition and SKIPS partitions whose manifest matches — "resumes
  mid-shuffle" because the bucket shuffle output is what is checkpointed.

A fingerprint is the wrapping ``uint64`` sum of polars row hashes
(``DataFrame.hash_rows`` under a fixed seed) plus the row count. The sum
is order-insensitive, so it is stable under block/batch nondeterminism,
and a row's hash does not depend on the other rows, so a commit task
hashes its whole range of partitions in one pass and sums the hashes per
partition (``np.add.reduceat``), bit for bit the per-partition value.
It is also duplicate-sensitive (two equal rows do not cancel, as they did
under XOR) and null-sensitive (a null cell hashes apart from the string
``"None"``), and columns are hashed apart rather than joined into one
string. Row hashes depend on the polars version: a store committed by an
older fingerprint, or under another polars version, rewrites every
partition once on its next run and never skips one wrongly.
"""

from __future__ import annotations

import glob
import json
import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from nfl_feature_store_ray.schemas import DEFAULT_NUM_BUCKETS
from nfl_feature_store_ray.stages.bucketize import BUCKET_COL, exchange, shuffle_buckets
from nfl_feature_store_ray.state.window_kernel_pl import _pl

_FP_SEED = 0x6E666C5F6673  # pinned: a new seed rewrites every stored partition

MANIFEST_SCHEMA = pa.schema([
    ("bucket", pa.int64()), ("input_fingerprint", pa.string()),
    ("rows_in", pa.int64()), ("rows_out", pa.int64()), ("output_file", pa.string()),
    ("seconds", pa.float64()), ("rows_per_sec", pa.float64()), ("skipped", pa.bool_()),
])
MANIFEST_COLUMNS = MANIFEST_SCHEMA.names


def _row_hashes(group: pa.Table | pd.DataFrame, cols: list[str]) -> np.ndarray:
    """uint64 hash of each row of ``group[cols]``; a row's hash does not
    depend on the other rows."""
    pl = _pl()  # lazy: importing polars adds ~20 MB resident to the Ray head process
    frame = (
        pl.from_pandas(group[cols])
        if isinstance(group, pd.DataFrame)
        else pl.from_arrow(group.select(cols))
    )
    return frame.hash_rows(seed=_FP_SEED).to_numpy()


def group_fingerprint(group: pa.Table | pd.DataFrame, cols: list[str]) -> str:
    """``{wrapping sum of the row hashes of group[cols]:016x}-{rows}``."""
    h = _row_hashes(group, cols)
    return f"{int(h.sum(dtype=np.uint64)):016x}-{len(h)}"


def partitioned_commit(
    ds: ray.data.Dataset,
    out_dir: str,
    key: str = "conv_id",
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    transform=None,
) -> ray.data.Dataset:
    """Lazy partition-commit stage: partition ``ds`` by hash(key), apply
    ``transform`` per partition, write each partition + manifest
    atomically; skip partitions whose manifest already matches the input
    fingerprint. The ``num_buckets`` partitions are spread over
    ``shuffle_buckets()`` tasks, a contiguous range of whole partitions
    each; a task hashes its rows once and outputs one manifest row per
    partition it holds. A manifest's ``seconds`` times that partition's
    share of the task's hash pass (by rows), its skip check, transform and
    writes.

    ``transform`` maps one partition's ``pa.Table`` (whole conversations,
    bucket column dropped, one chunk per column) to the ``pa.Table`` that
    is written as ``part-{bucket:05d}.parquet``.

    STALE PARTITIONS: this lazy stage cannot prune files of buckets that
    vacated the input (it never learns the full bucket set) — use the
    eager ``write_partitioned`` (which prunes) for layouts consumed by
    glob-based readers. Consumers of a lazy-commit layout must filter by
    CURRENT keys, or read via the manifests."""
    os.makedirs(out_dir, exist_ok=True)

    def commit_one(bucket: int, group: pa.Table, fp: str, hash_s: float) -> dict:
        # hash_s: this partition's share of the task's fingerprint pass
        t0 = time.perf_counter() - hash_s
        part_path = os.path.join(out_dir, f"part-{bucket:05d}.parquet")
        man_path = os.path.join(out_dir, f"part-{bucket:05d}.json")

        if os.path.exists(man_path) and os.path.exists(part_path):
            with open(man_path) as f:
                prev = json.load(f)
            if prev.get("input_fingerprint") == fp:
                prev["skipped"] = True
                return prev

        out = transform(group) if transform is not None else group
        tmp = part_path + ".tmp"
        pq.write_table(out, tmp)
        os.replace(tmp, part_path)  # atomic commit
        secs = time.perf_counter() - t0
        manifest = {
            "bucket": bucket,
            "input_fingerprint": fp,
            "rows_in": group.num_rows,
            "rows_out": out.num_rows,
            "output_file": part_path,
            "seconds": round(secs, 4),
            "rows_per_sec": round(group.num_rows / secs, 1) if secs > 0 else None,
            "skipped": False,
        }
        mtmp = man_path + ".tmp"
        with open(mtmp, "w") as f:
            json.dump(manifest, f)
        os.replace(mtmp, man_path)
        return manifest

    def commit(block: pa.Table) -> pa.Table:
        # whole buckets sorted by bucket: one hash pass over the block, then
        # each bucket's fingerprint is the wrapping sum of its rows' hashes
        # (equal to group_fingerprint of that bucket alone)
        buckets = block[BUCKET_COL].to_numpy()
        starts = np.flatnonzero(np.diff(buckets, prepend=-1))
        ends = np.r_[starts[1:], len(buckets)]
        block = block.drop_columns([BUCKET_COL])
        # fingerprint EVERY column: a value change without a key change
        # must invalidate the partition ("pure function of the input")
        t0 = time.perf_counter()
        hashes = _row_hashes(block, block.column_names)
        row_s = (time.perf_counter() - t0) / max(len(hashes), 1)
        sums = np.add.reduceat(hashes, starts)
        return pa.Table.from_pylist([
            commit_one(int(buckets[a]), block.slice(a, b - a), f"{int(h):016x}-{b - a}",
                       row_s * (b - a))
            for a, b, h in zip(starts, ends, sums)
        ], schema=MANIFEST_SCHEMA)

    # the persisted buckets, a contiguous range of them per task
    return exchange(ds, commit, key, num_buckets, tasks=shuffle_buckets())


def write_partitioned(
    ds: ray.data.Dataset,
    out_dir: str,
    key: str = "conv_id",
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    transform=None,
) -> pd.DataFrame:
    """Eager wrapper over ``partitioned_commit`` (same ``pa.Table ->
    pa.Table`` ``transform`` contract): runs the commit and returns the
    manifest frame (one row per partition: bucket, rows in/out,
    fingerprint, seconds, rows/sec, skipped flag; no rows for an empty
    input)."""
    manifests = partitioned_commit(
        ds, out_dir, key=key, num_buckets=num_buckets, transform=transform,
    ).to_pandas()
    if manifests.empty:
        manifests = pd.DataFrame(columns=MANIFEST_COLUMNS)
    man = manifests.sort_values("bucket").reset_index(drop=True)
    # prune STALE partitions: a bucket whose keys all disappeared from the
    # input emits no commit task, so its old files would otherwise survive
    # and leak removed rows into glob-based readers of the layout
    live = {f"part-{int(b):05d}" for b in man["bucket"]}
    for path in glob.glob(os.path.join(out_dir, "part-*.parquet")) + glob.glob(
        os.path.join(out_dir, "part-*.json")
    ):
        stem = os.path.basename(path).rsplit(".", 1)[0]
        if stem not in live:
            os.remove(path)
    return man
