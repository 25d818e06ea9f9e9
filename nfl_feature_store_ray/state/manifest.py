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

Fingerprints are order-insensitive (XOR of row hashes) so they are stable
under block/batch nondeterminism.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pandas as pd
import ray.data

from nfl_feature_store_ray.schemas import DEFAULT_NUM_BUCKETS
from nfl_feature_store_ray.stages.bucketize import BUCKET_COL, with_bucket

_FP_KEY = "nfl_fs_lineage!!"  # 16 bytes


def _col_as_str(s: pd.Series) -> pd.Series:
    # bytes cells (e.g. packed hash arrays) are not utf-8 decodable —
    # represent them losslessly via hex instead of astype(str)
    if s.dtype == object:
        nn = s.dropna()
        if len(nn) and isinstance(nn.iloc[0], (bytes, bytearray)):
            return s.map(
                lambda b: b.hex() if isinstance(b, (bytes, bytearray)) else str(b)
            )
    return s.astype(str)


def group_fingerprint(df: pd.DataFrame, cols: list[str]) -> str:
    joined = (
        pd.concat([_col_as_str(df[c]) for c in cols], axis=1).agg("|".join, axis=1)
        if len(df)
        else pd.Series([], dtype=object)
    )
    h = pd.util.hash_pandas_object(
        joined, index=False, hash_key=_FP_KEY
    ).to_numpy(dtype=np.uint64)
    x = np.bitwise_xor.reduce(h) if len(h) else np.uint64(0)
    return f"{int(x):016x}-{len(df)}"


def partitioned_commit(
    ds: ray.data.Dataset,
    out_dir: str,
    key: str = "conv_id",
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    transform=None,
    fingerprint_cols: list[str] | None = None,
) -> ray.data.Dataset:
    """Lazy partition-commit stage: partition ``ds`` by hash(key), apply
    ``transform`` per partition, write each partition + manifest
    atomically; skip partitions whose manifest already matches the input
    fingerprint. Each task's output is its partition's manifest row.

    STALE PARTITIONS: this lazy stage cannot prune files of buckets that
    vacated the input (it never learns the full bucket set) — use the
    eager ``write_partitioned`` (which prunes) for layouts consumed by
    glob-based readers. Consumers of a lazy-commit layout must filter by
    CURRENT keys, or read via the manifests."""
    os.makedirs(out_dir, exist_ok=True)

    def commit(group: pd.DataFrame) -> pd.DataFrame:
        bucket = int(group[BUCKET_COL].iloc[0])
        group = group.drop(columns=[BUCKET_COL])
        # default: fingerprint EVERY column — a value change without a key
        # change must invalidate the partition ("pure function of the
        # input"); pass fingerprint_cols only when a cheaper column subset
        # provably determines the output
        fcols = fingerprint_cols or list(group.columns)
        t0 = time.perf_counter()
        fp = group_fingerprint(group, fcols)
        part_path = os.path.join(out_dir, f"part-{bucket:05d}.parquet")
        man_path = os.path.join(out_dir, f"part-{bucket:05d}.json")

        if os.path.exists(man_path) and os.path.exists(part_path):
            with open(man_path) as f:
                prev = json.load(f)
            if prev.get("input_fingerprint") == fp:
                prev["skipped"] = True
                return pd.DataFrame([prev])

        out = transform(group) if transform is not None else group
        tmp = part_path + ".tmp"
        out.to_parquet(tmp, index=False)
        os.replace(tmp, part_path)  # atomic commit
        secs = time.perf_counter() - t0
        manifest = {
            "bucket": bucket,
            "input_fingerprint": fp,
            "rows_in": int(len(group)),
            "rows_out": int(len(out)),
            "output_file": part_path,
            "seconds": round(secs, 4),
            "rows_per_sec": round(len(group) / secs, 1) if secs > 0 else None,
            "skipped": False,
        }
        mtmp = man_path + ".tmp"
        with open(mtmp, "w") as f:
            json.dump(manifest, f)
        os.replace(mtmp, man_path)
        return pd.DataFrame([manifest])

    bucketed = with_bucket(ds, key=key, num_buckets=num_buckets)
    return bucketed.groupby(BUCKET_COL).map_groups(commit, batch_format="pandas")


def write_partitioned(
    ds: ray.data.Dataset,
    out_dir: str,
    key: str = "conv_id",
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    transform=None,
    fingerprint_cols: list[str] | None = None,
) -> pd.DataFrame:
    """Eager wrapper over ``partitioned_commit``: runs the commit and
    returns the manifest frame (one row per partition: bucket, rows
    in/out, fingerprint, seconds, rows/sec, skipped flag)."""
    manifests = partitioned_commit(
        ds, out_dir, key=key, num_buckets=num_buckets, transform=transform,
        fingerprint_cols=fingerprint_cols,
    )
    man = manifests.to_pandas().sort_values("bucket").reset_index(drop=True)
    # prune STALE partitions: a bucket whose keys all disappeared from the
    # input emits no commit task, so its old files would otherwise survive
    # and leak removed rows into glob-based readers of the layout
    import glob

    live = {f"part-{int(b):05d}" for b in man["bucket"]}
    for path in glob.glob(os.path.join(out_dir, "part-*.parquet")) + glob.glob(
        os.path.join(out_dir, "part-*.json")
    ):
        stem = os.path.basename(path).rsplit(".", 1)[0]
        if stem not in live:
            os.remove(path)
    return man
