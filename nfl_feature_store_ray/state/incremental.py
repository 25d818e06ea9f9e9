"""Incremental append: process ONLY newly appended turns, seeded by
persisted per-conversation carry state.

This is the true feature-store upsert the reference approximates with
daily whole-season recomputes (`feature_store_runner.py:39-55`) and that
partition-level resume (state.manifest) only approximates at partition
granularity (any change rewrites the whole partition). Here each
partition's per-conversation carry (tails + O(1) registers + watermarks,
``window_kernel_pl.kernel_arrow``'s carry table) is CHECKPOINTED next to
the layout; the next run restores it, skips every already-processed turn
by per-conversation processed count, runs just the delta through the
window kernel with that carry, and atomically re-checkpoints. A partition
whose delta is empty is left alone: its state file is not rewritten.

Each task runs one plan over its share of the partition files, because
at delta sizes the fixed cost per call, not the rows, sets the time: one
read of all its files into one frame (each row tagged with its file),
one delta selection against the concatenated carries, one kernel call,
then one ``partition_by(file)`` of the new carry, of which only the
partitions with a delta are written.

State format: each ``part-*.state.pkl`` holds one Arrow IPC file with the
partition's carry table (the ``.state.pkl`` name is kept so existing
tooling that globs the state files keeps working). ``_incremental_meta.json``
records ``STATE_FORMAT``; a state dir written in any other format — e.g.
the earlier pickled per-conversation objects — is rejected with a
"rebuild the state dir" error rather than read.

Cost model at scale: a run reads every partition file and every carry
once (O(stored rows) read and delta selection, one task per CPU), but
runs the kernel over O(appended rows) plus the carried tails of the
conversations they touch, and writes O(active conversations) of carry
only for the partitions that grew. Equality with
the batch engine at every append split is pinned by
tests/test_incremental.py and the driver gate `w_incremental_append`
(phase-1 features ∪ phase-2 features == full-batch == DuckDB SQL).
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import ray.data

from nfl_feature_store_ray.pipelines.partitioned import partition_files
from nfl_feature_store_ray.stages.bucketize import cluster_cpus

STATE_FORMAT = "arrow-carry-1"


def _state_path(state_dir: str, part_basename: str) -> str:
    return os.path.join(state_dir, part_basename.replace(".parquet", ".state.pkl"))


def _check_meta(state_dir: str, meta: dict) -> None:
    """CONTRACT GUARDS. (1) State is keyed by partition file: if the
    layout's bucket count changed between runs, conversations migrate
    buckets and their state would be missed (silently re-emitting old
    turns). Pin the partition NAME SET, not just the count: a re-bucketed
    layout can keep the same number of non-empty files under different
    names, while a valid append can only ADD names (a previously-empty
    bucket filling up — its missing state file means "nothing done yet").
    (2) Metrics, phases and the state format must stay fixed. (3) Input
    must be APPEND-ONLY per conversation: removed/edited rows are not
    detected (the ts watermark catches reordering, not removal)."""
    meta_path = os.path.join(state_dir, "_incremental_meta.json")
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            prev = json.load(f)
        same = all(prev.get(k) == meta[k] for k in ("state_format", "metrics", "phases"))
        grown = set(prev.get("partitions", [None])) <= set(meta["partitions"])
        if not (same and grown):
            raise ValueError(
                f"incremental state at {state_dir} was checkpointed with "
                f"{prev}, current run has {meta} — the partition name "
                "set may only grow (appends into new buckets) and the "
                "feature config and state format must stay fixed across "
                "incremental runs (rebuild the state dir to change them)"
            )
    tmp = meta_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.replace(tmp, meta_path)  # a failed write keeps the previous meta


def _read_carry(path: str) -> pa.Table:
    with pa.OSFile(path, "rb") as f:
        return pa.ipc.open_file(f).read_all()


def _write_carry(path: str, carry: pa.Table) -> None:
    tmp = path + ".tmp"
    with pa.OSFile(tmp, "wb") as f, pa.ipc.new_file(f, carry.schema) as w:
        w.write_table(carry)
    os.replace(tmp, path)  # atomic state checkpoint


def window_features_incremental(
    part_dir: str,
    state_dir: str,
    metrics: tuple[str, ...] = ("value",),
    phases: tuple[str, ...] = (),
) -> ray.data.Dataset:
    """One incremental pass over a SORTED partitioned layout: per
    partition, restore that partition's carry, emit features for rows
    BEYOND each conversation's processed count, and atomically persist
    the updated carry. Returns only the NEW rows' features (empty on a
    no-op run)."""
    from nfl_feature_store_ray.stages.derive import _derive_batch
    from nfl_feature_store_ray.state.window_kernel_pl import (
        _pl,
        empty_carry,
        feature_columns,
        kernel_arrow,
    )

    os.makedirs(state_dir, exist_ok=True)
    paths = partition_files(part_dir)
    if not paths:
        raise FileNotFoundError(f"no part-*.parquet under {part_dir}")
    _check_meta(state_dir, {
        "state_format": STATE_FORMAT,
        "partitions": sorted(os.path.basename(p) for p in paths),
        "metrics": list(metrics), "phases": list(phases),
    })
    cols = feature_columns(metrics, phases)

    def process(batch: pa.Table) -> pa.Table:
        # a batch of whole partition files, concatenated: one delta
        # selection over their concatenated carries, one kernel call, and
        # a carry write for each partition that had a delta
        pl = _pl()
        paths = batch["path"].to_pylist()
        carry = pa.concat_tables([
            _read_carry(sp) if os.path.exists(sp) else empty_carry(metrics, phases)
            for sp in (_state_path(state_dir, os.path.basename(p)) for p in paths)
        ])
        # relaxed: partition files may type a column apart (an all-null one)
        parts = pl.concat(
            [pl.read_parquet(p).with_columns(_file=pl.lit(p)) for p in paths],
            how="vertical_relaxed",
        )
        # delta selection by per-conversation processed count: the layout
        # is append-only per conversation, sorted by (conv, ts, tie) and a
        # conversation lives in one partition, so "beyond the first k rows"
        # is exactly the appended suffix
        delta = (
            parts.with_columns(pl.int_range(pl.len()).over("conv_id").alias("_k"))
            .join(pl.from_arrow(carry.select(["conv_id", "turns"])), on="conv_id",
                  how="left", maintain_order="left")
            .filter(pl.col("_k") >= pl.col("turns").fill_null(0))
            .drop("_k", "turns")
        )
        feats, carry = kernel_arrow(
            _derive_batch(delta.drop("_file").to_arrow()), metrics=metrics,
            assign_turn_idx=True, sort=False, phases=phases, carry=carry,
        )
        # each conversation's carry goes back to its partition's state file,
        # for the partitions with a delta only (none on a pass without one)
        owner = (
            parts.select("conv_id", "_file").unique("conv_id")
            .filter(pl.col("_file").is_in(delta["_file"].unique().implode()))
        )
        new = pl.from_arrow(carry).join(owner, on="conv_id", maintain_order="left")
        for (path,), part_carry in new.partition_by("_file", as_dict=True).items():
            _write_carry(
                _state_path(state_dir, os.path.basename(path)),
                part_carry.drop("_file").to_arrow().cast(carry.schema),
            )
        return feats.select(cols)

    # one task per CPU, each over a share of the partition files read
    # whole (a partition must never be split across calls)
    n_tasks = max(1, min(len(paths), cluster_cpus()))
    ds = ray.data.from_items([{"path": p} for p in paths], override_num_blocks=n_tasks)
    return ds.map_batches(process, batch_format="pyarrow", batch_size=None)
