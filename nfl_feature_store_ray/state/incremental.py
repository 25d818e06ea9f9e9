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
whose delta is empty is skipped: it joins no kernel call and its state
file is not rewritten. Each task reads whole partition files and runs
one kernel call over all of its partitions' deltas, because at delta
sizes the call's fixed cost, not the rows, sets the time.

State format: each ``part-*.state.pkl`` holds one Arrow IPC file with the
partition's carry table (the ``.state.pkl`` name is kept so existing
tooling that globs the state files keeps working). ``_incremental_meta.json``
records ``STATE_FORMAT``; a state dir written in any other format — e.g.
the earlier pickled per-conversation objects — is rejected with a
"rebuild the state dir" error rather than read.

Cost model at scale: a run touches every partition file but processes
O(appended rows) compute; state files are O(active conversations in the
partition) and are read/written once per run. Equality with
the batch engine at every append split is pinned by
tests/test_incremental.py and the driver gate `w_incremental_append`
(phase-1 features ∪ phase-2 features == full-batch == DuckDB SQL).
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.compute as pc
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
        # a batch of whole partition files: each file's carry is restored
        # and its delta selected on its own, then one kernel call covers
        # every delta of the batch and each partition's carry is written
        # back
        pl = _pl()
        deltas, olds, spaths = [], [], []
        for path in batch["path"].to_pylist():
            spath = _state_path(state_dir, os.path.basename(path))
            carry = _read_carry(spath) if os.path.exists(spath) else empty_carry(metrics, phases)
            # delta selection by per-conversation processed count: the
            # layout is append-only per conversation and sorted by
            # (conv, ts, tie), so "beyond the first k rows" is exactly the
            # appended suffix
            part = pl.read_parquet(path)
            delta = (
                part.with_columns(pl.int_range(pl.len()).over("conv_id").alias("_k"))
                .join(pl.from_arrow(carry.select(["conv_id", "turns"])), on="conv_id",
                      how="left", maintain_order="left")
                .filter(pl.col("_k") >= pl.col("turns").fill_null(0))
                .drop("_k", "turns")
            )
            if delta.height:  # an empty delta leaves the partition untouched
                deltas.append(delta)
                olds.append(carry)
                spaths.append(spath)
        if not deltas:  # typed empty output
            return kernel_arrow(
                _derive_batch(part.head(0).to_arrow()), metrics=metrics,
                assign_turn_idx=True, sort=False, phases=phases,
            ).select(cols)
        delta = pl.concat(deltas, how="vertical_relaxed")
        feats, carry = kernel_arrow(
            _derive_batch(delta.to_arrow()), metrics=metrics, assign_turn_idx=True,
            sort=False, phases=phases, carry=pa.concat_tables(olds),
        )
        for spath, old, d in zip(spaths, olds, deltas):
            convs = pa.concat_arrays([old["conv_id"].combine_chunks(),
                                      d["conv_id"].unique().to_arrow()])
            _write_carry(spath, carry.filter(pc.is_in(carry["conv_id"], value_set=convs)))
        return feats.select(cols)

    # one task per CPU, each over a share of the partition files read
    # whole (a partition must never be split across calls)
    n_tasks = max(1, min(len(paths), cluster_cpus()))
    ds = ray.data.from_items([{"path": p} for p in paths], override_num_blocks=n_tasks)
    return ds.map_batches(process, batch_format="pyarrow", batch_size=None)
