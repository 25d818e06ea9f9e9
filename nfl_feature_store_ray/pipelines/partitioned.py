"""Pre-partitioned layout pipelines — the at-scale execution shape.

At 100 TB the engine does the conv_id hash shuffle ONCE, at ingest, and
persists the bucketed layout (resumable via per-partition manifests,
``state.manifest``). Every subsequent window/as-of/backfill job is then
shuffle-free: one map task per partition file, whole conversations per
task, Arrow all the way into the polars kernel. This mirrors SURVEY §4.2
("pick ONE partitioning key and reuse it across stages") and makes the
job's scaling limited only by per-partition compute.

ASSUMPTION (documented): each partition file fits one read block, so a
batch holds whole conversations (``override_num_blocks=len(files)``; at
real scale choose num_buckets so files stay below
``DataContext.target_max_block_size``).
"""

from __future__ import annotations

import glob
import os

import pandas as pd
import pyarrow as pa
import ray.data

from nfl_feature_store_ray.schemas import DEFAULT_NUM_BUCKETS
from nfl_feature_store_ray.state.manifest import write_partitioned
from nfl_feature_store_ray.state.window_kernel_pl import (
    empty_carry,
    feature_columns,
    kernel_arrow,
)


def ingest_partitioned_with_transform(
    ds: ray.data.Dataset,
    out_dir: str,
    transform=None,
    key: str = "conv_id",
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    fingerprint_cols: list[str] | None = None,
) -> pd.DataFrame:
    return write_partitioned(
        ds,
        out_dir,
        key=key,
        num_buckets=num_buckets,
        transform=transform,
        fingerprint_cols=fingerprint_cols,
    )


def partition_files(part_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(part_dir, "part-*.parquet")))


def sort_partition(tbl: pa.Table) -> pa.Table:
    """Ingest transform: persist partitions pre-sorted by (conv_id, ts,
    tie) so downstream jobs (incl. the streaming actor) skip the sort.
    Stable: rows equal on every sort key keep their input order."""
    cols = ["conv_id", "ts"] + [t for t in ("turn_idx", "_seq") if t in tbl.column_names]
    return tbl.sort_by([(c, "ascending") for c in cols])


class _CarryKernel:
    """map_batches callable class (actor pool): one carry table per actor,
    the window kernel run on each batch with it.

    Batches MUST be sorted by (conv_id, ts, tie) and delivered in order
    per conversation (guaranteed when reading the sorted partitioned
    layout: one partition block per task, batches in block order). A
    batch that starts before a conversation's carried watermark fails
    loudly, so a task retried on an actor that already holds part of its
    block raises rather than corrupt the carry — rerun the job."""

    def __init__(self, metrics: tuple[str, ...], phases: tuple[str, ...]):
        self.metrics, self.phases = metrics, phases
        self.cols = feature_columns(metrics, phases)
        self.carry = empty_carry(metrics, phases)

    def __call__(self, tbl: pa.Table) -> pa.Table:
        feats, self.carry = kernel_arrow(
            tbl, metrics=self.metrics, assign_turn_idx=True, sort=False,
            phases=self.phases, carry=self.carry,
        )
        return feats.select(self.cols)


def window_features_streaming(
    part_dir: str,
    metrics: tuple[str, ...] = ("value", "text_len", "n_tokens"),
    concurrency: int = 4,
    batch_size: int = 8192,
    phases: tuple[str, ...] = (),
) -> ray.data.Dataset:
    """Incremental streaming window job over a SORTED partitioned layout.

    Actor pool whose actors each hold one per-conversation carry table
    (tails + registers + monotonic-ts watermarks) and run the window
    kernel on every batch; processes each partition block as an ordered
    sequence of batches in bounded memory — the path for conversations
    larger than a worker's heap.
    """
    from nfl_feature_store_ray.stages.derive import derive_turn_columns

    paths = partition_files(part_dir)
    if not paths:
        raise FileNotFoundError(f"no part-*.parquet under {part_dir}")
    ds = ray.data.read_parquet(paths, override_num_blocks=len(paths))
    ds = derive_turn_columns(ds)
    # autoscaling pool (min 1): a fixed pool sized to every CPU would
    # starve the read stage and deadlock on small clusters
    return ds.map_batches(
        _CarryKernel,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=(1, concurrency),
        fn_constructor_kwargs={"metrics": metrics, "phases": phases},
    )


def window_features_partitioned(
    part_dir: str,
    metrics: tuple[str, ...] = ("value", "text_len", "n_tokens"),
    assign_turn_idx: bool = True,
    phases: tuple[str, ...] = (),
    wide: bool = False,
) -> ray.data.Dataset:
    """Shuffle-free window-feature job over a pre-partitioned layout.

    read (one block per partition file) -> derive (Arrow, zero-copy) ->
    polars window kernel (Arrow in / Arrow out, sorts within partition).
    ``wide=True`` derives the 20 WIDE_METRICS columns and runs the full
    wide fan-out (with per-phase families when ``phases`` is set) —
    still shuffle-free.
    """
    from nfl_feature_store_ray.stages.derive import (
        WIDE_METRICS,
        derive_turn_columns,
        derive_wide_metrics,
    )

    paths = partition_files(part_dir)
    if not paths:
        raise FileNotFoundError(f"no part-*.parquet under {part_dir}")
    ds = ray.data.read_parquet(paths, override_num_blocks=len(paths))
    ds = derive_turn_columns(ds)
    if wide:
        ds = derive_wide_metrics(ds)
        metrics = WIDE_METRICS

    def kern(tbl: pa.Table) -> pa.Table:
        return kernel_arrow(
            tbl, metrics=metrics, assign_turn_idx=assign_turn_idx, sort=True,
            phases=phases,
        )

    # batch_size=None => one batch per block => whole partition per call
    return ds.map_batches(kern, batch_format="pyarrow", batch_size=None)
