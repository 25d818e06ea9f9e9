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
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    fingerprint_cols: list[str] | None = None,
) -> pd.DataFrame:
    return write_partitioned(
        ds,
        out_dir,
        num_buckets=num_buckets,
        transform=transform,
        fingerprint_cols=fingerprint_cols,
    )


def partition_files(part_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(part_dir, "part-*.parquet")))


def sort_partition(tbl: pa.Table) -> pa.Table:
    """Ingest transform: persist partitions pre-sorted by (conv_id, ts,
    tie) so downstream jobs (incl. the streaming job) skip the sort.
    Stable: rows equal on every sort key keep their input order."""
    cols = ["conv_id", "ts"] + [t for t in ("turn_idx", "_seq") if t in tbl.column_names]
    return tbl.sort_by([(c, "ascending") for c in cols])


def window_features_streaming(
    part_dir: str,
    metrics: tuple[str, ...] = ("value", "text_len", "n_tokens"),
    batch_size: int = 8192,
    phases: tuple[str, ...] = (),
) -> ray.data.Dataset:
    """Streaming window job over a SORTED partitioned layout.

    One stateless task per partition block: the task walks its block in
    ``batch_size``-row slices through the window kernel, feeding each
    slice the per-conversation carry (tails + registers + monotonic-ts
    watermarks) of the slices before it, so kernel memory is bounded by
    the slice — the path for conversations larger than a worker's heap.
    The carry starts empty in every task, so a retried task recomputes
    its block from scratch.
    """
    from nfl_feature_store_ray.stages.derive import derive_turn_columns

    paths = partition_files(part_dir)
    if not paths:
        raise FileNotFoundError(f"no part-*.parquet under {part_dir}")
    ds = ray.data.read_parquet(paths, override_num_blocks=len(paths))
    ds = derive_turn_columns(ds)
    cols = feature_columns(metrics, phases)

    def carry_kernel(tbl: pa.Table):
        carry = empty_carry(metrics, phases)
        for start in range(0, tbl.num_rows, batch_size):
            feats, carry = kernel_arrow(
                tbl.slice(start, batch_size), metrics=metrics,
                assign_turn_idx=True, sort=False, phases=phases, carry=carry,
            )
            yield feats.select(cols)

    # batch_size=None => one batch per block => whole partition per task
    return ds.map_batches(carry_kernel, batch_format="pyarrow", batch_size=None)

