"""The partition spine: hash-bucket conversations, process whole buckets.

This is the rebuild's ONE required shuffle (SURVEY §7.1 step 3). Every
window / sessionize / as-of operator rides on it:

    ds -> with_bucket(key)            # deterministic hash(conv_id) % B
       -> groupby("_bucket")
       -> map_groups(sorted bucket fn)  # bucket arrives whole; fn sorts by
                                        # (conv_id, ts, tie) and runs
                                        # VECTORIZED group kernels

Why buckets instead of `groupby(conv_id).map_groups(per_conv_fn)`: at
10^12 turns there are ~10^9 conversations; per-group Python dispatch would
be the bottleneck. Bucketing gives B tasks, each processing thousands of
conversations with vectorized kernels — same shuffle cost, ~100x less
per-group overhead.

Bucket count. An in-flight shuffle (``window_features``, ``asof_join``)
takes B = 2 x the cluster's CPUs by default (``shuffle_buckets``): every
bucket task pays a fixed kernel / merge cost, so B beyond a couple of
tasks per CPU buys no parallelism, only calls. A bucket then holds about
total / (2 x CPUs) rows; a job whose buckets would outgrow a worker's
heap passes an explicit ``num_buckets``. Ray plans the groupby as a sort
one task per INPUT block wide, so ``asof_join`` first coalesces its
tagged union to B blocks (``Dataset.repartition(B)``, no row shuffle):
its exchange and merge then run B tasks, not one per block the callers'
reads produced. ``window_features`` does not coalesce yet (ROADMAP item
3). The PERSISTED layout
(``state.manifest.partitioned_commit``) stays at
``schemas.DEFAULT_NUM_BUCKETS`` whatever the cluster: later commits
skip unchanged partitions and ``window_features_incremental`` carries
state per partition file, both by that modulus.

Skew: a conversation can never be split (windows are prefix-sequential per
conversation), so the worst-case bucket is max(total/B, hottest_conv).
Hot-key salting therefore operates at the bucket level — raise B — and a
single pathological conversation is bounded by the reading's
`target_max_block_size` spill path. A conversation larger than a worker's
heap runs through the window kernel with a carry instead
(`pipelines.partitioned.window_features_streaming`, one task per
partition block, and `state.skew.window_features_chained`): O(tail +
registers) carry state per conversation, ordered batches, same features
(equality pinned at every batch split by tests/test_streaming.py).

Reference analogue: O1 global sort before windowing
(`/root/reference/src/pumps/player_game.py:551`) — replaced by
hash-partition + per-bucket sort, which avoids a global range sort.

Determinism: bucket assignment uses pandas' SipHash-based
``hash_pandas_object`` with a FIXED hash key, so for a given B the
partitioning is stable across runs and processes. The output rows do not
depend on B at all (a bucket holds whole conversations); only the order
in which buckets arrive does.
"""

from __future__ import annotations

import os
from typing import Callable

import pandas as pd
import pyarrow as pa
import ray
import ray.data

from nfl_feature_store_ray.schemas import DEFAULT_NUM_BUCKETS

_HASH_KEY = "nfl_fs_partition"  # exactly 16 bytes, pinned for determinism

BUCKET_COL = "_bucket"


def cluster_cpus() -> int:
    """CPUs of the running Ray cluster; ``os.cpu_count()`` when Ray is not
    initialized yet, which is what Ray's auto-init would give."""
    if ray.is_initialized():
        return max(1, int(ray.cluster_resources().get("CPU", 1)))
    return os.cpu_count() or 1


def shuffle_buckets(num_buckets: int | None = None) -> int:
    """Bucket count of an in-flight shuffle: ``num_buckets`` when given,
    else two per cluster CPU."""
    return num_buckets if num_buckets is not None else 2 * cluster_cpus()


def bucket_of(keys: pd.Series | pd.DataFrame, num_buckets: int) -> pd.Series:
    h = pd.util.hash_pandas_object(keys.astype(str), index=False, hash_key=_HASH_KEY)
    return (h % num_buckets).astype("int32")


def with_bucket(
    ds: ray.data.Dataset,
    key: str | list[str] = "conv_id",
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    heavy_keys: dict | None = None,
) -> ray.data.Dataset:
    """Append a deterministic ``_bucket`` partition column (single or
    compound key).

    ``heavy_keys`` (state.skew.detect_heavy_keys output) maps hot keys to
    dense indices; each gets a DEDICATED bucket past the hash range
    (num_buckets + i) so a hot conversation never straggles the other
    keys hashed into its bucket."""
    def add(batch: pa.Table) -> pa.Table:
        # Arrow-native stage: only the KEY column(s) round-trip through
        # pandas (the deterministic SipHash contract is pinned to
        # hash_pandas_object with _HASH_KEY); the payload columns stay
        # zero-copy Arrow, so the map side of the shuffle never converts
        # the full (possibly very wide) batch and empty blocks don't hit
        # pandas' object-dtype size estimation.
        if isinstance(key, str):
            k = batch.column(key).to_pandas()
        else:
            k = pd.DataFrame({c: batch.column(c).to_pandas() for c in key})
        b = bucket_of(k, num_buckets)
        if heavy_keys and isinstance(key, str):
            hot = k.map(heavy_keys)
            b = b.where(hot.isna(), (hot + num_buckets)).astype("int32")
        if BUCKET_COL in batch.column_names:
            # re-bucketing an already-bucketed table must OVERWRITE (the
            # old pandas path's batch[col] = b semantics); append_column
            # would create a duplicate field and break the groupby
            batch = batch.drop_columns([BUCKET_COL])
        return batch.append_column(BUCKET_COL, pa.array(b.to_numpy(), pa.int32()))

    return ds.map_batches(add, batch_format="pyarrow")


def map_conv_buckets(
    ds: ray.data.Dataset,
    fn: Callable[[pd.DataFrame], pd.DataFrame],
    key: str | list[str] = "conv_id",
    sort_cols: list[str] | None = None,
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    heavy_keys: dict | None = None,
) -> ray.data.Dataset:
    """Hash-partition on ``key``; run ``fn`` once per sorted bucket.

    ``fn`` receives a pandas DataFrame holding WHOLE conversations, sorted
    by ``sort_cols`` (default ``[key, "ts"]`` + ``_seq``/``turn_idx`` tie
    columns when present), with the internal ``_bucket`` column removed.
    """
    def run(group: pd.DataFrame) -> pd.DataFrame:
        cols = sort_cols
        if cols is None:
            cols = [key] if isinstance(key, str) else list(key)
            cols += [c for c in ("ts",) if c in group.columns]
            for tie in ("turn_idx", "_seq"):
                if tie in group.columns:
                    cols.append(tie)
        g = group.sort_values(cols, kind="mergesort").reset_index(drop=True)
        g = g.drop(columns=[BUCKET_COL])
        return fn(g)

    bucketed = with_bucket(ds, key=key, num_buckets=num_buckets, heavy_keys=heavy_keys)
    return bucketed.groupby(BUCKET_COL).map_groups(run, batch_format="pandas")
