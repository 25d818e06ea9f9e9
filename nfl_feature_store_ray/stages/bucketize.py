"""The partition spine: hash-bucket conversations, process whole buckets.

This is the rebuild's ONE required shuffle (SURVEY §7.1 step 3). Every
window / sessionize / as-of operator and the partition commit ride on
``exchange``:

    ds -> exchange_input(key)           # deterministic hash(conv_id) % B,
                                        # plus a sentinel row per range
       -> sort(key, boundaries)         # one reduce task per bucket range
       -> map_batches(fn)               # fn gets the task's whole buckets
                                        # as one Arrow table and runs
                                        # VECTORIZED group kernels

Why buckets instead of `groupby(conv_id).map_groups(per_conv_fn)`: at
10^12 turns there are ~10^9 conversations; per-group Python dispatch would
be the bottleneck. Bucketing gives B tasks, each processing thousands of
conversations with vectorized kernels — same shuffle cost, ~100x less
per-group overhead.

Bucket count. An in-flight exchange (``window_features``, ``asof_join``)
takes B = 2 x the cluster's CPUs by default (``shuffle_buckets``), one
bucket per task: every task pays a fixed kernel / merge cost, so B beyond
a couple of tasks per CPU buys no parallelism, only calls. A bucket then
holds about total / (2 x CPUs) rows; a job whose buckets would outgrow a
worker's heap passes an explicit ``num_buckets``. The exchange passes the
bucket-range starts to Ray's sort as explicit boundaries, so Ray skips
its sampling pass and the reduce side is exactly as wide as the ranges,
whatever the input's block count (the map side stays one task per input
block; ``asof_join`` coalesces its tagged union to B blocks first, with
``Dataset.repartition(B)``, no row shuffle). Sentinel rows give every
range rows, so a range without data still hands ``fn`` a typed empty
table instead of Ray's schema-less one. The PERSISTED layout
(``state.manifest.partitioned_commit``) stays at
``schemas.DEFAULT_NUM_BUCKETS`` whatever the cluster, spread over
``shuffle_buckets()`` tasks of contiguous ranges: later commits skip
unchanged partitions and ``window_features_incremental`` carries state per
partition file, both by that modulus.

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
hash-partition (a range exchange on the bucket id alone) + per-bucket
sort, which avoids a global range sort of the rows.

Determinism: bucket assignment uses pandas' SipHash-based
``hash_pandas_object`` with a FIXED hash key, so for a given B the
partitioning is stable across runs and processes. The output rows do not
depend on B at all (a bucket holds whole conversations); only the order
in which buckets arrive does.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from nfl_feature_store_ray.schemas import DEFAULT_NUM_BUCKETS

_HASH_KEY = "nfl_fs_partition"  # exactly 16 bytes, pinned for determinism

BUCKET_COL = "_bucket"
_EXCHANGE_KEY = "_exchange_key"  # exchange_input's sort key, 2 * bucket + 1


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


def _bucket_ids(
    batch: pa.Table, key: str | list[str], num_buckets: int, heavy_keys: dict | None
) -> np.ndarray:
    # Arrow-native stage: only the KEY column(s) round-trip through pandas
    # (the deterministic SipHash contract is pinned to hash_pandas_object
    # with _HASH_KEY); the payload columns stay zero-copy Arrow, so the map
    # side of the shuffle never converts the full (possibly very wide)
    # batch and empty blocks don't hit pandas' object-dtype size estimation.
    if isinstance(key, str):
        k = batch.column(key).to_pandas()
    else:
        k = pd.DataFrame({c: batch.column(c).to_pandas() for c in key})
    b = bucket_of(k, num_buckets)
    if heavy_keys and isinstance(key, str):
        hot = k.map(heavy_keys)
        b = b.where(hot.isna(), (hot + num_buckets)).astype("int32")
    return b.to_numpy()


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
        ids = _bucket_ids(batch, key, num_buckets, heavy_keys)
        if BUCKET_COL in batch.column_names:
            # re-bucketing an already-bucketed table must OVERWRITE (the
            # old pandas path's batch[col] = b semantics); append_column
            # would create a duplicate field
            batch = batch.drop_columns([BUCKET_COL])
        return batch.append_column(BUCKET_COL, pa.array(ids, pa.int32()))

    return ds.map_batches(add, batch_format="pyarrow")


def _range_starts(num_buckets: int, tasks: int | None, n_heavy: int) -> list[int]:
    """The first bucket of every range but the first: ``tasks`` contiguous
    hash-bucket ranges (default one bucket each), then one range per heavy
    bucket ``num_buckets + i``. Never empty: with no boundaries Ray
    samples them and runs one task per input block, so a single range
    gets the start 0, after a first range that holds only sentinels."""
    tasks = min(tasks or num_buckets, num_buckets)
    starts = [num_buckets * i // tasks for i in range(1, tasks)]
    return starts + [num_buckets + i for i in range(n_heavy)] or [0]


def exchange_input(
    ds: ray.data.Dataset,
    key: str | list[str],
    num_buckets: int,
    heavy_keys: dict | None = None,
    tasks: int | None = None,
) -> ray.data.Dataset:
    """``with_bucket`` for ``exchange``: append the sort key
    ``_exchange_key`` = ``2 * bucket + 1`` (dropping any ``_bucket``), and
    give every non-empty block one sentinel row per bucket range: a copy
    of its first row keyed ``2 * range start`` (``-2`` for the first
    range). Every range thus gets rows, so Ray's sort never makes the
    schema-less empty table it returns for an empty range, and a range's
    sentinels sort ahead of its rows, where the exchange slices them
    off."""
    sentinels = pa.array(
        [-2] + [2 * s for s in _range_starts(num_buckets, tasks, len(heavy_keys or ()))],
        pa.int32(),
    )

    def add(batch: pa.Table) -> pa.Table:
        ids = 2 * _bucket_ids(batch, key, num_buckets, heavy_keys) + 1
        batch = batch.drop_columns(
            [c for c in (BUCKET_COL, _EXCHANGE_KEY) if c in batch.column_names]
        )
        batch = batch.append_column(_EXCHANGE_KEY, pa.array(ids, pa.int32()))
        if not batch.num_rows:
            return batch
        extra = batch.take(np.zeros(len(sentinels), np.int64))
        extra = extra.set_column(extra.num_columns - 1, _EXCHANGE_KEY, sentinels)
        # one chunk per column: the two-chunk table made each as-of job
        # of perfbench's training_set about 25 ms slower on one CPU
        return pa.concat_tables([batch, extra]).combine_chunks()

    return ds.map_batches(add, batch_format="pyarrow")


def exchange(
    ds: ray.data.Dataset,
    fn: Callable[[pa.Table], pa.Table],
    key: str | list[str] | None,
    num_buckets: int,
    heavy_keys: dict | None = None,
    tasks: int | None = None,
) -> ray.data.Dataset:
    """Hash-partition ``ds`` on ``key`` and run ``fn`` once per task over
    whole buckets, Arrow in and Arrow out.

    The ``num_buckets`` hash buckets are cut into ``tasks`` contiguous
    ranges (default: one bucket per task); each heavy key's bucket
    (``num_buckets + i``) is a task of its own. ``fn`` receives one
    task's rows as a single-chunk ``pa.Table`` sorted by ``_bucket``,
    ``_bucket`` included (last); a range without rows calls it with zero
    rows of the input's schema, so every output block has ``fn``'s
    schema. ``key=None`` takes ``ds`` as the output of ``exchange_input``
    with the same ``num_buckets``, ``heavy_keys`` and ``tasks``.

    The exchange is Ray's sort on the bucket key with the range starts as
    explicit boundaries: that skips the sampling pass and makes the
    exchange exactly as wide as the ranges, whatever the input's block
    count, and each reduce block is handed to ``fn`` whole."""
    bounds = [2 * s for s in _range_starts(num_buckets, tasks, len(heavy_keys or ()))]
    if key is not None:
        ds = exchange_input(ds, key, num_buckets, heavy_keys, tasks)

    def run(block: pa.Table):
        # slice off the range's leading sentinels, decode the bucket ids
        keys = block[_EXCHANGE_KEY].to_numpy()
        k = int(np.searchsorted(keys, keys[0], side="right"))
        block = block.slice(k).drop_columns([_EXCHANGE_KEY]).append_column(
            BUCKET_COL, pa.array(keys[k:] >> 1, pa.int32())
        )
        # a reduce block can hold one chunk per map contribution, and
        # polars / pyarrow kernels crawl on fragmented buffers: pay one
        # contiguous copy up front. A generator, as map_groups' was: Ray
        # wraps an error raised by a plain UDF call in UserCodeException,
        # but passes one raised while iterating, so ``fn``'s own error
        # type (e.g. asof_join's ValueError) reaches the caller.
        yield fn(block.combine_chunks())

    run.__name__ = fn.__name__  # Ray names the operator MapBatches(<fn>)
    return ds.sort(_EXCHANGE_KEY, boundaries=bounds).map_batches(
        run, batch_format="pyarrow", batch_size=None
    )


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
