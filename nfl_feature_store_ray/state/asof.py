"""Distributed sorted-merge as-of join (the north rule's core operator).

Reference analogue: J7/W8 — future games are backfilled with each team's
LATEST feature row (`groupby('team').nth(-1)` + left-merge,
`/root/reference/src/pipelines/events/event_regular_season_game.py:46-58`).
The rebuild generalizes that "latest value" lookup to a true as-of join:
each left row at time t matches the most recent right row with
t' < t (strict by default — shift semantics, zero temporal leakage).

Execution shape: both sides are hash-bucketed on the key (same
deterministic hash as the window spine, so one partitioning key is reused
across stages); each side is tagged in Arrow into ONE schema (left
columns, then the right value columns with colliding names renamed, then
an int8 side column; a column a side lacks is typed nulls) and the two
are unioned so ONE exchange (``stages.bucketize.exchange``, one bucket
per task) co-locates them. The union is coalesced to one block per bucket
before the exchange (a block split / merge, no row shuffle), so both the
exchange's map and reduce sides run as many tasks wide as there are
buckets, whatever the callers' read split. Each bucket reaches polars as
Arrow, where one
``DataFrame.join_asof(by=key)`` performs the sorted merge (the
sorted-merge setting of *Computing Complex Temporal Join Queries
Efficiently*, SIGMOD 2022). No broadcast, no global sort, no pandas; at
100 TB each bucket streams independently.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from nfl_feature_store_ray.stages.bucketize import exchange, exchange_input, shuffle_buckets
from nfl_feature_store_ray.state.window_kernel_pl import _pl

_SIDE_COL = "_asof_side"


def _arrow_types(ds: ray.data.Dataset) -> dict:
    """Column -> Arrow type of ``ds``; None where Ray reports a pandas
    object dtype, whose Arrow type is only known once a block exists."""
    schema = ds.schema()
    return {
        n: t if isinstance(t, pa.DataType) else None
        for n, t in zip(schema.names, schema.types)
    }


def asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    key: str = "conv_id",
    on: str = "ts",
    allow_exact_matches: bool = False,
    num_buckets: int | None = None,
    suffix: str = "_r",
    tolerance=None,
) -> ray.data.Dataset:
    """Sorted-merge backward as-of join: a left row at t gets the latest
    right row of its key with t' < t (strict — the leakage-free shift
    semantics the reference's J7 "latest value" lookup implies), or
    t' <= t when ``allow_exact_matches``.

    ``tolerance`` (a ``pd.Timedelta`` when ``on`` is a timestamp) bounds
    the match distance: a left row whose latest earlier right row is
    farther than the tolerance gets nulls — the "stale feature vectors
    don't backfill" guard rail.

    Right-side value columns that collide with left columns get ``suffix``.
    Every column keeps its input Arrow type; unmatched rows get nulls. A
    null ``on`` value on either side raises ``ValueError``.

    ``num_buckets=None`` shuffles both sides into 2 x the cluster's CPUs
    buckets (``stages.bucketize.shuffle_buckets``), one merge call each;
    a bucket holds about (left + right) / (2 x CPUs) rows, so at sizes
    beyond a worker's heap pass a larger ``num_buckets``. Both sides share
    one schema (the output's columns plus the side tag), and the exchange
    is ``num_buckets`` tasks wide whatever the inputs' block counts.
    """
    num_buckets = shuffle_buckets(num_buckets)
    left_types = _arrow_types(left)
    right_types = _arrow_types(right)
    left_cols = list(left_types)
    rename = {c: c + suffix for c in (set(left_cols) & set(right_types)) - {key, on}}
    right_vals = {rename.get(c, c): t for c, t in right_types.items() if c not in (key, on)}
    right_out = list(right_vals)
    out_types = {**left_types, **right_vals}

    def tagged(ds: ray.data.Dataset, side: int) -> ray.data.Dataset:
        def tag(batch: pa.Table) -> pa.Table:
            # both sides emit one schema (left columns, right values, side):
            # a column this side lacks is typed nulls, so the union and the
            # exchange need not unify two schemas (only a pandas object
            # column, whose type is unknown at plan time, pads as null)
            names = batch.column_names
            if side:
                names = [rename.get(c, c) for c in names]
            have = dict(zip(names, batch.columns))
            n = batch.num_rows
            cols = [
                have[c] if c in have else pa.nulls(n, t or pa.null())
                for c, t in out_types.items()
            ]
            cols.append(pa.array(np.full(n, side, np.int8)))
            return pa.Table.from_arrays(cols, names=[*out_types, _SIDE_COL])

        return exchange_input(ds.map_batches(tag, batch_format="pyarrow"), key, num_buckets)

    def merge_bucket(bucket: pa.Table) -> pa.Table:
        pl = _pl()
        if bucket.column(on).null_count:
            raise ValueError(f"asof_join: the '{on}' column contains null values")
        # one lazy plan, collected once: the bucket's few hundred rows make
        # per-call overhead, not the rows, the cost of each eager step
        rows = pl.from_arrow(bucket).lazy()
        is_left = pl.col(_SIDE_COL) == 0
        lf = rows.filter(is_left).select(left_cols).sort([on, key], maintain_order=True)
        rf = rows.filter(~is_left).select([key, on] + right_out)
        rf = rf.sort([on, key], maintain_order=True)
        out = lf.join_asof(
            rf, on=on, by=key, strategy="backward",
            allow_exact_matches=allow_exact_matches, tolerance=tolerance,
            check_sortedness=False,  # both sides sorted just above
        ).collect().to_arrow()
        # polars hands strings back as large_string: restore the input types
        for i, got in enumerate(out.schema):
            want = out_types[got.name] or bucket.schema.field(got.name).type
            if got.type != want:
                out = out.set_column(i, got.name, out.column(i).cast(want))
        return out

    # each side is bucketed before the union, and the union is coalesced
    # (block split / merge, no row shuffle) to one block per bucket before
    # the exchange; coalescing each input before ``tag`` instead hung on a
    # one-CPU cluster, and bucketing after the union costs a map operator
    both = tagged(left, 0).union(tagged(right, 1)).repartition(num_buckets)
    # one bucket per task: merge_bucket runs once per bucket
    return exchange(both, merge_bucket, None, num_buckets)
