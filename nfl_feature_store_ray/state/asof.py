"""Distributed sorted-merge as-of join (the north rule's core operator).

Reference analogue: J7/W8 — future games are backfilled with each team's
LATEST feature row (`groupby('team').nth(-1)` + left-merge,
`/root/reference/src/pipelines/events/event_regular_season_game.py:46-58`).
The rebuild generalizes that "latest value" lookup to a true as-of join:
each left row at time t matches the most recent right row with
t' < t (strict by default — shift semantics, zero temporal leakage).

Execution shape. The left side is executed once, and its size picks one
of two paths; both end in the same sorted merge (``merge``: one polars
``DataFrame.join_asof(by=key)`` per task, the sorted-merge setting of
*Computing Complex Temporal Join Queries Efficiently*, SIGMOD 2022), in a
task named ``merge_bucket``. No pandas on either path.

- **Broadcast** (SURVEY S2/J5), when ``left.size_bytes() x B`` fits in
  Ray's ``DataContext.target_max_block_size``. The left's blocks stay in
  the object store, where every task reads them. The right side is
  coalesced to B blocks (``repartition(B)``: a block split / merge, no
  row shuffle), and a ``prune`` task per block keeps only the right rows
  that some left row matches in that block: at most ``len(left)`` rows
  per block, in the block's order. One task then merges the whole left
  with the B blocks' candidates. The right side never crosses a shuffle;
  the rule bounds the candidates at B x ``len(left)`` rows, so the one
  merge task stays within Ray's own block budget while right rows are
  not much wider than left rows.
- **Exchange**, for a larger left. Both sides are tagged in Arrow into
  ONE schema (left columns, then the right value columns with colliding
  names renamed, then an int8 side column; a column a side lacks is
  typed nulls), hash-bucketed on the key (the window spine's hash, so
  one partitioning key is reused across stages) and unioned, so ONE
  exchange (``stages.bucketize.exchange``, one bucket per task)
  co-locates them. The union is coalesced to one block per bucket first,
  which narrows the sort's map side to as many tasks as buckets, whatever
  the callers' read split (10 blocks to 2 for the one-CPU benchmark's
  training set; without it that job ran 0.318 -> 0.333 s). At 100 TB
  each bucket streams independently.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data import DataContext

from nfl_feature_store_ray.stages.bucketize import exchange, exchange_input, shuffle_buckets
from nfl_feature_store_ray.state.window_kernel_pl import _pl

_SIDE_COL = "_asof_side"  # 0 left, 1 right, 2 the broadcast path's sentinel
_SENTINEL = 2
_ROW = "_asof_row"
_SUFFIX = "_r"  # renames right value columns that collide with left columns


def _arrow_types(ds: ray.data.Dataset) -> dict:
    """Column -> Arrow type of ``ds``; None where Ray reports a pandas
    object dtype, whose Arrow type is only known once a block exists."""
    schema = ds.schema()
    return {
        n: t if isinstance(t, pa.DataType) else None
        for n, t in zip(schema.names, schema.types)
    }


def _side(rows: pa.Table, side: int) -> pa.Table:
    return rows.filter(pc.equal(rows.column(_SIDE_COL), side))


def _in_order(ds: ray.data.Dataset) -> None:
    """Run the plan of ``ds`` (a union, which owns a copy of the context)
    with its blocks in input order, so right rows sharing a ts reach the
    merge in the right side's order even from different blocks."""
    ds.context.execution_options.preserve_order = True


def _broadcasts(left: ray.data.Dataset, num_buckets: int) -> bool:
    """The size rule: B copies of the (materialized) left fit in one of
    Ray's blocks."""
    limit = DataContext.get_current().target_max_block_size
    size = left.size_bytes()
    return size is not None and (limit is None or size * num_buckets <= limit)


def asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    key: str = "conv_id",
    on: str = "ts",
    allow_exact_matches: bool = False,
    num_buckets: int | None = None,
    tolerance=None,
) -> ray.data.Dataset:
    """Sorted-merge backward as-of join: a left row at t gets the latest
    right row of its key with t' < t (strict — the leakage-free shift
    semantics the reference's J7 "latest value" lookup implies), or
    t' <= t when ``allow_exact_matches``. Right rows sharing a ts resolve
    to the last of them in the right side's order.

    ``tolerance`` (a ``pd.Timedelta`` when ``on`` is a timestamp) bounds
    the match distance: a left row whose latest earlier right row is
    farther than the tolerance gets nulls — the "stale feature vectors
    don't backfill" guard rail.

    Right-side value columns that collide with left columns get the suffix
    ``_r``.
    Every column keeps its input Arrow type; unmatched rows get nulls. A
    null ``on`` value on either side raises ``ValueError``.

    The left side is EXECUTED when this function is called (it is
    materialized once, to measure it); the right side runs lazily with
    the returned dataset. A left with ``size_bytes() x B`` within
    ``DataContext.target_max_block_size`` is broadcast to B tasks over
    the right side, which never shuffles (see the module docstring);
    a larger left takes the exchange.

    ``num_buckets=None`` is B = 2 x the cluster's CPUs
    (``stages.bucketize.shuffle_buckets``). On the exchange path both
    sides shuffle into B buckets, one merge call each; a bucket holds
    about (left + right) / B rows, so at sizes beyond a worker's heap
    pass a larger ``num_buckets``. On the broadcast path the right side
    is coalesced to B blocks, one prune call each.
    """
    num_buckets = shuffle_buckets(num_buckets)
    left = left.materialize()
    left_types = _arrow_types(left)
    right_types = _arrow_types(right)
    left_cols = list(left_types)
    rename = {c: c + _SUFFIX for c in (set(left_cols) & set(right_types)) - {key, on}}
    right_vals = {rename.get(c, c): t for c, t in right_types.items() if c not in (key, on)}
    right_out = list(right_vals)
    out_types = {**left_types, **right_vals}

    def tagged_as(batch: pa.Table, side: int, types: dict) -> pa.Table:
        # one schema per path (``types``, then the side): a column this side
        # lacks is typed nulls, so the union and the exchange need not unify
        # two schemas (only a pandas object column, whose type is unknown at
        # plan time, pads as null)
        names = batch.column_names
        if side:
            names = [rename.get(c, c) for c in names]
        have = dict(zip(names, batch.columns))
        n = batch.num_rows
        cols = [have[c] if c in have else pa.nulls(n, t or pa.null()) for c, t in types.items()]
        cols.append(pa.array(np.full(n, side, np.int8)))
        return pa.Table.from_arrays(cols, names=[*types, _SIDE_COL])

    def check_on(*tables: pa.Table) -> None:
        if any(t.column(on).null_count for t in tables):
            raise ValueError(f"asof_join: the '{on}' column contains null values")

    def merge(lrows: pa.Table, rrows: pa.Table) -> pa.Table:
        """One task's sorted merge of its left rows with its right rows;
        both may carry extra columns."""
        pl = _pl()
        check_on(lrows, rrows)
        for c in (key, on):
            # a pandas object column without values reaches Arrow as null
            lt, rt = lrows.schema.field(c).type, rrows.schema.field(c).type
            if pa.types.is_null(rt):
                rrows = rrows.set_column(rrows.schema.get_field_index(c), c, rrows[c].cast(lt))
            elif pa.types.is_null(lt):
                lrows = lrows.set_column(lrows.schema.get_field_index(c), c, lrows[c].cast(rt))
        # one lazy plan, collected once: a task's few thousand rows make
        # per-call overhead, not the rows, the cost of each eager step
        lf = pl.from_arrow(lrows).lazy().select(left_cols).sort([on, key], maintain_order=True)
        rf = pl.from_arrow(rrows).lazy().select([key, on] + right_out)
        rf = rf.sort([on, key], maintain_order=True)
        out = lf.join_asof(
            rf, on=on, by=key, strategy="backward",
            allow_exact_matches=allow_exact_matches, tolerance=tolerance,
            check_sortedness=False,  # both sides sorted just above
        ).collect().to_arrow()
        # polars hands strings back as large_string: restore the input types
        seen = {f.name: f.type for t in (rrows, lrows) for f in t.schema}
        for i, got in enumerate(out.schema):
            want = out_types[got.name] or seen[got.name]
            if got.type != want:
                out = out.set_column(i, got.name, out.column(i).cast(want))
        return out

    if _broadcasts(left, num_buckets):
        left_refs = left.to_arrow_refs()
        empty_left = pa.schema([(c, t or pa.null()) for c, t in left_types.items()]).empty_table()
        cand_types = {key: right_types[key], on: right_types[on], **right_vals}

        def left_rows() -> pa.Table:
            return pa.concat_tables(
                [empty_left, *ray.get(left_refs)], promote_options="permissive"
            )

        def prune(block: pa.Table):
            # a generator, like ``exchange``'s reduce function: Ray then
            # passes a ValueError through instead of wrapping it
            pl = _pl()
            lrows = left_rows()
            check_on(lrows, block)
            lk = pl.from_arrow(lrows.select([key, on])).lazy().sort([on, key])
            rk = pl.from_arrow(block.select([key, on])).lazy().with_row_index(_ROW)
            hit = lk.join_asof(
                rk.sort([on, key], maintain_order=True), on=on, by=key,
                strategy="backward", allow_exact_matches=allow_exact_matches,
                tolerance=tolerance, check_sortedness=False,
            ).select(pl.col(_ROW).drop_nulls().unique()).collect()
            yield tagged_as(block.take(np.sort(hit[_ROW].to_numpy())), 1, cand_types)

        def merge_bucket(cands: pa.Table):
            yield merge(left_rows(), _side(cands, 1))

        # the sentinel row (side 2, dropped by the merge) makes the merge
        # task run, and its output typed, whatever the candidates; it is
        # tagged from a row without candidate columns, so all are nulls
        sentinel = tagged_as(pa.table({_ROW: [0]}), _SENTINEL, cand_types)
        cands = right.repartition(num_buckets).map_batches(
            prune, batch_format="pyarrow", batch_size=None
        )
        both = cands.union(ray.data.from_arrow(sentinel))
        _in_order(both)
        return both.repartition(1).map_batches(
            merge_bucket, batch_format="pyarrow", batch_size=None
        )

    def merge_bucket(bucket: pa.Table) -> pa.Table:
        return merge(_side(bucket, 0), _side(bucket, 1))

    def tagged(ds: ray.data.Dataset, side: int) -> ray.data.Dataset:
        def tag(batch: pa.Table) -> pa.Table:
            return tagged_as(batch, side, out_types)

        return exchange_input(
            ds.map_batches(tag, batch_format="pyarrow"), key, num_buckets
        )

    # each side is bucketed before the union, and the union is coalesced
    # (block split / merge, no row shuffle) to one block per bucket, so the
    # sort's map side is one task per bucket; coalescing each input before
    # ``tag`` instead hung on a one-CPU cluster, and bucketing after the
    # union costs a map operator
    both = tagged(left, 0).union(tagged(right, 1))
    _in_order(both)
    both = both.repartition(num_buckets)
    # one bucket per task: merge_bucket runs once per bucket
    return exchange(both, merge_bucket, None, num_buckets)
