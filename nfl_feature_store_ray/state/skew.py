"""Explicit skew handling for hot keys (north rule: "explicit skew salting
for hot conversations").

Two mechanisms, matched to the two operator shapes:

1. **Aggregates** (A-class): already skew-proof by construction — every
   aggregation pipeline here pre-combines per batch inside ``map_batches``
   (partial sums/counts), so a hot key contributes ONE row per batch to
   the shuffle regardless of its raw row count.

2. **Prefix-sequential window state** (W-class): a conversation cannot be
   split across tasks (windows are prefix-dependent), so the unit of skew
   is the whole conversation. ``detect_heavy_keys`` finds conversations
   whose row count exceeds a threshold via the same partial-count pattern
   (one small shuffle), and ``window_features(heavy_keys=...)`` gives each
   hot conversation a DEDICATED bucket past the hash range — the hot key
   no longer straggles every other conversation hashed into its bucket,
   and the scheduler can start its bucket first. A conversation larger
   than one worker's heap chains through ``window_features_chained``
   below: the hot conversation is split into ORDERED SUB-RANGES of
   ``sub_range_rows`` rows, each processed by its own bounded Ray task,
   with the window kernel's per-conversation carry table
   (``window_kernel_pl.kernel_arrow(carry=...)``: tail + O(1) registers)
   handed off between consecutive tasks — the same kernel and carry the
   streaming and incremental paths use, so the chain is bit-identical to
   an unsplit run on every family, the rolling means included.
   Sub-ranges of ONE conversation are inherently sequential (windows are
   prefix-dependent); parallelism comes from other conversations' chains
   and the normal-path buckets running concurrently, and peak task memory
   is O(sub_range_rows), never O(conversation).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from nfl_feature_store_ray.stages.bucketize import exchange, shuffle_buckets
from nfl_feature_store_ray.state.window_engine import window_features


def detect_heavy_keys(
    ds: ray.data.Dataset,
    key: str = "conv_id",
    min_rows: int = 10_000,
    top: int = 64,
) -> dict[str, int]:
    """Exact per-key row counts via partial-count combine; returns the up
    to ``top`` keys with >= min_rows rows, mapped to dense salt indices
    (most rows first, ties by key)."""

    def count_rows(batch: pa.Table) -> pa.Table:
        g = batch.group_by(key).aggregate([([], "count_all")])
        return pa.table({key: g[key], "n": g["count_all"]})

    def sum_counts(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by(key).aggregate([("n", "sum")])
        g = pa.table({key: g[key], "n": g["n_sum"]})
        return g.filter(pc.greater_equal(g["n"], min_rows))

    partials = ds.map_batches(count_rows, batch_format="pyarrow", batch_size=None)
    blocks = [b for b in ray.get(
        exchange(partials, sum_counts, key, shuffle_buckets()).to_arrow_refs()
    ) if b.num_rows]
    if not blocks:  # no heavy keys: empty blocks may carry no schema
        return {}
    heavy = pa.concat_tables(blocks).sort_by([("n", "descending"), (key, "ascending")])
    return {k: i for i, k in enumerate(heavy[key].slice(0, top).to_pylist())}


# ---------------------------------------------------------------------------
# Sub-range chaining for conversations larger than one worker's heap
# ---------------------------------------------------------------------------
# Raw-Ray escape hatch (guide rule (c)): the per-conversation prefix
# dependency between sub-ranges is a SEQUENTIAL state handoff that the
# Dataset API cannot express — task k+1 consumes task k's carry state.
# Everything around it (filter, column prune, distributed sort, the
# normal-conversation bucket path) stays on the Dataset API, and the
# chain's outputs re-enter it via ``from_pandas_refs`` + ``union``.

@ray.remote
def _probe_runs(block) -> pd.DataFrame:
    """Per-block contiguous (conv_id, run_length) pairs, in block order.
    Blocks arrive sorted by (conv_id, ts, tie), so each conversation is
    one contiguous run; the driver stitches global offsets from these."""
    from ray.data.block import BlockAccessor

    tbl = BlockAccessor.for_block(block).to_arrow()
    conv = tbl.column("conv_id").to_numpy(zero_copy_only=False)
    if len(conv) == 0:
        return pd.DataFrame({"conv_id": pd.Series([], dtype="string"),
                             "n": pd.Series([], dtype="int64")})
    brk = np.flatnonzero(conv[1:] != conv[:-1]) + 1
    starts = np.concatenate([[0], brk])
    ends = np.concatenate([brk, [len(conv)]])
    return pd.DataFrame({"conv_id": conv[starts], "n": ends - starts})


@ray.remote(num_returns=2)
def _chain_step(carry, los, his, metrics, phases, tie_col, *blocks):
    """ONE bounded sub-range of one conversation: slice the listed Arrow
    blocks to [lo, hi), run the window kernel seeded with the carried
    per-conversation state, return (features, carry-out). Without a tie
    column, duplicate ts would make the sub-range order (and thus every
    prefix-dependent feature) vary from run to run, so they are rejected —
    inside the sub-range and against the carried last ts."""
    from ray.data.block import BlockAccessor

    from nfl_feature_store_ray.state.window_kernel_pl import empty_carry, kernel_arrow

    tbl = pa.concat_tables([
        BlockAccessor.for_block(b).to_arrow().slice(lo, hi - lo)
        for b, lo, hi in zip(blocks, los, his)
    ])
    if carry is None:
        carry = empty_carry(metrics, phases)
    if tie_col is None:
        # a chain carries exactly its one conversation: the carry's last ts
        # (if any) directly precedes the sub-range
        ts = pa.concat_arrays([
            carry["last_ts"].combine_chunks().cast(tbl.schema.field("ts").type),
            tbl["ts"].combine_chunks(),
        ])
        if pc.any(pc.equal(ts[1:], ts[:-1])).as_py():
            raise ValueError(
                f"duplicate ts in heavy conversation {tbl['conv_id'][0]} with "
                "tie_col=None: the row order is ambiguous; pass a tie column"
            )
    return kernel_arrow(
        _with_roles(tbl), metrics=metrics, assign_turn_idx=True, sort=False,
        phases=phases, carry=carry,
    )


def _with_roles(tbl):
    """Role one-hots only (matching stages.derive dtypes) — the chained
    surface never reads text, so the batch branch shouldn't require
    text-derived columns the caller already pruned away."""
    for r in ("user", "assistant", "tool"):
        tbl = tbl.append_column(f"is_{r}", pc.cast(pc.equal(tbl["role"], r), pa.int8()))
    return tbl


def window_features_chained(
    ds: ray.data.Dataset,
    metrics: tuple[str, ...] = ("value",),
    num_buckets: int | None = None,
    heavy_keys: dict | None = None,
    min_rows: int = 1_000_000,
    sub_range_rows: int = 1_000_000,
    phases: tuple[str, ...] = (),
    tie_col: str | None = None,
    top: int = 64,
) -> ray.data.Dataset:
    """Window features where HOT conversations chain through bounded
    sub-range tasks instead of one whole-conversation bucket task.

    Normal conversations take the standard bucket-shuffle batch path
    (``window_engine.window_features``); conversations with more than
    ``min_rows`` rows are pulled out, distributed-sorted by
    (conv_id, ts, tie), cut into ``sub_range_rows``-row sub-ranges, and
    processed by a per-conversation CHAIN of Ray tasks that hand the
    window kernel's carry table from one task to the next — peak memory
    per task is O(sub_range_rows) regardless of conversation size. Output
    columns are ``window_kernel_pl.feature_columns`` (turn_idx assigned
    positionally from the sort order). Both branches run the same kernel,
    so the chain is bit-identical to the one-task batch kernel on every
    family, the rolling means (form_*) included.

    ``num_buckets`` sizes the normal path's shuffle and is passed through
    to ``window_features``: ``None`` means 2 x the cluster's CPUs, so a
    bucket holds about total / (2 x CPUs) rows of the normal
    conversations. Pass a larger count when that exceeds a worker's heap;
    the heavy conversations never enter a bucket.

    ``metrics`` must be PHYSICAL columns of ``ds`` (the heavy branch
    prunes to conv_id/ts/role/metrics/tie before its sort, so derived
    metrics like text_len must be materialized by the caller first —
    the same contract as the partitioned streaming layout).

    Ordering: with ``tie_col=None`` a heavy conversation's rows must have
    distinct ts; duplicate ts would make the sub-range order vary from
    run to run, so the chain raises ``ValueError``. Pass a tie column
    (e.g. ``turn_idx`` or ``_seq``) when ts can repeat.

    Cost: ``ds``'s lineage runs up to three times — heavy-key detection
    (skipped when ``heavy_keys`` is given), then the normal and the heavy
    filters. Pass a materialized ``ds`` or a precomputed ``heavy_keys``
    when the input is expensive to produce.

    Partitioning assumption (documented per the custom-operator rule):
    the input's (conv_id, ts, tie) sort delivers each conversation's
    rows exactly once, in order — the same contract the partitioned
    streaming layout guarantees at ingest.
    """
    from nfl_feature_store_ray.state.window_kernel_pl import feature_columns

    if heavy_keys is None:
        heavy_keys = detect_heavy_keys(ds, key="conv_id", min_rows=min_rows,
                                       top=top)

    out_cols = feature_columns(metrics, phases)

    def _select(tbl):
        """Zero-copy Arrow projection + one string-repr normalization so
        BOTH branches reach the union with an identical schema (the
        input's plain-string conv_ids pass through the chain, the polars
        batch spine emits large_string)."""
        t = tbl.select(out_cols)
        i = t.schema.get_field_index("conv_id")
        if t.schema.field(i).type != pa.large_string():
            t = t.set_column(
                i, "conv_id", pc.cast(t.column("conv_id"), pa.large_string()))
        return t

    if not heavy_keys:
        feats = window_features(
            ds, metrics=metrics, num_buckets=num_buckets, assign_turn_idx=True,
            phases=phases, derive=False, pre_kernel=_with_roles,
        )
        return feats.map_batches(_select, batch_format="pyarrow",
                                 zero_copy_batch=True)

    heavy = set(heavy_keys)
    keep = ["conv_id", "ts", "role", *metrics] + ([tie_col] if tie_col else [])

    def _split(flag: bool):
        # Arrow-native filter: keeps the blocks Arrow end-to-end (the
        # heavy branch's sort then shuffles Arrow, not pandas, blocks)
        def f(tbl):
            m = pc.is_in(
                tbl["conv_id"],
                value_set=pa.array(sorted(heavy),
                                   tbl.schema.field("conv_id").type))
            if flag:
                return tbl.filter(m).select(keep)
            return tbl.filter(pc.invert(m))
        return f

    normal_feats = window_features(
        ds.map_batches(_split(False), batch_format="pyarrow",
                       zero_copy_batch=True),
        metrics=metrics, num_buckets=num_buckets, assign_turn_idx=True,
        phases=phases, derive=False, pre_kernel=_with_roles,
    ).map_batches(_select, batch_format="pyarrow", zero_copy_batch=True)

    # --- heavy path: prune -> distributed sort -> ordered block refs ----
    sort_keys = ["conv_id", "ts"] + ([tie_col] if tie_col else [])
    mat = (
        ds.map_batches(_split(True), batch_format="pyarrow",
                       zero_copy_batch=True)
        .sort(sort_keys)
        .materialize()
    )
    block_info = []  # (ref, num_rows) in global sorted order
    for bundle in mat.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows:
                block_info.append((ref, meta.num_rows))
    if not block_info:
        return normal_feats

    # stitch per-conversation global [start, end) from per-block runs
    runs = ray.get([_probe_runs.remote(ref) for ref, _ in block_info])
    conv_ranges: list[tuple[str, int, int]] = []  # (conv, g0, g1) in order
    g = 0
    for rdf in runs:
        for conv, n in zip(rdf["conv_id"], rdf["n"]):
            n = int(n)
            if conv_ranges and conv_ranges[-1][0] == conv:
                c, s, _ = conv_ranges[-1]
                conv_ranges[-1] = (c, s, g + n)
            else:
                conv_ranges.append((conv, g, g + n))
            g += n
    block_starts = np.cumsum([0] + [n for _, n in block_info])

    def _pieces(a: int, b: int):
        """Map global row range [a, b) to per-block (ref, lo, hi) slices."""
        first = int(np.searchsorted(block_starts, a, side="right")) - 1
        refs, los, his = [], [], []
        for i in range(first, len(block_info)):
            s = int(block_starts[i])
            e = int(block_starts[i + 1])
            if s >= b:
                break
            refs.append(block_info[i][0])
            los.append(max(a, s) - s)
            his.append(min(b, e) - s)
        return refs, los, his

    out_refs = []
    for _, g0, g1 in conv_ranges:
        carry = None
        for a in range(g0, g1, sub_range_rows):
            refs, los, his = _pieces(a, min(a + sub_range_rows, g1))
            out_ref, carry = _chain_step.remote(
                carry, los, his, metrics, phases, tie_col, *refs
            )
            out_refs.append(out_ref)

    heavy_feats = ray.data.from_arrow_refs(out_refs).map_batches(
        _select, batch_format="pyarrow", zero_copy_batch=True
    )
    return normal_feats.union(heavy_feats)
