"""The bucket exchange hands each call whole buckets.

``stages.bucketize.exchange`` over an input split into many blocks, and
over a one-block input on both of its paths (Ray's sort, and the one task
that buckets the block itself on one CPU): every call gets a contiguous
range of whole buckets (one bucket by default), its rows are exactly those
buckets' rows, and a heavy key's bucket is alone in its call. A bucket
split over two calls would hand the window kernel part of a conversation
and silently corrupt every window family."""

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd
from ray.data import DataContext
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

from nfl_feature_store_ray.sources.transcripts import generate_transcripts
from nfl_feature_store_ray.stages import bucketize
from nfl_feature_store_ray.stages.bucketize import (
    BUCKET_COL,
    bucket_of,
    exchange,
    exchange_input,
    plan_estimate,
)
from nfl_feature_store_ray.state.manifest import write_partitioned
from nfl_feature_store_ray.state.skew import detect_heavy_keys
from tests.conftest import one_cpu_exchange

TBL = generate_transcripts(n_convs=60, mean_turns=12, seed=17)
CONVS = TBL["conv_id"].to_pandas()
HOT = CONVS.value_counts().index[0]  # the conversation with the most rows


PROBE = pa.schema([
    ("ids", pa.list_(pa.int64())), ("counts", pa.list_(pa.int64())),
    ("rows", pa.int64()), ("sorted", pa.bool_()),
])


def probe(tbl: pa.Table) -> pa.Table:
    """One row per call with rows: its bucket ids, their row counts, its
    row count; no row for a call without rows."""
    b = tbl[BUCKET_COL].to_numpy()
    ids, counts = np.unique(b, return_counts=True)
    row = {"ids": ids.tolist(), "counts": counts.tolist(), "rows": tbl.num_rows,
           "sorted": bool((np.diff(b) >= 0).all())}
    return pa.Table.from_pylist([row] if tbl.num_rows else [], schema=PROBE)


def expected_sizes(num_buckets: int, heavy_keys: dict | None) -> pd.Series:
    b = bucket_of(CONVS, num_buckets).to_numpy()
    for k, i in (heavy_keys or {}).items():
        b[(CONVS == k).to_numpy()] = num_buckets + i
    return pd.Series(b).value_counts()


def check_calls(calls: pd.DataFrame, num_buckets: int, tasks, heavy_keys):
    """``calls`` (one ``probe`` row per call with rows) covers every bucket
    once, whole, one contiguous range per call."""
    sizes = expected_sizes(num_buckets, heavy_keys)

    # the ranges the exchange cuts: contiguous hash-bucket ranges, then one
    # per heavy bucket
    t = tasks or num_buckets
    starts = [num_buckets * i // t for i in range(t + 1)]
    ranges = [range(a, b) for a, b in zip(starts, starts[1:])]
    ranges += [range(num_buckets + i, num_buckets + i + 1) for i in range(len(heavy_keys or ()))]

    seen = []
    for call in calls.itertuples():
        ids = list(call.ids)
        owner = [r for r in ranges if ids[0] in r]
        assert len(owner) == 1 and all(i in owner[0] for i in ids), (ids, ranges)
        seen.append(owner[0])
        assert call.sorted
        assert list(call.counts) == [int(sizes[i]) for i in ids]
        assert call.rows == sum(call.counts)
    assert len(seen) == len(set(seen)), "a range reached two calls"
    # every non-empty bucket reached exactly one call, whole
    got = [i for call in calls.itertuples() for i in call.ids]
    assert sorted(got) == sorted(sizes.index.tolist())
    assert calls["rows"].sum() == TBL.num_rows
    if heavy_keys:
        hot_bucket = num_buckets
        assert [list(c.ids) for c in calls.itertuples() if hot_bucket in c.ids] == [[hot_bucket]]


CASES = pytest.mark.parametrize(
    "num_buckets, tasks, heavy",
    [(1, None, False), (2, None, False), (8, None, False), (8, None, True), (8, 3, True),
     (8, 1, False)],
)


@CASES
def test_every_call_gets_whole_buckets(num_buckets, tasks, heavy):
    heavy_keys = {HOT: 0} if heavy else None
    ds = rd.from_arrow(TBL).repartition(13)
    assert ds.materialize().num_blocks() == 13
    calls = exchange(ds, probe, "conv_id", num_buckets, heavy_keys, tasks).to_pandas()
    check_calls(calls, num_buckets, tasks, heavy_keys)


@CASES
def test_one_block_input_gets_whole_buckets(exchange_path, num_buckets, tasks, heavy):
    """A one-block input: the one-task path (no ``Sort`` in the plan) cuts
    the same ranges as the sort."""
    heavy_keys = {HOT: 0} if heavy else None
    out = exchange(rd.from_arrow(TBL), probe, "conv_id", num_buckets, heavy_keys, tasks)
    out = out.materialize()
    assert ("Sort" in out.stats()) == (exchange_path == "sort")
    check_calls(out.to_pandas(), num_buckets, tasks, heavy_keys)


def test_empty_ranges_keep_the_schema():
    """A range without rows still gets a block with ``fn``'s schema. Ray's
    sort alone returns a schema-less empty table for an empty range, which
    makes every operator after it log a schema change."""
    ds = rd.from_arrow(TBL).repartition(13)
    out = exchange(ds, probe, "conv_id", 256).materialize()
    blocks = [ray.get(ref) for b in out.iter_internal_ref_bundles() for ref in b.block_refs]
    assert len(blocks) == 256
    assert {b.schema for b in blocks} == {PROBE}
    nonempty = expected_sizes(256, None)
    assert sorted(b.num_rows for b in blocks) == [0] * (256 - len(nonempty)) + [1] * len(nonempty)


def test_one_task_calls_fn_once_per_range_with_typed_tables():
    """The one-task path calls ``fn`` once per range, an empty range with
    zero rows of the input's schema and ``_bucket`` last, as the sort
    path does (its per-range blocks are checked above)."""
    def shape(tbl: pa.Table) -> pa.Table:
        chunks = {tbl.column(i).num_chunks for i in range(tbl.num_columns)}
        return pa.table({"rows": [tbl.num_rows], "schema": [str(tbl.schema)],
                         "single_chunk": [chunks <= {1}]})

    with one_cpu_exchange():
        out = exchange(rd.from_arrow(TBL), shape, "conv_id", 256).to_pandas()
    want = TBL.schema.append(pa.field(BUCKET_COL, pa.int32()))
    assert len(out) == 256 and out["rows"].sum() == TBL.num_rows
    assert set(out["schema"]) == {str(want)} and out["single_chunk"].all()
    assert (out["rows"] == 0).sum() == 256 - len(expected_sizes(256, None))


def test_zero_row_input(exchange_path, tmp_path):
    """A 0-row input reaches no call with rows on either path, finds no
    heavy key and commits no partition."""
    empty = rd.from_arrow(TBL.slice(0, 0))
    assert exchange(empty, probe, "conv_id", 8, {HOT: 0}, 3).count() == 0
    assert detect_heavy_keys(empty, min_rows=1) == {}
    assert write_partitioned(empty, str(tmp_path), num_buckets=8).empty


def test_write_partitioned_is_byte_equal_on_both_paths(tmp_path):
    """A one-block commit writes the same partition files and manifests
    on the one-task path as through the sort (timings aside)."""
    def commit(out):
        return write_partitioned(rd.from_arrow(TBL), str(out), num_buckets=16)

    sort_man = commit(tmp_path / "sort")
    with one_cpu_exchange():
        task_man = commit(tmp_path / "task")
    assert len(sort_man) == len(expected_sizes(16, None))
    timing = ["seconds", "rows_per_sec", "output_file"]
    pd.testing.assert_frame_equal(sort_man.drop(columns=timing), task_man.drop(columns=timing))
    assert sorted(os.listdir(tmp_path / "sort")) == sorted(os.listdir(tmp_path / "task"))
    for name in os.listdir(tmp_path / "sort"):
        a = (tmp_path / "sort" / name).read_bytes()
        b = (tmp_path / "task" / name).read_bytes()
        if name.endswith(".json"):
            a, b = ({k: v for k, v in json.loads(x).items() if k not in timing} for x in (a, b))
        assert a == b, name


class NoEstimate(Datasource):
    """One read task that returns ``TBL`` with no size estimate."""

    def estimate_inmemory_data_size(self):
        return None

    def get_read_tasks(self, parallelism):
        return [ReadTask(lambda: [TBL], BlockMetadata(None, None, None, None))]


def test_plan_estimate_reads_ray_plans(tmp_path):
    """Ray's block count and source size, before anything runs. Ray
    renaming the plan attributes fails here (the exchange would otherwise
    quietly always sort)."""
    blocks, size = plan_estimate(rd.from_arrow(TBL))
    assert blocks == 1 and 0.9 * TBL.nbytes < size <= TBL.nbytes
    assert plan_estimate(rd.from_arrow(TBL).repartition(3))[0] == 3
    pq.write_table(TBL, tmp_path / "t.parquet")
    blocks, size = plan_estimate(rd.read_parquet(str(tmp_path), override_num_blocks=1)
                                 .map_batches(lambda t: t, batch_format="pyarrow"))
    assert blocks == 1 and size > 0
    # a read whose block count Ray picks at run time: the plan's 1 may split
    assert rd.read_parquet(str(tmp_path))._plan.initial_num_blocks() == 1
    assert plan_estimate(rd.read_parquet(str(tmp_path))) == (None, size)
    assert plan_estimate(rd.read_datasource(NoEstimate(), override_num_blocks=1)) == (1, None)


@pytest.mark.parametrize("case", ["one_cpu", "four_cpus", "two_blocks", "too_large",
                                  "no_estimate", "key_none", "read_split"])
def test_one_task_rule(case, tmp_path):
    """The exchange skips the sort only for a key, one CPU, one block and
    a source within ``target_max_block_size``; the output is the same."""
    ds = rd.from_arrow(TBL)
    if case == "no_estimate":
        ds = rd.read_datasource(NoEstimate(), override_num_blocks=1)
    if case == "read_split":
        # Ray cuts this one-file read into blocks at run time
        pq.write_table(TBL, tmp_path / "t.parquet")
        ds = rd.read_parquet(str(tmp_path))
    if case == "two_blocks":
        ds = ds.repartition(2)
    key = "conv_id"
    if case == "key_none":
        ds, key = exchange_input(ds, "conv_id", 4), None
    ctx = DataContext.get_current()
    limit = ctx.target_max_block_size
    try:
        with one_cpu_exchange():
            if case == "four_cpus":
                bucketize.cluster_cpus = lambda: 4
            if case == "too_large":
                ctx.target_max_block_size = TBL.nbytes // 2
            out = exchange(ds, probe, key, 4)
    finally:
        ctx.target_max_block_size = limit
    one_task = case == "one_cpu"
    assert (out.context.target_max_block_size is None) == one_task
    assert ds.context.target_max_block_size == limit  # the caller's plan keeps it
    out = out.materialize()
    assert ("Sort" in out.stats()) != one_task
    check_calls(out.to_pandas(), 4, None, None)


ONE_CPU_SPLIT = """
import pyarrow as pa
import pyarrow.parquet as pq
from ray.data import DataContext
from nfl_feature_store_ray.sources import transcripts_from_events
from nfl_feature_store_ray.stages.bucketize import plan_estimate
from nfl_feature_store_ray.state import window_features

def pad(t):
    return t.append_column("pad", pa.array(["x" * 200] * t.num_rows))

limit = 256 * 1024
DataContext.get_current().target_max_block_size = limit
ts = transcripts_from_events({sf!r}).map_batches(pad, batch_format="pyarrow")
blocks, size = plan_estimate(ts)
assert blocks == 1 and size <= limit, (blocks, size)
# the read task alone would cut its output into several blocks
assert ts.materialize().num_blocks() > 1
feats = window_features(ts, metrics=("value",), assign_turn_idx=True).materialize()
stats = feats.stats()
assert "MapBatches(pad)->MapBatches(kern): 1 tasks executed" in stats, stats
assert "Sort" not in stats, stats
blocks = list(feats.iter_batches(batch_size=None, batch_format="pyarrow"))
pq.write_table(pa.concat_tables(blocks), {out!r})
ray.shutdown()
"""


def test_one_task_exchange_under_a_small_block_limit_equals_the_sort(tmp_path):
    """On one CPU at a 256 KiB block limit, a one-file input whose read
    would arrive in several blocks still reaches the kernel as one call
    per bucket: ``window_features`` equals this session's sort path."""
    from tests.test_sources import _events
    from tests.test_streaming_one_cpu import run_one_cpu
    from nfl_feature_store_ray.sources import transcripts_from_events
    from nfl_feature_store_ray.state import window_features

    (tmp_path / "events.parquet").mkdir()
    pq.write_table(_events(3000), tmp_path / "events.parquet" / "part-0.parquet")
    out = str(tmp_path / "feats.parquet")
    run_one_cpu(ONE_CPU_SPLIT.format(sf=str(tmp_path), out=out), "one-task exchange")

    keys = ["conv_id", "turn_idx"]
    got = pq.read_table(out).to_pandas().sort_values(keys).reset_index(drop=True)
    want = (
        window_features(
            transcripts_from_events(str(tmp_path)).map_batches(
                lambda t: t.append_column("pad", pa.array(["x" * 200] * t.num_rows)),
                batch_format="pyarrow",
            ),
            metrics=("value",), assign_turn_idx=True,
        )
        .to_pandas().sort_values(keys).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)
