"""The bucket exchange hands each call whole buckets.

``stages.bucketize.exchange`` over an input split into many blocks: every
call gets a contiguous range of whole buckets (one bucket by default), its
rows are exactly those buckets' rows, and a heavy key's bucket is alone in
its call. A bucket split over two calls would hand the window kernel part
of a conversation and silently corrupt every window family."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from nfl_feature_store_ray.sources.transcripts import generate_transcripts
from nfl_feature_store_ray.stages.bucketize import BUCKET_COL, bucket_of, exchange

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


@pytest.mark.parametrize(
    "num_buckets, tasks, heavy",
    [(1, None, False), (2, None, False), (8, None, False), (8, None, True), (8, 3, True),
     (8, 1, False)],
)
def test_every_call_gets_whole_buckets(num_buckets, tasks, heavy):
    heavy_keys = {HOT: 0} if heavy else None
    ds = rd.from_arrow(TBL).repartition(13)
    assert ds.materialize().num_blocks() == 13
    calls = exchange(ds, probe, "conv_id", num_buckets, heavy_keys, tasks).to_pandas()
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
    if heavy:
        hot_bucket = num_buckets
        assert [list(c.ids) for c in calls.itertuples() if hot_bucket in c.ids] == [[hot_bucket]]


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
