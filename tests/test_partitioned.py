"""Partitioned-layout path: ingest once (sorted), and the shuffle-free
streaming window job must give byte-identical features to the
shuffle-based engine path."""

import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from nfl_feature_store_ray.pipelines.partitioned import (
    ingest_partitioned_with_transform,
    sort_partition,
    window_features_streaming,
)
from nfl_feature_store_ray.sources.transcripts import generate_transcripts
from nfl_feature_store_ray.state.window_engine import window_features

PART_DIR = "/tmp/nfl_fs_part_test"
METRICS = ("value", "text_len", "n_tokens")


def test_partitioned_equals_shuffled():
    tbl = generate_transcripts(n_convs=40, mean_turns=12, seed=77)
    ds = rd.from_arrow(tbl)

    shutil.rmtree(PART_DIR, ignore_errors=True)
    man = ingest_partitioned_with_transform(
        ds, PART_DIR, transform=sort_partition, num_buckets=8,
    )
    assert len(man) <= 8 and man["rows_in"].sum() == tbl.num_rows

    # default batch_size: one kernel call per partition file
    a = (
        window_features_streaming(PART_DIR, metrics=METRICS)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )
    b = (
        window_features(rd.from_arrow(tbl), metrics=METRICS, num_buckets=8)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )
    assert len(a) == len(b) == tbl.num_rows
    # both paths run the same polars kernel: bit-identical, NULLs at the
    # same rows, over every column the streaming job returns
    pd.testing.assert_frame_equal(a, b[a.columns], check_exact=True)


def test_sort_partition_is_stable_and_matches_pandas_mergesort():
    # equal (conv_id, ts) and no tie column: input order must survive
    ts = pd.Timestamp("2024-01-01")
    ties = pa.table({
        "conv_id": ["b", "a", "b", "a", "b"],
        "ts": [ts, ts, ts, ts, ts - pd.Timedelta("1s")],
        "pos": [0, 1, 2, 3, 4],
    })
    assert sort_partition(ties)["pos"].to_pylist() == [1, 3, 4, 0, 2]

    # the pandas transform it replaced, on shuffled transcripts
    tbl = generate_transcripts(n_convs=40, mean_turns=12, seed=77)
    tbl = tbl.take(np.random.default_rng(5).permutation(tbl.num_rows))
    want = (
        tbl.to_pandas()
        .sort_values(["conv_id", "ts", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(sort_partition(tbl).to_pandas(), want)
