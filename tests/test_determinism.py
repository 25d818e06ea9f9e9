"""Invariance tests (SURVEY §5.2 item 4): output must not depend on block
count, partition (bucket) count, or physical input order."""

import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from nfl_feature_store_ray.sources.transcripts import generate_transcripts
from nfl_feature_store_ray.stages.bucketize import bucket_of, cluster_cpus, shuffle_buckets
from nfl_feature_store_ray.state.window_engine import window_features

METRICS = ("value", "text_len")


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.sort_values(["conv_id", "turn_idx"], kind="mergesort").reset_index(drop=True)
    return df[sorted(df.columns)]


def _assert_same(a: pd.DataFrame, b: pd.DataFrame):
    assert list(a.columns) == list(b.columns)
    assert len(a) == len(b)
    for c in a.columns:
        if a[c].dtype.kind in "fc":
            np.testing.assert_allclose(
                a[c].to_numpy(float), b[c].to_numpy(float), rtol=0, atol=0, equal_nan=True,
                err_msg=c,
            )
        else:
            assert (a[c].fillna("§") == b[c].fillna("§")).all(), c


def test_bucket_of_golden():
    """Persisted partition layouts depend on this hash: a key must land in
    the same bucket in every release, for single and compound keys."""
    assert bucket_of(pd.Series(["c0", "c1", "conv-42", ""]), 64).tolist() == [34, 38, 61, 45]
    assert bucket_of(pd.DataFrame({"a": ["x", "y"], "b": [1, 2]}), 8).tolist() == [3, 0]


def test_invariant_to_partitioning_and_order(exchange_path):
    """On both exchange paths: one-block inputs take the one-task path
    when it is on, the 13-block input always sorts."""
    tbl = generate_transcripts(n_convs=40, mean_turns=10, seed=31)

    base = _canon(
        window_features(rd.from_arrow(tbl), metrics=METRICS, num_buckets=2).to_pandas()
    )

    # different bucket count
    alt_buckets = _canon(
        window_features(rd.from_arrow(tbl), metrics=METRICS, num_buckets=16).to_pandas()
    )
    _assert_same(base, alt_buckets)

    # different block structure
    ds = rd.from_arrow(tbl).repartition(13)
    alt_blocks = _canon(window_features(ds, metrics=METRICS, num_buckets=8).to_pandas())
    _assert_same(base, alt_blocks)

    # reversed physical row order
    rev = tbl.take(list(range(tbl.num_rows - 1, -1, -1)))
    alt_order = _canon(
        window_features(rd.from_arrow(rev), metrics=METRICS, num_buckets=8).to_pandas()
    )
    _assert_same(base, alt_order)


def test_shuffle_buckets_follow_the_cluster():
    """In-flight shuffles default to two buckets per cluster CPU (the test
    session has 4); an explicit count is kept."""
    assert cluster_cpus() == 4
    assert shuffle_buckets() == 8
    assert shuffle_buckets(64) == 64


def test_default_buckets_match_explicit_64():
    tbl = generate_transcripts(n_convs=40, mean_turns=10, seed=31)
    default = _canon(window_features(rd.from_arrow(tbl), metrics=METRICS).to_pandas())
    explicit = _canon(
        window_features(rd.from_arrow(tbl), metrics=METRICS, num_buckets=64).to_pandas()
    )
    _assert_same(default, explicit)


def test_default_plan_makes_two_kernel_calls_per_cpu():
    """Each bucket task tags its rows with a call id before the kernel."""
    def tag_call(tbl: pa.Table) -> pa.Table:
        return tbl.append_column("call", pa.array([uuid.uuid4().hex] * tbl.num_rows))

    tbl = generate_transcripts(n_convs=40, mean_turns=10, seed=31)
    out = window_features(rd.from_arrow(tbl), metrics=METRICS, pre_kernel=tag_call).to_pandas()
    assert len(out) == tbl.num_rows
    assert out["call"].nunique() == shuffle_buckets() == 8
