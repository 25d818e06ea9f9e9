"""End-to-end streaming job over the sorted partitioned layout must match
the batch window engine."""

import shutil

import numpy as np
import ray.data as rd

from nfl_feature_store_ray.pipelines.partitioned import (
    ingest_partitioned_with_transform,
    sort_partition,
    window_features_streaming,
)
from nfl_feature_store_ray.sources.transcripts import generate_transcripts
from nfl_feature_store_ray.state.window_engine import window_features

PART_DIR = "/tmp/nfl_fs_stream_parts"
METRICS = ("value", "text_len")


def test_streaming_pipeline_matches_batch_engine():
    tbl = generate_transcripts(n_convs=30, mean_turns=12, seed=57)
    shutil.rmtree(PART_DIR, ignore_errors=True)
    ingest_partitioned_with_transform(
        rd.from_arrow(tbl), PART_DIR, transform=sort_partition,
        num_buckets=6,
    )

    got = (
        window_features_streaming(PART_DIR, metrics=METRICS, batch_size=64)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )
    ref = (
        window_features(rd.from_arrow(tbl), metrics=METRICS, num_buckets=6)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )
    assert len(got) == len(ref) == tbl.num_rows
    feat_cols = [c for c in got.columns if c not in ("conv_id", "ts")]
    for c in feat_cols:
        if c not in ref.columns:
            continue
        np.testing.assert_allclose(
            got[c].to_numpy(dtype="float64"),
            ref[c].to_numpy(dtype="float64"),
            rtol=1e-9, atol=1e-12, equal_nan=True, err_msg=c,
        )
