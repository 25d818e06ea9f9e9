"""SURVEY §7.3 escape hatch, executed: a conversation far larger than one
bucket's comfortable batch (500k turns — bigger than any single batch the
streaming actor pool is allowed) must flow through the streaming job in
bounded per-batch state and match the unsplit window kernel.

The batch path would hold the whole conversation in one task (windows are
prefix-sequential per conversation, so a conversation can never be split
across buckets); the streaming actor pool is the documented path when that
one task would exceed a worker's heap: the kernel's O(tail + registers)
carry per conversation, ordered batches."""

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
from nfl_feature_store_ray.state.window_kernel_pl import kernel_arrow

PART_DIR = "/tmp/nfl_fs_giant_parts"
GIANT_TURNS = 500_000
BATCH = 8_192  # forced small batch: the giant conversation spans ~61 batches


def _giant_frame() -> pd.DataFrame:
    rng = np.random.default_rng(11)
    base = pd.Timestamp("2024-05-01")
    n = GIANT_TURNS
    roles = np.array(["user", "assistant", "tool"], dtype=object)
    # occasional >gap jumps so sessionization state also crosses batches
    gaps = np.where(rng.random(n) < 2e-5, 100_000.0, rng.integers(1, 30, n))
    giant = pd.DataFrame(
        {
            "conv_id": "giant",
            "turn_idx": np.arange(n, dtype="int32"),
            "role": roles[rng.integers(0, 3, n)],
            "text": "t",
            "tool": None,
            "ts": base + pd.to_timedelta(np.cumsum(gaps), unit="s"),
            "value": np.round(rng.random(n) * 10, 2),
        }
    )
    small = pd.DataFrame(
        {
            "conv_id": "small",
            "turn_idx": np.arange(5, dtype="int32"),
            "role": ["user"] * 5,
            "text": "t",
            "tool": None,
            "ts": base + pd.to_timedelta(np.arange(5), unit="s"),
            "value": [1.0, 2.0, 3.0, 4.0, 5.0],
        }
    )
    return pd.concat([giant, small], ignore_index=True)


def test_giant_conversation_streaming_matches_batch_kernel():
    df = _giant_frame()
    shutil.rmtree(PART_DIR, ignore_errors=True)
    ingest_partitioned_with_transform(
        rd.from_pandas(df), PART_DIR, transform=sort_partition,
        num_buckets=4,
    )

    got = (
        window_features_streaming(PART_DIR, metrics=("value",), batch_size=BATCH)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )
    assert len(got) == len(df)

    ref_in = df.sort_values(["conv_id", "ts", "turn_idx"], kind="mergesort").reset_index(
        drop=True
    )
    for r in ("user", "assistant", "tool"):
        ref_in[f"is_{r}"] = (ref_in["role"] == r).astype("int8")
    ref = (
        kernel_arrow(pa.Table.from_pandas(ref_in, preserve_index=False), metrics=("value",))
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )

    # the giant conversation must actually have crossed many batch splits
    assert GIANT_TURNS // BATCH >= 60

    for c in ("last_value", "avg_value", "session_avg_value",
              "gap_s", "roll10_tool_rate", "turns_since_tool"):
        np.testing.assert_allclose(
            got[c].to_numpy(dtype="float64"),
            ref[c].to_numpy(dtype="float64"),
            rtol=1e-9, atol=1e-12, equal_nan=True, err_msg=c,
        )
    # the carried EWMA register continues the same recursion, and the
    # rolling mean's cents window runs through the carried tail: bitwise
    for c in ("ewma_value", "form_value"):
        a = got[c].to_numpy(dtype="float64")
        b = ref[c].to_numpy(dtype="float64")
        assert ((a == b) | (np.isnan(a) & np.isnan(b))).all(), c
    assert (got["session_id"].to_numpy() == ref["session_id"].to_numpy()).all()
