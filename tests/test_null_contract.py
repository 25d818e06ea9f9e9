"""Null contract: a window family with no non-null value in its frame is
NULL, never NaN. On inputs whose metric columns hold NULLs but no NaN, no
feature column of the kernel or of the batch, streaming, chained and
incremental paths may hold a NaN (``pc.is_nan``).

The planted hazard is a conversation whose first session holds only NULL
values: that session has no final mean, so the next session's opening
``session_avg_*`` must be NULL (the SQL oracle's ``NULLIF(n, 0)``), and a
phase family before the first phase row must be NULL too."""

import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data as rd
from hypothesis import given, settings, strategies as st

from nfl_feature_store_ray.functions.rounding import round_half_away
from nfl_feature_store_ray.pipelines.partitioned import (
    ingest_partitioned_with_transform,
    sort_partition,
    window_features_streaming,
)
from nfl_feature_store_ray.sources.transcripts import generate_transcripts
from nfl_feature_store_ray.stages.derive import _derive_batch, _derive_wide_batch
from nfl_feature_store_ray.state.incremental import window_features_incremental
from nfl_feature_store_ray.state.skew import detect_heavy_keys, window_features_chained
from nfl_feature_store_ray.state.window_engine import window_features
from nfl_feature_store_ray.state.window_kernel_pl import empty_carry, kernel_arrow
from tests.test_property_windows import _arrow, _prep, transcript_frames

PHASES = ("user", "assistant")
PART = "/tmp/nfl_fs_null_contract_parts"
STATE = "/tmp/nfl_fs_null_contract_state"


def _nan_columns(tbl: pa.Table) -> list[str]:
    return [
        name for name, col in zip(tbl.column_names, tbl.columns)
        if pa.types.is_floating(col.type) and pc.any(pc.is_nan(col)).as_py()
    ]


@st.composite
def null_heavy_frames(draw):
    """transcript_frames with every value of some conversations' first
    session set to NULL."""
    df = _prep(draw(transcript_frames(nulls=True)))
    new_session = df.groupby("conv_id")["ts"].diff() > pd.Timedelta(days=1)
    first_session = new_session.astype(int).groupby(df["conv_id"]).cumsum() == 0
    blank = df["conv_id"].isin(draw(st.sets(st.sampled_from(sorted(df["conv_id"].unique())))))
    df.loc[first_session & blank, "value"] = None
    return df


@settings(max_examples=40, deadline=None, derandomize=True)
@given(null_heavy_frames(), st.integers(0, 25), st.sampled_from([(), PHASES]))
def test_kernel_emits_no_nan_for_null_values(df, cut, phases):
    """Batch kernel, and a carry handed across a cut, on null-value frames."""
    kw = {"metrics": ("value", "text_len"), "phases": phases}
    assert _nan_columns(_arrow(df)) == []
    assert _nan_columns(kernel_arrow(_arrow(df), **kw)) == []
    in_head = (df.groupby("conv_id").cumcount() < cut).to_numpy()
    head, carry = kernel_arrow(_arrow(df[in_head]), carry=empty_carry(**kw), **kw)
    tail, carry = kernel_arrow(_arrow(df[~in_head]), carry=carry, **kw)
    assert _nan_columns(head) == [] and _nan_columns(tail) == []
    assert _nan_columns(carry) == []


@pytest.fixture(scope="module")
def null_transcripts() -> pa.Table:
    """generate_transcripts with 20 % NULL values and every odd
    conversation's first session entirely NULL (the planted hot
    conversation, conv_00001, among them)."""
    df = (
        generate_transcripts(n_convs=30, mean_turns=10, seed=23).to_pandas()
        .sort_values(["conv_id", "ts", "turn_idx"], kind="mergesort").reset_index(drop=True)
    )
    rng = np.random.default_rng(23)
    new_session = df.groupby("conv_id")["ts"].diff() > pd.Timedelta(days=1)
    session = new_session.astype(int).groupby(df["conv_id"]).cumsum()
    odd = df["conv_id"].str[-1].astype(int) % 2 == 1
    df.loc[(rng.random(len(df)) < 0.2) | ((session == 0) & odd), "value"] = None
    # the hazard is planted: an all-NULL first session with a later session
    assert ((session > 0) & odd).any()
    tbl = pa.Table.from_pandas(df, preserve_index=False)
    assert _nan_columns(tbl) == []
    return tbl


def _batch(tbl):
    return window_features(rd.from_arrow(tbl), metrics=("value", "text_len"),
                           assign_turn_idx=True, phases=PHASES)


def _streaming(tbl):
    shutil.rmtree(PART, ignore_errors=True)
    ingest_partitioned_with_transform(rd.from_arrow(tbl), PART, transform=sort_partition,
                                      num_buckets=4)
    return window_features_streaming(PART, metrics=("value", "text_len"), phases=PHASES)


def _chained(tbl):
    heavy = detect_heavy_keys(rd.from_arrow(tbl), key="conv_id", min_rows=200)
    assert heavy, "the generator plants a hot conversation"
    return window_features_chained(rd.from_arrow(tbl), metrics=("value",), heavy_keys=heavy,
                                   sub_range_rows=64, tie_col="turn_idx", phases=PHASES)


def _incremental(tbl):
    """Two append rounds (the first 60 % of time, then the rest)."""
    shutil.rmtree(PART, ignore_errors=True)
    shutil.rmtree(STATE, ignore_errors=True)
    cut = pc.quantile(tbl["ts"].cast(pa.int64()), 0.6)[0].as_py()
    outs = []
    for rows in (tbl.filter(pc.less_equal(tbl["ts"].cast(pa.int64()), cut)), tbl):
        ingest_partitioned_with_transform(rd.from_arrow(rows), PART, transform=sort_partition,
                                          num_buckets=4)
        outs.append(window_features_incremental(PART, STATE, metrics=("value", "text_len"),
                                                phases=PHASES).materialize())
    return outs[0].union(outs[1])


@pytest.mark.parametrize("path", [_batch, _streaming, _chained, _incremental],
                         ids=["batch", "streaming", "chained", "incremental"])
def test_library_paths_emit_no_nan_for_null_values(path, null_transcripts):
    out = pa.concat_tables(path(null_transcripts).iter_batches(batch_format="pyarrow",
                                                                  batch_size=None))
    assert out.num_rows == null_transcripts.num_rows
    assert _nan_columns(out) == []


def test_wide_value_columns_are_null_for_null_and_nan_values():
    """The wide fan-out's value-derived columns are NULL where ``value`` is
    NULL or NaN, and elsewhere bit-identical to the plain numpy formulas."""
    tbl = pa.table({
        "text": ["a b", "tools", None, "east", "", "it is"],
        "role": ["user", "assistant", "tool", "user", "tool", "assistant"],
        "tool": [None, "x", None, None, "y", None],
        "value": pa.array([1.25, None, -3.45, float("nan"), 0.07, 12.5], pa.float64()),
    })
    bad = np.array([False, True, False, True, False, False])
    v = np.array([1.25, -3.45, 0.07, 12.5])
    expected = {
        "value_half": pa.array(round_half_away(v / 2.0, 2)),
        "val_floor": pa.array(np.floor(v)),
        "val_frac": pa.array(round_half_away(v - np.floor(v), 2)),
        "val_cents_mod10": pa.array(np.rint(v * 100.0).astype("int64") % 10),
    }
    out = _derive_wide_batch(_derive_batch(tbl))
    for c, want in expected.items():
        col = out.column(c)
        assert col.is_null().to_pylist() == bad.tolist(), c
        assert col.filter(pa.array(~bad)).combine_chunks().equals(want), c
