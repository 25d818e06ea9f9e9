"""Window engine vs the naive oracle (SURVEY §5.2 item 1-2)."""

import pandas as pd
import pytest
import ray.data as rd

from nfl_feature_store_ray.sources.transcripts import generate_transcripts
from nfl_feature_store_ray.state.window_engine import window_features
from tests.oracle import assert_feature_parity, oracle_windows

METRICS = ("value", "text_len")


@pytest.fixture(scope="module")
def synth():
    # 60 convs incl. a single-turn conv (edge: all windows null) and a hot
    # conv (~skew); shuffled physical order (engine must sort).
    return generate_transcripts(n_convs=60, mean_turns=15, seed=11)


@pytest.fixture(scope="module")
def engine_out(synth):
    ds = rd.from_arrow(synth)
    out = window_features(ds, metrics=METRICS, num_buckets=8)
    return out.to_pandas()


def _oracle(synth):
    df = synth.to_pandas()
    df["text_len"] = df["text"].str.len()
    return oracle_windows(df, metrics=METRICS)


def test_feature_parity(engine_out, synth):
    assert_feature_parity(engine_out, _oracle(synth))


def test_single_turn_conv_all_null(engine_out):
    g = engine_out[engine_out.conv_id == "conv_00000"]
    assert len(g) == 1
    row = g.iloc[0]
    for c in ["last_value", "form_value", "avg_value", "ewma_value", "session_avg_value",
              "gap_s", "turns_since_tool", "roll10_tool_rate"]:
        assert pd.isna(row[c]), c
    assert row["session_id"] == 0 and row["session_turn_idx"] == 0


def test_text_roundtrip_byte_identical(engine_out, synth):
    """North-rule invariant: per-turn text equality under stable ordering."""
    e = engine_out.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    o = (
        synth.to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    assert (e["text"].fillna("") == o["text"].fillna("")).all()
    assert (e["conv_id"] == o["conv_id"]).all()
    assert (e["turn_idx"].to_numpy() == o["turn_idx"].to_numpy()).all()


def test_shift_semantics_strict(engine_out):
    """last_X at turn k equals raw X at turn k-1 (ref probe 1)."""
    e = engine_out.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    g = e.groupby("conv_id", sort=False)
    expected = g["value"].shift()
    pd.testing.assert_series_equal(
        e["last_value"], expected, check_names=False, check_dtype=False
    )


def test_phase_windows_kernel_parity():
    """The window kernel's per-phase families vs the row-loop oracle on a
    second data shape (allclose per the oracle contract)."""
    import pyarrow as pa

    from nfl_feature_store_ray.state.window_kernel_pl import kernel_arrow

    df = (
        generate_transcripts(n_convs=40, mean_turns=18, seed=23)
        .to_pandas()
        .sort_values(["conv_id", "ts", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )
    df["text_len"] = df["text"].str.len()
    for r in ("user", "assistant", "tool"):
        df[f"is_{r}"] = (df["role"] == r).astype("int8")
    phases = ("user", "assistant")
    got = kernel_arrow(
        pa.Table.from_pandas(df, preserve_index=False), metrics=("value",), phases=phases
    ).to_pandas()
    cols = ["conv_id", "turn_idx"] + [
        f"{fam}_value_{p}" for p in phases for fam in ("last", "form", "avg", "ewma")
    ]
    ora = oracle_windows(df, metrics=("value",), phases=phases)
    assert_feature_parity(got[cols], ora[cols])


def test_phase_windows_point_in_time():
    """A role's phase feature at turn k uses ONLY strictly-prior turns of
    that role (no leakage): hand-check a small conversation."""
    import numpy as np
    import pyarrow as pa

    from nfl_feature_store_ray.state.window_kernel_pl import kernel_arrow

    df = pd.DataFrame(
        {
            "conv_id": ["c"] * 5,
            "role": ["user", "assistant", "user", "tool", "user"],
            "ts": pd.to_datetime(
                ["2024-01-01 00:00", "2024-01-01 00:01", "2024-01-01 00:02",
                 "2024-01-01 00:03", "2024-01-01 00:04"]
            ).astype("datetime64[us]"),
            "value": [10.0, 20.0, 30.0, 40.0, 50.0],
        }
    )
    for r in ("user", "assistant", "tool"):
        df[f"is_{r}"] = (df["role"] == r).astype("int8")
    out = kernel_arrow(
        pa.Table.from_pandas(df, preserve_index=False), metrics=("value",),
        assign_turn_idx=True, phases=("user",),
    ).to_pandas()
    # last_value_user: prior user value at each turn
    np.testing.assert_array_equal(
        out["last_value_user"].to_numpy(), [np.nan, 10.0, 10.0, 30.0, 30.0]
    )
    # avg_value_user: expanding mean of strictly-prior user values
    np.testing.assert_allclose(
        out["avg_value_user"].to_numpy(), [np.nan, 10.0, 10.0, 20.0, 20.0],
        equal_nan=True,
    )


def test_phase_windows_vs_naive_oracle(synth):
    """Engine per-phase families vs the row-loop oracle (independent of
    both vectorized kernels)."""
    from tests.oracle import assert_feature_parity, oracle_windows

    phases = ("user", "assistant")
    ds = rd.from_arrow(synth)
    eng = window_features(ds, metrics=METRICS, num_buckets=8, phases=phases).to_pandas()
    df = synth.to_pandas()
    df["text_len"] = df["text"].str.len()
    ora = oracle_windows(df, metrics=METRICS, phases=phases)
    cols = ["conv_id", "turn_idx"] + [
        f"{fam}_{m}_{p}" for m in METRICS for p in phases
        for fam in ("last", "form", "avg", "ewma")
    ]
    assert_feature_parity(eng[cols], ora[cols])
