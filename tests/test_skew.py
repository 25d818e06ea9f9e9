"""Skew handling: heavy-key detection + dedicated-bucket salting must not
change output, and the hot conversation must land in its own bucket."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from nfl_feature_store_ray.sources.transcripts import generate_transcripts
from nfl_feature_store_ray.stages.bucketize import BUCKET_COL, with_bucket
from nfl_feature_store_ray.stages.derive import derive_turn_columns
from nfl_feature_store_ray.state.skew import detect_heavy_keys
from nfl_feature_store_ray.state.window_engine import window_features

METRICS = ("value",)


def test_detect_and_salt_heavy_conversation():
    tbl = generate_transcripts(n_convs=40, mean_turns=12, seed=13)
    ds = rd.from_arrow(tbl)

    heavy = detect_heavy_keys(ds, key="conv_id", min_rows=200)
    # the generator plants conv_00001 as a hot conversation (mean_turns*30)
    assert "conv_00001" in heavy

    # hot conv gets a dedicated bucket beyond the hash range
    bucketed = with_bucket(ds, key="conv_id", num_buckets=8, heavy_keys=heavy).to_pandas()
    hot_buckets = set(bucketed.loc[bucketed.conv_id == "conv_00001", BUCKET_COL])
    assert hot_buckets == {8 + heavy["conv_00001"]}
    other = bucketed.loc[bucketed.conv_id != "conv_00001", BUCKET_COL]
    assert not set(other) & hot_buckets
    # every non-heavy conversation stays in the hash range
    normal = bucketed.loc[~bucketed.conv_id.isin(heavy), BUCKET_COL]
    assert normal.max() < 8
    # each heavy conversation owns exactly one dedicated bucket
    for k, i in heavy.items():
        assert set(bucketed.loc[bucketed.conv_id == k, BUCKET_COL]) == {8 + i}

    # salting must not change the feature output
    base = (
        window_features(rd.from_arrow(tbl), metrics=METRICS, num_buckets=8)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )
    salted = (
        window_features(rd.from_arrow(tbl), metrics=METRICS, num_buckets=8, heavy_keys=heavy)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )
    assert len(base) == len(salted)
    for c in base.columns:
        if base[c].dtype.kind in "fc":
            np.testing.assert_allclose(
                base[c].to_numpy(float), salted[c].to_numpy(float),
                rtol=0, atol=0, equal_nan=True, err_msg=c,
            )
        else:
            assert (base[c].astype(str) == salted[c].astype(str)).all(), c


def test_detect_heavy_keys_matches_value_counts():
    """The exact per-key counts over a multi-block input, against pandas'
    value_counts in the same order (most rows first, ties by key): a
    ``top`` that cuts through a tie keeps the smallest keys whatever the
    block order, a ``min_rows`` no key reaches and a 0-row input give {}."""
    import pyarrow as pa

    rng = np.random.default_rng(5)
    counts = {"c07": 50, "c03": 40, "c11": 40, "c01": 40, "c05": 30, "c02": 9, "c04": 1}
    keys = rng.permutation(np.repeat(list(counts), list(counts.values())))
    tbl = pa.table({"conv_id": keys, "value": rng.random(len(keys))})
    ds = rd.from_arrow([tbl.slice(a, 37) for a in range(0, len(keys), 37)])

    def reference(min_rows, top):
        vc = pd.Series(keys).value_counts().rename_axis("k").reset_index(name="n")
        vc = vc[vc["n"] >= min_rows].sort_values(["n", "k"], ascending=[False, True])
        return {k: i for i, k in enumerate(vc["k"].head(top))}

    for min_rows, top in ((30, 64), (30, 3), (10, 2), (51, 64)):
        got = detect_heavy_keys(ds, key="conv_id", min_rows=min_rows, top=top)
        assert got == reference(min_rows, top), (min_rows, top)
    assert detect_heavy_keys(ds, min_rows=30, top=3) == {"c07": 0, "c01": 1, "c03": 2}
    assert detect_heavy_keys(rd.from_arrow(tbl.slice(0, 0)), min_rows=1) == {}


# ---------------------------------------------------------------------------
# Round 5: sub-range chaining for conversations larger than one worker heap
# ---------------------------------------------------------------------------
CHAIN_EXACT = [
    "conv_id", "ts", "turn_idx", "session_id", "session_turn_idx",
    "n_prior_user", "n_prior_assistant", "n_prior_tool",
    "turns_since_tool", "roll10_tool_rate",
    "last_value", "form_value", "avg_value", "session_avg_value", "ewma_value",
]
CHAIN_ALLCLOSE = ["gap_s", "secs_since_tool"]


def _carried_run(df: pd.DataFrame, rows: int):
    """The window kernel fed ``df`` (sorted) in ``rows``-row slices per
    conversation, one carry across all of them, in-process."""
    import pyarrow as pa

    from nfl_feature_store_ray.state.skew import _with_roles
    from nfl_feature_store_ray.state.window_kernel_pl import (
        empty_carry, feature_columns, kernel_arrow)

    carry, outs = empty_carry(METRICS), []
    for _, g in df.groupby("conv_id", sort=True):
        g = g.reset_index(drop=True)
        for a in range(0, len(g), rows):
            part = pa.Table.from_pandas(g.iloc[a:a + rows], preserve_index=False)
            out, carry = kernel_arrow(
                _with_roles(part), metrics=METRICS, assign_turn_idx=True,
                sort=False, carry=carry)
            outs.append(out.select(feature_columns(METRICS)).to_pandas())
    return pd.concat(outs, ignore_index=True)


def _assert_cols(a: pd.DataFrame, b: pd.DataFrame, exact, allclose):
    for c in exact:
        if a[c].dtype.kind in "fc":
            np.testing.assert_array_equal(
                a[c].to_numpy(), b[c].to_numpy(), err_msg=c)
        else:
            assert a[c].dtype == b[c].dtype, (c, a[c].dtype, b[c].dtype)
            assert (a[c].astype(str) == b[c].astype(str)).all(), c
    for c in allclose:
        np.testing.assert_allclose(
            a[c].astype(float), b[c].astype(float),
            rtol=1e-9, atol=0, equal_nan=True, err_msg=c)


def test_chained_subrange_matches_batch_and_streaming():
    """A hot conversation split into 64-row sub-range tasks with carry
    handoff must (a) match the one-task batch kernel — BIT-identical on
    every family but the float gaps (rtol 1e-9) — and
    (b) be fully BITWISE equal to a single in-process kernel run fed the
    same splits with one carry, proving the cross-task handoff itself is
    lossless."""
    from nfl_feature_store_ray.state.skew import window_features_chained
    from nfl_feature_store_ray.state.window_kernel_pl import feature_columns

    tbl = generate_transcripts(n_convs=40, mean_turns=12, seed=13)
    heavy = detect_heavy_keys(rd.from_arrow(tbl), key="conv_id", min_rows=200)
    assert heavy, "generator must plant a hot conversation"
    R = 64

    chained = (
        window_features_chained(
            rd.from_arrow(tbl), metrics=METRICS, heavy_keys=heavy,
            sub_range_rows=R, tie_col="turn_idx", num_buckets=8)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )
    # the planted hot conversation genuinely chained over multiple tasks
    n_hot = int((chained.conv_id == "conv_00001").sum())
    assert n_hot > 2 * R

    base = (
        window_features(rd.from_arrow(tbl), metrics=METRICS, num_buckets=8,
                        assign_turn_idx=True)
        .to_pandas()[feature_columns(METRICS, ())]
        .sort_values(["conv_id", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )
    assert len(chained) == len(base) == tbl.num_rows
    _assert_cols(chained, base, CHAIN_EXACT, CHAIN_ALLCLOSE)

    # (b) bitwise vs ONE carried kernel run fed identical sub-range splits
    hdf = tbl.to_pandas()
    hdf = (
        hdf[hdf.conv_id.isin(heavy)][["conv_id", "ts", "role", *METRICS, "turn_idx"]]
        .sort_values(["conv_id", "ts", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )
    one = (
        _carried_run(hdf, R)
        .sort_values(["conv_id", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )
    ch_h = (
        chained[chained.conv_id.isin(heavy)]
        .sort_values(["conv_id", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )
    assert len(one) == len(ch_h)
    _assert_cols(ch_h, one, [c for c in one.columns if c != "conv_id"], [])
    assert (ch_h["conv_id"].astype(str) == one["conv_id"].astype(str)).all()


@pytest.mark.parametrize("phases", [(), ("user", "assistant")])
def test_chained_state_handoff_is_lossless_across_pickle(phases):
    """The carry must survive serialization between chain tasks: the
    second half of a run fed a pickled+restored carry must match the
    same half fed the carry in memory bitwise — including the EWMA
    register, session seeds, per-phase registers, and the NULL-tail
    cases."""
    import pickle

    import pyarrow as pa

    from nfl_feature_store_ray.state.skew import _with_roles
    from nfl_feature_store_ray.state.window_kernel_pl import empty_carry, kernel_arrow

    tbl = generate_transcripts(n_convs=6, mean_turns=40, seed=99)
    df = (
        tbl.to_pandas()
        .sort_values(["conv_id", "ts", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )
    # plant NULL values near a split boundary to cross NULL-skip state
    df.loc[df.index[:120:7], "value"] = np.nan

    def run(part, carry):
        out, carry = kernel_arrow(
            _with_roles(pa.Table.from_pandas(part, preserve_index=False)),
            metrics=METRICS, phases=phases, carry=carry)
        return out.to_pandas(), carry

    cut = len(df) // 2
    _, carry = run(df.iloc[:cut], empty_carry(METRICS, phases))
    tail, _ = run(df.iloc[cut:], carry)
    restored, _ = run(df.iloc[cut:], pickle.loads(pickle.dumps(carry)))
    _assert_cols(restored, tail, list(tail.columns), [])


def test_chained_all_conversations_heavy():
    """Every conversation heavy -> the normal branch contributes ZERO
    rows to the union; the chain must still emit every row once."""
    from nfl_feature_store_ray.state.skew import window_features_chained

    frames = []
    for c in range(3):
        n = 50
        frames.append(pd.DataFrame({
            "conv_id": f"c{c}", "turn_idx": np.arange(n, dtype="int32"),
            "role": "user", "text": "t", "tool": None,
            "ts": pd.date_range("2024-01-01", periods=n,
                                freq="s").astype("datetime64[us]"),
            "value": np.round(np.random.default_rng(c).random(n) * 9, 2)}))
    df = pd.concat(frames, ignore_index=True)
    out = window_features_chained(
        rd.from_pandas(df), metrics=("value",),
        heavy_keys={"c0": 0, "c1": 1, "c2": 2},
        sub_range_rows=16, tie_col="turn_idx",
    ).to_pandas()
    assert len(out) == 150 and out.conv_id.nunique() == 3
    assert (out.groupby("conv_id")["turn_idx"].max() == 49).all()


def test_chained_subrange_phase_families_match_batch():
    """Per-role (phase) window families must survive the chain's
    cross-task carry handoff: last/form/avg/ewma phase families bitwise
    vs the batch kernel."""
    from nfl_feature_store_ray.state.skew import window_features_chained
    from nfl_feature_store_ray.state.window_kernel_pl import feature_columns

    PH = ("user", "assistant")
    tbl = generate_transcripts(n_convs=40, mean_turns=12, seed=13)
    heavy = detect_heavy_keys(rd.from_arrow(tbl), key="conv_id", min_rows=200)
    chained = (
        window_features_chained(
            rd.from_arrow(tbl), metrics=METRICS, heavy_keys=heavy,
            sub_range_rows=64, tie_col="turn_idx", num_buckets=8, phases=PH)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )
    base = (
        window_features(rd.from_arrow(tbl), metrics=METRICS, num_buckets=8,
                        assign_turn_idx=True, phases=PH)
        .to_pandas()[feature_columns(METRICS, PH)]
        .sort_values(["conv_id", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )
    assert len(chained) == len(base) == tbl.num_rows
    exact = [f"{f}_value_{p}" for p in PH for f in ("last", "form", "avg", "ewma")]
    _assert_cols(chained, base, CHAIN_EXACT + exact, CHAIN_ALLCLOSE)


@pytest.mark.parametrize("dup_at", [5, 16])
def test_chained_rejects_duplicate_ts_without_tie(dup_at):
    """tie_col=None and a heavy conversation with a repeated ts: the
    sub-range order is ambiguous, so the chain must raise — whether the
    repeat sits inside one sub-range or straddles the handoff (row 16
    opens the second 16-row sub-range and repeats the carried last ts)."""
    from nfl_feature_store_ray.state.skew import window_features_chained

    n = 40
    ts = pd.date_range("2024-01-01", periods=n, freq="s").astype("datetime64[us]")
    ts = ts.where(np.arange(n) != dup_at, ts[dup_at - 1])
    df = pd.DataFrame({
        "conv_id": "c0", "role": "user", "text": "t", "tool": None, "ts": ts,
        "value": np.round(np.random.default_rng(1).random(n) * 9, 2)})
    with pytest.raises(Exception, match="duplicate ts"):
        window_features_chained(
            rd.from_pandas(df), metrics=("value",), heavy_keys={"c0": 0},
            sub_range_rows=16,
        ).to_pandas()
    # the same input with distinct ts chains fine
    df["ts"] = pd.date_range("2024-01-01", periods=n, freq="s").astype("datetime64[us]")
    out = window_features_chained(
        rd.from_pandas(df), metrics=("value",), heavy_keys={"c0": 0}, sub_range_rows=16,
    ).to_pandas()
    assert sorted(out["turn_idx"]) == list(range(n))
