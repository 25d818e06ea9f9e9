"""Engineered edge cases: ts ties (turn_idx tie-break determinism),
duplicate-key assertion, empty-text metrics."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from nfl_feature_store_ray.state.window_engine import window_features
from tests.oracle import assert_feature_parity, oracle_windows


def _tie_table() -> pa.Table:
    # one conversation where three consecutive turns share the SAME ts —
    # ordering must fall back to turn_idx deterministically
    base = pd.Timestamp("2024-03-01 12:00:00")
    rows = []
    spec = [
        ("c1", 0, "user", base, 10.0),
        ("c1", 1, "assistant", base + pd.Timedelta(seconds=5), 20.0),
        ("c1", 2, "tool", base + pd.Timedelta(seconds=5), 30.0),  # tie
        ("c1", 3, "user", base + pd.Timedelta(seconds=5), 40.0),  # tie
        ("c1", 4, "assistant", base + pd.Timedelta(hours=30), 50.0),  # session split
        ("c2", 0, "user", base, 7.0),
    ]
    for conv, idx, role, ts, v in spec:
        rows.append(
            {
                "conv_id": conv,
                "turn_idx": np.int32(idx),
                "role": role,
                "text": f"t{idx}",
                "tool": "search" if role == "tool" else None,
                "ts": ts,
                "value": v,
            }
        )
    df = pd.DataFrame(rows).iloc[::-1]  # reversed physical order
    return pa.Table.from_pandas(df, preserve_index=False)


def test_ts_ties_break_on_turn_idx():
    tbl = _tie_table()
    out = (
        window_features(rd.from_arrow(tbl), metrics=("value",), num_buckets=4)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )
    c1 = out[out.conv_id == "c1"].reset_index(drop=True)
    # last_value must follow turn order even across the ts tie
    np.testing.assert_allclose(
        c1["last_value"].to_numpy(), [np.nan, 10.0, 20.0, 30.0, 40.0], equal_nan=True
    )
    # session split at the 30h gap
    assert list(c1["session_id"]) == [0, 0, 0, 0, 1]
    # row 0 of session 1 carries session 0's final expanding value (mean of 10..40)
    assert abs(c1.loc[4, "session_avg_value"] - 25.0) < 1e-12

    df = tbl.to_pandas()
    df["text_len"] = df["text"].str.len()
    assert_feature_parity(out, oracle_windows(df, metrics=("value",)))


def test_duplicate_turn_idx_rejected():
    tbl = _tie_table().to_pandas()
    dup = pd.concat([tbl, tbl.iloc[[0]]], ignore_index=True)
    ds = rd.from_arrow(pa.Table.from_pandas(dup, preserve_index=False))
    with pytest.raises(Exception, match="duplicate"):
        window_features(ds, metrics=("value",), num_buckets=2).to_pandas()


def test_empty_text_metrics():
    tbl = _tie_table().to_pandas()
    tbl.loc[:, "text"] = ""
    ds = rd.from_arrow(pa.Table.from_pandas(tbl, preserve_index=False))
    out = window_features(ds, metrics=("text_len", "n_tokens")).to_pandas()
    assert (out["text_len"] == 0).all() and (out["n_tokens"] == 0).all()


def test_all_null_metric_yields_all_null_windows():
    """FIXTURES F3 edge: a metric that is all-null for an entity produces
    all-null window features for it (NaN-propagating windows). Nullable
    metrics with MIXED nulls must go through stages.fill.fill_zero_except
    BEFORE windowing — the engine's documented contract (M11)."""
    import pandas as pd

    from nfl_feature_store_ray.state.window_kernel_pl import kernel_arrow

    base = pd.Timestamp("2024-01-01")
    df = pd.DataFrame(
        {
            "conv_id": ["a"] * 5 + ["b"] * 3,
            "turn_idx": np.array([0, 1, 2, 3, 4, 0, 1, 2], dtype="int32"),
            "role": ["user"] * 8,
            "ts": [base + pd.Timedelta(minutes=i) for i in range(5)]
            + [base + pd.Timedelta(minutes=i) for i in range(3)],
            "m": [np.nan] * 5 + [1.0, 2.0, 3.0],
        }
    )
    for r in ("user", "assistant", "tool"):
        df[f"is_{r}"] = (df["role"] == r).astype("int8")
    df = df.sort_values(["conv_id", "ts", "turn_idx"]).reset_index(drop=True)

    out = kernel_arrow(pa.Table.from_pandas(df, preserve_index=False), metrics=("m",)).to_pandas()
    a = out[out.conv_id == "a"]
    for c in ("last_m", "form_m", "avg_m", "ewma_m", "session_avg_m"):
        assert a[c].isna().all(), c
    b = out[out.conv_id == "b"].reset_index(drop=True)
    np.testing.assert_allclose(b["avg_m"].to_numpy(), [np.nan, 1.0, 1.5], equal_nan=True)


def test_phase_kernel_empty_block_keeps_schema():
    """Zero-row blocks through the phases branch must not crash and must
    emit the full phase-column schema (ADVICE r2 medium: lpi[0] IndexError
    on empty partition files). ``window_features`` hands the kernel such a
    block for every exchange range without data."""
    from nfl_feature_store_ray.state.window_kernel_pl import kernel_arrow

    schema = pa.schema(
        [
            ("conv_id", pa.string()),
            ("ts", pa.timestamp("us")),
            ("turn_idx", pa.int32()),
            ("role", pa.string()),
            ("value", pa.float64()),
            ("is_user", pa.int8()),
            ("is_assistant", pa.int8()),
            ("is_tool", pa.int8()),
        ]
    )
    out = kernel_arrow(schema.empty_table(), metrics=("value",), phases=("user", "assistant"))
    assert out.num_rows == 0
    for fam in ("last", "form", "avg", "ewma"):
        for p in ("user", "assistant"):
            assert f"{fam}_value_{p}" in out.schema.names


def test_ewma_oracle_no_overflow_on_long_conversation(tmp_path):
    """ADVICE r2: the old closed-form EWMA oracle emitted inf past ~3500
    same-role turns ((1/(1-a))^ridx > DBL_MAX). The segment-renormalized
    form (functions.sqlgen) must stay finite AND match the engine at 6dp
    on a 4500-turn single-role conversation."""
    import duckdb
    import pyarrow.parquet as pq_

    from nfl_feature_store_ray.pipelines.transcript_queries import (
        SQL_EWMA,
        q_ewma,
        q_phase_windows,
        SQL_PHASE_WINDOWS,
    )

    n = 4500
    base = pd.Timestamp("2024-01-01")
    rng = np.random.default_rng(4)
    events = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype="int64"),
            "ts": base + pd.to_timedelta(np.arange(n), unit="s"),
            "user_id": np.int64(1),
            # 'click' maps to role=user for every row -> 4500 same-role turns
            "event_type": "click",
            "value": np.round(rng.random(n) * 10, 2),
            "props": "p",
        }
    )
    d = tmp_path / "long"
    d.mkdir()
    pq_.write_table(pa.Table.from_pandas(events, preserve_index=False),
                    d / "events.parquet")

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{d}/events.parquet')"
    )
    for qfn, sql, cols in (
        (q_ewma, SQL_EWMA, ["ewma_value"]),
        (q_phase_windows, SQL_PHASE_WINDOWS, None),
    ):
        eng = qfn(str(d)).to_pandas().sort_values("turn_idx").reset_index(drop=True)
        ora = con.execute(sql).df().sort_values("turn_idx").reset_index(drop=True)
        assert len(eng) == len(ora) == n
        use = cols or [c for c in ora.columns if c not in ("conv_id", "turn_idx")]
        for c in use:
            o = ora[c].to_numpy(dtype="float64")
            assert np.isfinite(o[~np.isnan(o)]).all(), f"{c}: oracle emitted inf"
            np.testing.assert_allclose(
                eng[c].to_numpy(dtype="float64"), o,
                rtol=1e-6, atol=1e-9, equal_nan=True, err_msg=c,
            )

