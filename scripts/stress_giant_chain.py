"""Giant-conversation sub-range chaining stress (r04 verdict #5).

Plants TWO multi-million-turn conversations (plus small ones), runs
`state.skew.window_features_chained` so each giant conversation flows
through a CHAIN of bounded sub-range tasks that hand the window kernel's
carry table to the next, and verifies the full 8M+-row output against
  (a) the one-task batch kernel path — bit-identical on every family but
      the float gaps (rtol 1e-9), and
  (b) a single in-process kernel run fed the same splits with one carry —
      BITWISE on every column (proves the cross-task handoff is lossless).

Usage: python scripts/stress_giant_chain.py [n_turns_per_giant]
Prints one JSON line for BASELINE.md.
"""
import json
import os
import sys
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from nfl_feature_store_ray.state.skew import (  # noqa: E402
    _with_roles,
    window_features_chained,
)
from nfl_feature_store_ray.state.window_engine import window_features  # noqa: E402
from nfl_feature_store_ray.state.window_kernel_pl import (  # noqa: E402
    empty_carry,
    feature_columns,
    kernel_arrow,
)

N = int(sys.argv[1]) if len(sys.argv) > 1 else 4_000_000
R = 262_144  # sub-range rows per chain task
EXACT = [
    "conv_id", "ts", "turn_idx", "session_id", "session_turn_idx",
    "n_prior_user", "n_prior_assistant", "n_prior_tool",
    "turns_since_tool", "roll10_tool_rate",
    "last_value", "form_value", "avg_value", "session_avg_value", "ewma_value",
]
ALLCLOSE = ["gap_s", "secs_since_tool"]


def build(n_giant: int) -> pd.DataFrame:
    rng = np.random.default_rng(5)
    base = pd.Timestamp("2024-03-01")
    frames = []
    for gi in range(2):
        n = n_giant
        roles = np.array(["user", "assistant", "tool"], dtype=object)
        gaps = np.where(rng.random(n) < 2e-6, 100_000.0, rng.integers(1, 20, n))
        vals = np.round(rng.random(n) * 10, 2)
        vals[rng.random(n) < 1e-4] = np.nan  # NULL-skip state crosses splits
        frames.append(pd.DataFrame({
            "conv_id": f"giant_{gi}",
            "turn_idx": np.arange(n, dtype="int32"),
            "role": roles[rng.integers(0, 3, n)],
            "text": "t",
            "tool": None,
            "ts": base + pd.to_timedelta(np.cumsum(gaps), unit="s"),
            "value": vals,
        }))
    for si in range(20):
        n = int(rng.integers(3, 50))
        frames.append(pd.DataFrame({
            "conv_id": f"small_{si:02d}",
            "turn_idx": np.arange(n, dtype="int32"),
            "role": "user",
            "text": "t",
            "tool": None,
            "ts": base + pd.to_timedelta(rng.integers(1, 9000, n).cumsum(), unit="s"),
            "value": np.round(rng.random(n) * 10, 2),
        }))
    return pd.concat(frames, ignore_index=True)


def main():
    ray.init(address="local", num_cpus=os.cpu_count(), include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    df = build(N)
    total = len(df)
    heavy = {"giant_0": 0, "giant_1": 1}
    cols = feature_columns(("value",), ())

    t0 = time.perf_counter()
    chained = window_features_chained(
        rd.from_pandas(df), metrics=("value",), heavy_keys=heavy,
        sub_range_rows=R, tie_col="turn_idx", num_buckets=8,
    ).to_pandas()
    t_chain = time.perf_counter() - t0
    chained = chained.sort_values(["conv_id", "turn_idx"],
                                  kind="mergesort").reset_index(drop=True)
    assert len(chained) == total, (len(chained), total)

    t0 = time.perf_counter()
    base = window_features(
        rd.from_pandas(df), metrics=("value",), num_buckets=8,
        assign_turn_idx=True,
    ).to_pandas()
    t_batch = time.perf_counter() - t0
    base = base[cols].sort_values(["conv_id", "turn_idx"],
                                  kind="mergesort").reset_index(drop=True)

    for c in EXACT:
        if chained[c].dtype.kind in "fc":
            np.testing.assert_array_equal(
                chained[c].to_numpy(), base[c].to_numpy(), err_msg=c)
        else:
            assert (chained[c].astype(str) == base[c].astype(str)).all(), c
    for c in ALLCLOSE:
        np.testing.assert_allclose(
            chained[c].astype(float), base[c].astype(float),
            rtol=1e-9, atol=0, equal_nan=True, err_msg=c)

    # (b) one in-process carried kernel run, same splits -> bitwise on
    # every column
    hdf = df[df.conv_id.isin(heavy)].sort_values(
        ["conv_id", "ts", "turn_idx"], kind="mergesort").reset_index(drop=True)
    hdf = hdf[["conv_id", "ts", "role", "value", "turn_idx"]]
    carry, outs = empty_carry(("value",)), []
    t0 = time.perf_counter()
    for _, g in hdf.groupby("conv_id", sort=True):
        g = g.reset_index(drop=True)
        for a in range(0, len(g), R):
            out, carry = kernel_arrow(
                _with_roles(pa.Table.from_pandas(g.iloc[a:a + R], preserve_index=False)),
                metrics=("value",), assign_turn_idx=True, sort=False, carry=carry)
            outs.append(out.select(cols).to_pandas())
    t_one = time.perf_counter() - t0
    one = pd.concat(outs, ignore_index=True).sort_values(
        ["conv_id", "turn_idx"], kind="mergesort").reset_index(drop=True)
    ch_h = chained[chained.conv_id.isin(heavy)].sort_values(
        ["conv_id", "turn_idx"], kind="mergesort").reset_index(drop=True)
    bitwise = 0
    for c in one.columns:
        a, b = ch_h[c], one[c]
        if a.dtype.kind in "fc":
            np.testing.assert_array_equal(a.to_numpy(), b.to_numpy(), err_msg=c)
        else:
            assert (a.astype(str) == b.astype(str)).all(), c
        bitwise += 1

    print(json.dumps({
        "rows": total, "giant_turns": N, "sub_range_rows": R,
        "chain_tasks_per_giant": -(-N // R),
        "chained_sec": round(t_chain, 2), "batch_sec": round(t_batch, 2),
        "one_run_sec": round(t_one, 2),
        "exact_cols": len(EXACT), "allclose_cols": len(ALLCLOSE),
        "bitwise_vs_one_run_cols": bitwise,
    }))
    ray.shutdown()


if __name__ == "__main__":
    main()
