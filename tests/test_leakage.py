"""Leakage property test (SURVEY §5.2 item 3, north-rule zero-leakage).

Truncate the input at any cut timestamp T; every feature row with ts <= T
must be bit-identical to the full run — i.e. features are a pure function
of the strict past (prefix determinism <=> zero temporal leakage).
"""

import numpy as np
import pandas as pd
import ray.data as rd

from nfl_feature_store_ray.sources.transcripts import generate_transcripts
from nfl_feature_store_ray.state.window_engine import window_features

METRICS = ("value",)


def _run(tbl):
    return (
        window_features(rd.from_arrow(tbl), metrics=METRICS, num_buckets=8)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )


def test_prefix_determinism():
    tbl = generate_transcripts(n_convs=25, mean_turns=12, seed=23)
    full = _run(tbl)

    ts = tbl.column("ts").to_pandas().sort_values().reset_index(drop=True)
    for q in (0.3, 0.7):
        cut = ts.iloc[int(len(ts) * q)]
        trunc_tbl = tbl.filter(
            np.asarray(tbl.column("ts").to_pandas() <= cut)
        )
        part = _run(trunc_tbl)
        ref = full[full["ts"] <= cut].reset_index(drop=True)
        assert len(part) == len(ref)
        feat_cols = [c for c in full.columns if c.split("_")[0] in
                     ("last", "form", "avg", "ewma", "session", "gap", "roll10", "n", "turns", "secs")]
        for c in feat_cols:
            a, b = part[c], ref[c]
            if a.dtype.kind in "fc":
                np.testing.assert_allclose(
                    a.to_numpy(float), b.to_numpy(float), rtol=0, atol=0,
                    equal_nan=True, err_msg=f"leak in {c} at cut q={q}"
                )
            else:
                assert (a.to_numpy() == b.to_numpy()).all(), f"leak in {c} at cut q={q}"


def test_prefix_determinism_phase_windows():
    """Per-phase families are also a pure function of the strict past."""
    phases = ("user", "assistant")
    tbl = generate_transcripts(n_convs=25, mean_turns=12, seed=29)

    def run(t):
        return (
            window_features(rd.from_arrow(t), metrics=METRICS, num_buckets=8,
                            phases=phases)
            .to_pandas()
            .sort_values(["conv_id", "turn_idx"], kind="mergesort")
            .reset_index(drop=True)
        )

    full = run(tbl)
    ts = tbl.column("ts").to_pandas().sort_values().reset_index(drop=True)
    cut = ts.iloc[int(len(ts) * 0.5)]
    part = run(tbl.filter(np.asarray(tbl.column("ts").to_pandas() <= cut)))
    ref = full[full["ts"] <= cut].reset_index(drop=True)
    assert len(part) == len(ref)
    cols = [f"{fam}_value_{p}" for p in phases for fam in ("last", "form", "avg", "ewma")]
    for c in cols:
        np.testing.assert_allclose(
            part[c].to_numpy(float), ref[c].to_numpy(float), rtol=0, atol=0,
            equal_nan=True, err_msg=f"leak in {c}"
        )


def test_split_convs_group_integrity(ray_session):
    """Every conversation's turns land in exactly ONE split, and all three
    splits are non-empty at sf0.01 (80/10/10 by conv hash)."""
    import pandas as pd

    from nfl_feature_store_ray.pipelines.transcript_queries import q_split_convs

    df = q_split_convs("/root/testdata/sf0.01").to_pandas()
    per_conv = df.groupby("conv_id")["split"].nunique()
    assert (per_conv == 1).all(), "a conversation spans multiple splits"
    assert set(df["split"].unique()) == {"train", "val", "test"}


def test_prefix_determinism_sliding_and_asof(ray_session, tmp_path):
    """The as-of backfill is strictly backward: prefix truncation
    preserves every surviving row's checkpoint exactly. The kernel's own
    trailing windows (``last_``, ``form_``, ``roll10_``, ``avg_``,
    ``ewma_``, ``session_``) are checked exactly at two cuts by
    ``test_prefix_determinism``."""
    import __ray_entry__ as e

    rng = np.random.default_rng(77)
    n = 400
    ev = pd.DataFrame(
        {"event_id": np.arange(n, dtype="int64"),
         "ts": (pd.Timestamp("2024-08-01")
                + pd.to_timedelta(np.cumsum(rng.integers(1, 4000, n)), unit="s")
                ).astype("datetime64[us]"),
         "user_id": rng.integers(0, 10, n),
         "event_type": "click",
         "value": np.round(rng.random(n) * 90, 2),
         "props": "{}"}
    )
    d_full = tmp_path / "f2"; d_full.mkdir()
    ev.to_parquet(d_full / "events.parquet", index=False)
    q = e.queries()["w_asof_checkpoint"]
    full = q(str(d_full)).to_pandas()
    fk = full.set_index(["conv_id", "turn_idx"])["asof_ckpt"]
    cut = ev["ts"].sort_values().iloc[int(n * 0.6)]
    d_cut = tmp_path / "c"; d_cut.mkdir()
    ev[ev["ts"] <= cut].to_parquet(d_cut / "events.parquet", index=False)
    part = q(str(d_cut)).to_pandas()
    ref = fk.reindex(pd.MultiIndex.from_frame(part[["conv_id", "turn_idx"]]))
    np.testing.assert_allclose(
        part["asof_ckpt"].to_numpy(float), ref.to_numpy(float),
        rtol=0, atol=0, equal_nan=True, err_msg="w_asof_checkpoint leaks",
    )
