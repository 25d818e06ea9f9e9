"""Incremental append: phase-split runs seeded by persisted streaming
state must equal the batch engine over the full data, emit exactly the
appended rows per phase, and no-op (zero rows) when nothing is new."""

import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from nfl_feature_store_ray.pipelines.partitioned import (
    ingest_partitioned_with_transform,
    sort_partition,
)
from nfl_feature_store_ray.sources.transcripts import generate_transcripts
from nfl_feature_store_ray.state.incremental import window_features_incremental
from nfl_feature_store_ray.state.window_engine import window_features

PART = "/tmp/nfl_fs_incr_parts"
STATE = "/tmp/nfl_fs_incr_state"
METRICS = ("value", "text_len")


def _ingest(df: pd.DataFrame):
    ingest_partitioned_with_transform(
        rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)), PART,
        transform=sort_partition, num_buckets=6,
        fingerprint_cols=["conv_id", "turn_idx"],
    )


def test_incremental_append_matches_batch_engine():
    tbl = (
        generate_transcripts(n_convs=40, mean_turns=16, seed=91)
        .to_pandas()
        .sort_values(["conv_id", "ts", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )
    shutil.rmtree(PART, ignore_errors=True)
    shutil.rmtree(STATE, ignore_errors=True)

    # THREE append phases (40% -> 75% -> 100% by time), crossing session
    # and window boundaries at arbitrary points
    cuts = [tbl["ts"].quantile(0.4), tbl["ts"].quantile(0.75), tbl["ts"].max()]
    outs, prev_rows = [], 0
    for cut in cuts:
        phase = tbl[tbl["ts"] <= cut]
        _ingest(phase)
        out = window_features_incremental(PART, STATE, metrics=METRICS).to_pandas()
        assert len(out) == len(phase) - prev_rows, "must emit exactly the delta"
        prev_rows = len(phase)
        outs.append(out)

    # a fourth run with no new data is a no-op
    noop = window_features_incremental(PART, STATE, metrics=METRICS).to_pandas()
    assert len(noop) == 0

    got = (
        pd.concat(outs)
        .sort_values(["conv_id", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )
    ref = (
        window_features(
            rd.from_arrow(pa.Table.from_pandas(tbl, preserve_index=False)),
            metrics=METRICS, num_buckets=6,
        )
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )
    assert len(got) == len(ref) == len(tbl)
    for c in got.columns:
        if c not in ref.columns or got[c].dtype.kind not in "fc":
            continue
        a = got[c].to_numpy(dtype="float64")
        b = ref[c].to_numpy(dtype="float64")
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12, equal_nan=True, err_msg=c)
        # the carried EWMA register and the rolling means' cents windows
        # are exact
        if c.startswith(("ewma_", "form_")):
            assert ((a == b) | (np.isnan(a) & np.isnan(b))).all(), c
    assert (got["session_id"].to_numpy() == ref["session_id"].to_numpy()).all()


def test_incremental_rejects_changed_partition_count():
    """State is keyed by partition file — a changed bucket count would
    silently re-emit old turns, so the meta guard must loud-fail."""
    import pytest

    tbl = generate_transcripts(n_convs=10, mean_turns=8, seed=3).to_pandas()
    shutil.rmtree(PART, ignore_errors=True)
    shutil.rmtree(STATE, ignore_errors=True)
    _ingest(tbl)
    window_features_incremental(PART, STATE, metrics=METRICS).count()

    ingest_partitioned_with_transform(
        rd.from_arrow(pa.Table.from_pandas(tbl, preserve_index=False)), PART,
        transform=sort_partition, num_buckets=3,  # changed bucket count
        fingerprint_cols=["conv_id", "turn_idx"],
    )
    with pytest.raises(ValueError, match="partition name set"):
        window_features_incremental(PART, STATE, metrics=METRICS).count()


def test_incremental_rejects_changed_metrics_or_phases():
    import pytest

    tbl = generate_transcripts(n_convs=10, mean_turns=8, seed=3).to_pandas()
    shutil.rmtree(PART, ignore_errors=True)
    shutil.rmtree(STATE, ignore_errors=True)
    _ingest(tbl)
    window_features_incremental(PART, STATE, metrics=METRICS).count()
    for kw in ({"metrics": ("value",)}, {"metrics": METRICS, "phases": ("user",)}):
        with pytest.raises(ValueError, match="rebuild the state dir"):
            window_features_incremental(PART, STATE, **kw).count()


def test_incremental_rejects_legacy_pickled_state():
    """A state dir from the earlier pickled per-conversation format (meta
    without a state format) must be refused with the rebuild error — not
    unpickled, and not silently re-emitted from scratch."""
    import json
    import os
    import pickle

    import pytest

    tbl = generate_transcripts(n_convs=10, mean_turns=8, seed=3).to_pandas()
    shutil.rmtree(PART, ignore_errors=True)
    shutil.rmtree(STATE, ignore_errors=True)
    _ingest(tbl)
    os.makedirs(STATE)
    parts = sorted(f for f in os.listdir(PART) if f.startswith("part-") and f.endswith(".parquet"))
    with open(os.path.join(STATE, "_incremental_meta.json"), "w") as f:
        json.dump({"partitions": parts, "metrics": list(METRICS), "phases": []}, f)
    for name in parts:
        with open(os.path.join(STATE, name.replace(".parquet", ".state.pkl")), "wb") as f:
            pickle.dump({"conv_00000": {"turns": 3}}, f)
    with pytest.raises(ValueError, match="rebuild the state dir"):
        window_features_incremental(PART, STATE, metrics=METRICS).count()


def test_check_meta_write_is_atomic(tmp_path, monkeypatch):
    """A meta write that fails midway must leave the previous meta intact:
    an in-place write would leave a truncated file, and every later run
    would die on a JSONDecodeError instead of applying the guards."""
    import json
    import os

    import pytest

    from nfl_feature_store_ray.state.incremental import STATE_FORMAT, _check_meta

    state = str(tmp_path)
    meta = {"state_format": STATE_FORMAT, "partitions": ["part-00000.parquet"],
            "metrics": ["value"], "phases": []}
    grown = dict(meta, partitions=["part-00000.parquet", "part-00001.parquet"])
    real_dump, calls = json.dump, []

    def dump_fails_on_second_call(obj, f, *args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            f.write('{"state_')
            raise OSError("disk full")
        real_dump(obj, f, *args, **kwargs)

    monkeypatch.setattr(json, "dump", dump_fails_on_second_call)
    _check_meta(state, meta)
    meta_path = os.path.join(state, "_incremental_meta.json")
    with open(meta_path, "rb") as f:
        first = f.read()
    with pytest.raises(OSError, match="disk full"):
        _check_meta(state, grown)
    with open(meta_path, "rb") as f:
        assert f.read() == first
    _check_meta(state, meta)
