"""Incremental append: phase-split runs seeded by persisted streaming
state must equal the batch engine over the full data, emit exactly the
appended rows per phase, and no-op (zero rows) when nothing is new."""

import glob
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from nfl_feature_store_ray.pipelines.partitioned import (
    ingest_partitioned_with_transform,
    sort_partition,
)
from nfl_feature_store_ray.sources.transcripts import generate_transcripts
from nfl_feature_store_ray.state.incremental import window_features_incremental
from nfl_feature_store_ray.state.window_engine import window_features
from tests.test_streaming_one_cpu import run_one_cpu

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


def _file_state(path: str) -> tuple:
    """A file's (bytes, mtime, inode)."""
    st = os.stat(path)
    with open(path, "rb") as f:
        return f.read(), st.st_mtime_ns, st.st_ino


def _state_files() -> dict:
    """Each partition state file's (bytes, mtime, inode)."""
    return {
        name: _file_state(os.path.join(STATE, name))
        for name in sorted(os.listdir(STATE))
        if name.endswith(".state.pkl")
    }


def test_incremental_leaves_partitions_without_delta_untouched():
    """A pass runs one kernel call over all of a task's partitions, but
    writes back only the carries of partitions that had new rows."""
    tbl = generate_transcripts(n_convs=40, mean_turns=16, seed=93).to_pandas()
    shutil.rmtree(PART, ignore_errors=True)
    shutil.rmtree(STATE, ignore_errors=True)
    cut = tbl["ts"].quantile(0.6)
    first = tbl[tbl["ts"] <= cut]
    _ingest(first)
    window_features_incremental(PART, STATE, metrics=METRICS).count()
    before = _state_files()

    # append the later turns of one partition's conversations only
    for part in sorted(glob.glob(f"{PART}/part-*.parquet")):
        convs = set(pq.read_table(part, columns=["conv_id"])["conv_id"].to_pylist())
        later = tbl[(tbl["ts"] > cut) & tbl["conv_id"].isin(convs)]
        if len(later):
            break
    assert len(later)
    _ingest(pd.concat([first, later]))
    out = window_features_incremental(PART, STATE, metrics=METRICS).to_pandas()
    assert len(out) == len(later)

    after = _state_files()
    touched = os.path.basename(part).replace(".parquet", ".state.pkl")
    assert after.keys() == before.keys()
    assert after[touched][0] != before[touched][0]
    for name in before.keys() - {touched}:
        assert after[name] == before[name], name


def test_incremental_pass_without_new_rows_writes_no_state():
    tbl = generate_transcripts(n_convs=20, mean_turns=10, seed=95).to_pandas()
    shutil.rmtree(PART, ignore_errors=True)
    shutil.rmtree(STATE, ignore_errors=True)
    _ingest(tbl)
    window_features_incremental(PART, STATE, metrics=METRICS).count()
    before = _state_files()
    meta = _file_state(os.path.join(STATE, "_incremental_meta.json"))
    assert before
    assert window_features_incremental(PART, STATE, metrics=METRICS).count() == 0
    assert _state_files() == before
    # the meta file is rewritten only when it changes
    assert _file_state(os.path.join(STATE, "_incremental_meta.json")) == meta


def test_incremental_refuses_a_carried_conversation_gone_from_the_layout():
    """The layout is append-only: a conversation whose rows left its
    partition file fails the pass instead of losing its carry."""
    import pytest

    tbl = generate_transcripts(n_convs=20, mean_turns=10, seed=96).to_pandas()
    shutil.rmtree(PART, ignore_errors=True)
    shutil.rmtree(STATE, ignore_errors=True)
    _ingest(tbl)
    window_features_incremental(PART, STATE, metrics=METRICS).count()
    _ingest(tbl[tbl["conv_id"] != tbl["conv_id"].iloc[0]])
    with pytest.raises(Exception, match="no partition file holds"):
        window_features_incremental(PART, STATE, metrics=METRICS).count()


ONE_CPU_DIR = "/tmp/nfl_fs_incr_one_cpu"

CHILD = f"""
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd
from nfl_feature_store_ray.pipelines.partitioned import sort_partition
from nfl_feature_store_ray.state.incremental import window_features_incremental
from nfl_feature_store_ray.state.manifest import write_partitioned
d = {ONE_CPU_DIR!r}
for k in range(2):
    write_partitioned(rd.read_parquet(f"{{d}}/in_{{k}}.parquet"), f"{{d}}/parts",
                      transform=sort_partition)
    out = window_features_incremental(f"{{d}}/parts", f"{{d}}/state", metrics={METRICS!r})
    blocks = list(out.iter_batches(batch_size=None, batch_format="pyarrow"))
    pq.write_table(pa.concat_tables(blocks, promote_options="permissive"),
                   f"{{d}}/out_{{k}}.parquet")
ray.shutdown()
"""


def test_refresh_round_finishes_on_one_cpu_and_matches_batch_engine():
    """The commit and the incremental pass in a ``num_cpus=1`` session
    (the benchmark's setting), in a child process under a timeout: an
    ingest, a pass, an append of later turns and a second pass."""
    tbl = (
        generate_transcripts(n_convs=30, mean_turns=12, seed=97)
        .to_pandas()
        .sort_values(["conv_id", "ts", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )
    shutil.rmtree(ONE_CPU_DIR, ignore_errors=True)
    os.makedirs(ONE_CPU_DIR)
    cut = tbl["ts"].quantile(0.7)
    for k, phase in enumerate((tbl[tbl["ts"] <= cut], tbl)):
        pq.write_table(pa.Table.from_pandas(phase, preserve_index=False),
                       f"{ONE_CPU_DIR}/in_{k}.parquet")

    run_one_cpu(CHILD, "refresh round")

    outs = [pq.read_table(f"{ONE_CPU_DIR}/out_{k}.parquet").to_pandas() for k in range(2)]
    assert len(outs[0]) == (tbl["ts"] <= cut).sum()
    assert len(outs[1]) == (tbl["ts"] > cut).sum()
    got = (
        pd.concat(outs)
        .sort_values(["conv_id", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )
    ref = (
        window_features(
            rd.from_arrow(pa.Table.from_pandas(tbl, preserve_index=False)),
            metrics=METRICS, num_buckets=4,
        )
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )
    assert len(got) == len(ref) == len(tbl)
    for c in got.columns:
        if c not in ref.columns or got[c].dtype.kind not in "fc":
            continue
        np.testing.assert_allclose(
            got[c].to_numpy(dtype="float64"), ref[c].to_numpy(dtype="float64"),
            rtol=1e-9, atol=1e-12, equal_nan=True, err_msg=c,
        )


def test_incremental_reads_partitions_typed_apart():
    """Partition files of one task may type a column apart (all-null in
    one file, strings in another); the pass must still read them as one
    frame."""
    tbl = generate_transcripts(n_convs=40, mean_turns=8, seed=99).to_pandas()
    shutil.rmtree(PART, ignore_errors=True)
    shutil.rmtree(STATE, ignore_errors=True)
    _ingest(tbl)
    files = sorted(glob.glob(f"{PART}/part-*.parquet"))
    for i, f in enumerate(files):
        t = pq.read_table(f)
        note = pa.nulls(t.num_rows) if i == 0 else pa.array(["n"] * t.num_rows)
        pq.write_table(t.append_column("note", note), f)
    out = window_features_incremental(PART, STATE, metrics=METRICS).to_pandas()
    assert len(out) == len(tbl)
