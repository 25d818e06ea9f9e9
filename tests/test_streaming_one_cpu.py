"""The streaming job must finish on a one-CPU cluster and match the batch
engine.

A one-CPU cluster is the benchmark's setting. The job runs in a child
process that owns its own ``num_cpus=1`` Ray session (this test session
runs at 4 CPUs), under a timeout: a job that holds the only CPU while its
read task waits for one never finishes, and the timeout turns that hang
into a failure. The child writes the streaming features to parquet; the
batch engine's features, computed here, are the reference."""

import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pyarrow.parquet as pq
import ray.data as rd

from nfl_feature_store_ray.pipelines.partitioned import (
    ingest_partitioned_with_transform,
    sort_partition,
)
from nfl_feature_store_ray.sources.transcripts import generate_transcripts
from nfl_feature_store_ray.state.window_engine import window_features

PART_DIR = "/tmp/nfl_fs_stream_one_cpu_parts"
OUT = "/tmp/nfl_fs_stream_one_cpu_out"
METRICS = ("value", "text_len")
TIMEOUT_S = 150

CHILD = f"""
import warnings
warnings.filterwarnings("ignore")
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", object_store_memory=100 * 2**20)
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from nfl_feature_store_ray.pipelines.partitioned import window_features_streaming
ds = window_features_streaming({PART_DIR!r}, metrics={METRICS!r}, batch_size=16)
ds.write_parquet({OUT!r})
ray.shutdown()
"""


def _run_child():
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD], cwd=Path(__file__).resolve().parents[1],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # the child's Ray daemons share its process group
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise AssertionError(
            f"streaming job did not finish in {TIMEOUT_S} s on one CPU") from None
    assert proc.returncode == 0, out[-4000:]


def test_streaming_finishes_on_one_cpu_and_matches_batch_engine():
    tbl = generate_transcripts(n_convs=30, mean_turns=12, seed=61)
    shutil.rmtree(PART_DIR, ignore_errors=True)
    shutil.rmtree(OUT, ignore_errors=True)
    ingest_partitioned_with_transform(
        rd.from_arrow(tbl), PART_DIR, transform=sort_partition,
        num_buckets=4, fingerprint_cols=["conv_id", "turn_idx"],
    )

    _run_child()

    got = (
        pq.read_table(OUT).to_pandas()
        .sort_values(["conv_id", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )
    ref = (
        window_features(rd.from_arrow(tbl), metrics=METRICS, num_buckets=4)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )
    assert len(got) == len(ref) == tbl.num_rows
    for c in got.columns:
        if c in ("conv_id", "ts"):
            continue
        np.testing.assert_allclose(
            got[c].to_numpy(dtype="float64"),
            ref[c].to_numpy(dtype="float64"),
            rtol=1e-9, atol=1e-12, equal_nan=True, err_msg=c,
        )
