"""The as-of join must finish on a one-CPU cluster and match pandas
``merge_asof`` on both of its paths, over a multi-file and over a one-file
parquet right side.

The exchange path coalesces its tagged union to one block per bucket
before the exchange. Coalescing each input before the tag map instead
never finished on one CPU when the right side was one parquet file. The
broadcast path coalesces the right side and the candidates. The child
forces the exchange path by lowering Ray's ``target_max_block_size`` to
the left's size, below left x buckets. The jobs run in a child process
with its own ``num_cpus=1`` session under a timeout
(``tests.test_streaming_one_cpu.run_one_cpu``), which turns such a hang
into a failure."""

import shutil
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from tests.test_asof import _frames, _pandas_asof
from tests.test_streaming_one_cpu import run_one_cpu

DIR = "/tmp/nfl_fs_asof_one_cpu"
LEFT = f"{DIR}/left.parquet"
RIGHTS = {"multi_file": (f"{DIR}/right_multi", 6), "one_file": (f"{DIR}/right_one", 1)}

PATHS = ("broadcast", "exchange")

CHILD = f"""
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd
from nfl_feature_store_ray.state.asof import asof_join
ctx = DataContext.get_current()
limits = {{"broadcast": ctx.target_max_block_size,
          "exchange": rd.read_parquet({LEFT!r}).materialize().size_bytes()}}
for path in {PATHS!r}:
    ctx.target_max_block_size = limits[path]
    for name, (right, _) in {RIGHTS!r}.items():
        out = asof_join(rd.read_parquet({LEFT!r}), rd.read_parquet(right)).materialize()
        assert ("Sort" in out.stats()) == (path == "exchange"), path
        blocks = list(out.iter_batches(batch_size=None, batch_format="pyarrow"))
        pq.write_table(pa.concat_tables(blocks), f"{DIR}/out_{{name}}_{{path}}.parquet")
ray.shutdown()
"""


def test_asof_finishes_on_one_cpu_and_matches_pandas():
    events, feats = _frames()
    shutil.rmtree(DIR, ignore_errors=True)
    Path(DIR).mkdir(parents=True)
    pq.write_table(pa.Table.from_pandas(events, preserve_index=False), LEFT)
    for right, files in RIGHTS.values():
        Path(right).mkdir()
        for i, part in enumerate(np.array_split(feats, files)):
            pq.write_table(
                pa.Table.from_pandas(part, preserve_index=False), f"{right}/part-{i}.parquet"
            )

    run_one_cpu(CHILD, "as-of join")

    key = ["conv_id", "ts", "ev"]
    ref = _pandas_asof(events, feats, allow_exact_matches=False).sort_values(
        key, kind="mergesort")
    assert ref["feat"].notna().any() and ref["feat"].isna().any()
    for name in (f"{right}_{path}" for right in RIGHTS for path in PATHS):
        got = pq.read_table(f"{DIR}/out_{name}.parquet").to_pandas().sort_values(
            key, kind="mergesort")
        assert list(got.columns) == list(ref.columns), name
        assert len(got) == len(ref) == len(events), name
        np.testing.assert_array_equal(got["ts"].to_numpy(), ref["ts"].to_numpy(), err_msg=name)
        np.testing.assert_allclose(
            got["feat"].to_numpy(dtype=float), ref["feat"].to_numpy(dtype=float),
            rtol=0, atol=0, equal_nan=True, err_msg=name,
        )
