"""Resume test (SURVEY §5.2 item 5): second run skips completed
partitions; sabotaged partitions are recomputed byte-identically."""

import glob
import json
import os
import shutil

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from nfl_feature_store_ray.sources.transcripts import generate_transcripts
from nfl_feature_store_ray.state.manifest import write_partitioned
from nfl_feature_store_ray.state.window_kernel_pl import kernel_arrow

OUT = "/tmp/nfl_fs_resume_test"


def _transform(df: pd.DataFrame) -> pd.DataFrame:
    df = df.sort_values(["conv_id", "ts", "turn_idx"], kind="mergesort").reset_index(drop=True)
    df["text_len"] = df["text"].str.len()
    df["is_user"] = (df["role"] == "user").astype("int8")
    df["is_assistant"] = (df["role"] == "assistant").astype("int8")
    df["is_tool"] = (df["role"] == "tool").astype("int8")
    return kernel_arrow(pa.Table.from_pandas(df, preserve_index=False), metrics=("value",),
                        sort=False).to_pandas()


def _read_all() -> pd.DataFrame:
    files = sorted(glob.glob(f"{OUT}/part-*.parquet"))
    return (
        pd.concat([pq.read_table(f).to_pandas() for f in files], ignore_index=True)
        .sort_values(["conv_id", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )


def test_resume_skips_and_recomputes():
    shutil.rmtree(OUT, ignore_errors=True)
    tbl = generate_transcripts(n_convs=30, mean_turns=10, seed=41)

    man1 = write_partitioned(
        rd.from_arrow(tbl), OUT, key="conv_id", num_buckets=8, transform=_transform
    )
    assert not man1["skipped"].any()
    assert (man1["rows_in"] == man1["rows_out"]).all()
    first = _read_all()
    n_parts = len(man1)

    # simulate a crash: delete ~half the partition outputs + manifests
    victims = sorted(glob.glob(f"{OUT}/part-*.parquet"))[: n_parts // 2]
    for v in victims:
        os.remove(v)
        os.remove(v.replace(".parquet", ".json"))

    man2 = write_partitioned(
        rd.from_arrow(tbl), OUT, key="conv_id", num_buckets=8, transform=_transform
    )
    assert man2["skipped"].sum() == n_parts - len(victims)
    assert (~man2["skipped"]).sum() == len(victims)

    second = _read_all()
    pd.testing.assert_frame_equal(first, second)

    # manifests carry lineage + metrics (north rule)
    with open(sorted(glob.glob(f"{OUT}/part-*.json"))[0]) as f:
        m = json.load(f)
    for k in ("input_fingerprint", "rows_in", "rows_out", "seconds", "rows_per_sec"):
        assert k in m


def test_unchanged_input_all_skipped():
    tbl = generate_transcripts(n_convs=30, mean_turns=10, seed=41)
    man3 = write_partitioned(
        rd.from_arrow(tbl), OUT, key="conv_id", num_buckets=8, transform=_transform
    )
    assert man3["skipped"].all()


def test_stale_partitions_pruned_when_keys_vacate():
    """A bucket whose conversations all disappear from the input must not
    leave its old partition file behind (glob-based readers of the layout
    would otherwise resurrect removed rows)."""
    out = "/tmp/nfl_fs_resume_prune"
    shutil.rmtree(out, ignore_errors=True)
    tbl = generate_transcripts(n_convs=30, mean_turns=10, seed=41)
    write_partitioned(rd.from_arrow(tbl), out, key="conv_id", num_buckets=8,
                      transform=_transform)
    n_before = len(glob.glob(f"{out}/part-*.parquet"))

    sub = tbl.to_pandas()
    keep = sorted(sub["conv_id"].unique())[:3]
    sub = sub[sub["conv_id"].isin(keep)]

    man = write_partitioned(
        rd.from_arrow(pa.Table.from_pandas(sub, preserve_index=False)), out,
        key="conv_id", num_buckets=8, transform=_transform,
    )
    files = glob.glob(f"{out}/part-*.parquet")
    assert len(files) == len(man) < n_before
    got = pd.concat([pq.read_table(f).to_pandas() for f in files])
    assert set(got["conv_id"]) == set(keep)
