"""Resume test (SURVEY §5.2 item 5): second run skips completed
partitions; sabotaged partitions are recomputed byte-identically."""

import glob
import json
import os
import shutil

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from nfl_feature_store_ray.sources.transcripts import generate_transcripts
from nfl_feature_store_ray.stages.bucketize import bucket_of
from nfl_feature_store_ray.state.manifest import (
    MANIFEST_COLUMNS,
    group_fingerprint,
    write_partitioned,
)
from nfl_feature_store_ray.state.window_kernel_pl import kernel_arrow

OUT = "/tmp/nfl_fs_resume_test"


def _transform(tbl: pa.Table) -> pa.Table:
    tbl = tbl.sort_by([(c, "ascending") for c in ("conv_id", "ts", "turn_idx")])
    tbl = tbl.append_column("text_len", pc.utf8_length(tbl["text"]).cast(pa.int64()))
    for role in ("user", "assistant", "tool"):
        tbl = tbl.append_column(f"is_{role}", pc.equal(tbl["role"], role).cast(pa.int8()))
    return kernel_arrow(tbl, metrics=("value",), sort=False)


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


def test_manifest_fingerprint_is_the_partition_inputs_fingerprint():
    """A commit task hashes its range of partitions in one pass and sums
    each partition's row hashes; every manifest must hold exactly
    ``group_fingerprint`` of that partition's input, so a store committed
    one partition at a time keeps skipping unchanged partitions."""
    out = "/tmp/nfl_fs_resume_fingerprint"
    shutil.rmtree(out, ignore_errors=True)
    tbl = generate_transcripts(n_convs=80, mean_turns=10, seed=43)
    # more partitions than commit tasks, so each task holds several
    man = write_partitioned(rd.from_arrow(tbl).repartition(7), out, num_buckets=32,
                            transform=_transform)
    buckets = bucket_of(tbl["conv_id"].to_pandas(), 32).to_numpy()
    assert len(man) == len(set(buckets))
    for row in man.itertuples():
        group = tbl.filter(pa.array(buckets == row.bucket))
        assert row.input_fingerprint == group_fingerprint(group, tbl.column_names)
        assert row.rows_in == group.num_rows


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


# (before, after) partition inputs that the XOR-of-joined-strings
# fingerprint could not tell apart: duplicate rows cancelled under XOR, a
# null cell stringified to "None", and "|" inside a cell shifted the join
_EDITS = {
    "duplicate_rows": (
        {"c": ["a", "a"], "v": [1, 1]},
        {"c": ["b", "b"], "v": [2, 2]},
    ),
    "null_vs_none_string": (
        {"t": pa.array([None], pa.string())},
        {"t": ["None"]},
    ),
    "separator_in_cell": (
        {"x": ["a|b"], "y": ["c"]},
        {"x": ["a"], "y": ["b|c"]},
    ),
}


def _edit_table(cols: dict) -> pa.Table:
    n = len(next(iter(cols.values())))
    return pa.table({"conv_id": ["c0"] * n, **cols})


@pytest.mark.parametrize("edit", sorted(_EDITS))
def test_fingerprint_separates_edited_input(edit):
    before, after = (_edit_table(c) for c in _EDITS[edit])
    assert group_fingerprint(before, before.column_names) != group_fingerprint(
        after, after.column_names
    )
    # perfbench's traced span fingerprints pandas groups
    assert group_fingerprint(before.to_pandas(), before.column_names) != group_fingerprint(
        after.to_pandas(), after.column_names
    )


@pytest.mark.parametrize("edit", sorted(_EDITS))
def test_rerun_after_edit_rewrites_partition(edit):
    out = f"/tmp/nfl_fs_resume_edit_{edit}"
    shutil.rmtree(out, ignore_errors=True)
    before, after = (_edit_table(c) for c in _EDITS[edit])
    write_partitioned(rd.from_arrow(before), out, num_buckets=1)
    man = write_partitioned(rd.from_arrow(after), out, num_buckets=1)
    assert len(man) == 1 and not man["skipped"].iloc[0]
    got = pq.read_table(man["output_file"].iloc[0]).to_pylist()
    assert sorted(got, key=repr) == sorted(after.to_pylist(), key=repr)


def test_empty_input_prunes_every_partition():
    out = "/tmp/nfl_fs_resume_empty"
    shutil.rmtree(out, ignore_errors=True)
    tbl = generate_transcripts(n_convs=30, mean_turns=10, seed=41)
    write_partitioned(rd.from_arrow(tbl), out, num_buckets=8, transform=_transform)
    assert glob.glob(f"{out}/part-*")

    man = write_partitioned(rd.from_arrow(tbl.slice(0, 0)), out, num_buckets=8,
                            transform=_transform)
    assert man.empty and list(man.columns) == MANIFEST_COLUMNS
    assert glob.glob(f"{out}/part-*") == []
