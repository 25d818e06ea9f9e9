"""Sources: the events -> transcript mapping and multi-file event reads."""


def _events(n: int = 2000, seed: int = 3):
    """A small events table with the schema transcripts_from_events reads."""
    import numpy as np
    import pyarrow as pa

    rng = np.random.default_rng(seed)
    types = np.array(["click", "view", "purchase", "signup", "error", "timeout"])
    return pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array(1_700_000_000_000_000 + np.arange(n, dtype=np.int64) * 1_000_000,
                       pa.timestamp("us")),
        "user_id": pa.array(rng.integers(0, 50, n)),
        "event_type": pa.array(types[rng.integers(0, len(types), n)]),
        "value": pa.array(np.round(rng.random(n) * 100, 2)),
        "props": pa.array([("p" * int(k)) for k in rng.integers(0, 9, n)]),
    })


def _expected_tool(events) -> list:
    known = {"click", "view", "purchase", "signup"}
    return [None if t in known else t for t in events["event_type"].to_pylist()]


def test_events_to_transcript_batch_on_sliced_table():
    """A batch with a non-zero slice offset maps like its unsliced rows."""
    from nfl_feature_store_ray.sources.transcripts import _events_to_transcript_batch

    ev = _events()
    sliced = ev.slice(700, 500)
    out = _events_to_transcript_batch(sliced)
    out.validate(full=True)
    assert out["tool"].to_pylist() == _expected_tool(sliced)
    assert out.equals(_events_to_transcript_batch(ev).slice(700, 500))


def test_transcripts_from_events_two_file_dir(tmp_path):
    """An events directory of two files read in small blocks: the read
    splits each file into slices, so the mapping sees batches with
    non-zero offsets; every row must still map."""
    import pyarrow.parquet as pq
    from ray.data import DataContext

    from nfl_feature_store_ray.sources.transcripts import transcripts_from_events

    ev = _events(5000)
    d = tmp_path / "events.parquet"
    d.mkdir()
    pq.write_table(ev.slice(0, 2600), d / "a.parquet")
    pq.write_table(ev.slice(2600), d / "b.parquet")
    ctx = DataContext.get_current()
    block_size = ctx.target_max_block_size
    ctx.target_max_block_size = 16 * 1024
    try:
        got = transcripts_from_events(str(tmp_path)).to_pandas().sort_values("_seq")
    finally:
        ctx.target_max_block_size = block_size
    assert got["_seq"].tolist() == list(range(5000))
    assert got["tool"].where(got["tool"].notna(), None).tolist() == _expected_tool(ev)


def _events_dir(root, files: int):
    """``root/events.parquet/`` holding the events table in ``files`` files."""
    import pyarrow.parquet as pq

    ev = _events(3000)
    d = root / "events.parquet"
    d.mkdir(parents=True)
    step = -(-ev.num_rows // files)
    for i in range(files):
        pq.write_table(ev.slice(i * step, step), d / f"part-{i}.parquet")
    return str(root)


def test_read_makes_one_block_per_cpu_for_one_file(tmp_path):
    """On 4 CPUs a one-file read is split to occupy them, 4 blocks (not
    Ray's size-driven count); a caller's ``override_num_blocks`` wins."""
    from nfl_feature_store_ray.sources.readers import read_table

    sf = _events_dir(tmp_path, 1)
    assert read_table(sf, "events").materialize().num_blocks() == 4
    assert read_table(sf, "events", override_num_blocks=3).materialize().num_blocks() == 3


ONE_CPU_READ = """
import pyarrow as pa
import pyarrow.parquet as pq
from nfl_feature_store_ray.sources import transcripts_from_events
from nfl_feature_store_ray.state import window_features
from nfl_feature_store_ray.state.manifest import partitioned_commit
one = transcripts_from_events({one!r}).materialize()
assert one.num_blocks() == 1, one.num_blocks()
three = transcripts_from_events({three!r}).materialize()
assert three.num_blocks() == 3, three.num_blocks()
read = "ReadParquet->MapBatches(_events_to_transcript_batch)"
feats = window_features(transcripts_from_events({one!r}), assign_turn_idx=True).materialize()
stats = feats.stats()
assert read + "->MapBatches(kern): 1 tasks executed" in stats, stats
assert "Sort" not in stats, stats
stats = window_features(transcripts_from_events({three!r})).materialize().stats()
assert "Sort" in stats, stats
stats = partitioned_commit(transcripts_from_events({one!r}), {parts!r}).materialize().stats()
assert read + "->MapBatches(commit): 1 tasks executed" in stats, stats
assert "Sort" not in stats, stats
blocks = list(feats.iter_batches(batch_size=None, batch_format="pyarrow"))
pq.write_table(pa.concat_tables(blocks), {out!r})
ray.shutdown()
"""


def test_read_fuses_with_the_maps_on_one_cpu(tmp_path):
    """On one CPU the read makes one block per file. A one-file input then
    runs read, transcript map and the whole exchange (bucketing and the
    kernel, or the partition commit) as one task with no ``Sort``; a
    three-file input keeps the sort. ``window_features`` equals this 4-CPU
    session's output, which went through the sort."""
    import pandas as pd
    import pyarrow.parquet as pq

    from nfl_feature_store_ray.sources import transcripts_from_events
    from nfl_feature_store_ray.state import window_features
    from tests.test_streaming_one_cpu import run_one_cpu

    one = _events_dir(tmp_path / "one", 1)
    three = _events_dir(tmp_path / "three", 3)
    out = str(tmp_path / "feats.parquet")
    parts = str(tmp_path / "parts")
    run_one_cpu(ONE_CPU_READ.format(one=one, three=three, out=out, parts=parts), "one-file read")

    keys = ["conv_id", "turn_idx"]
    got = pq.read_table(out).to_pandas().sort_values(keys).reset_index(drop=True)
    want = (
        window_features(transcripts_from_events(one), assign_turn_idx=True)
        .to_pandas().sort_values(keys).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)
