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
