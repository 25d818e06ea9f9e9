"""As-of join: strict t' < t semantics vs pandas merge_asof oracle."""

import contextlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd
from ray.data import DataContext

from nfl_feature_store_ray.stages.bucketize import shuffle_buckets
from nfl_feature_store_ray.state.asof import asof_join

# Ray's block budget under which every left side in this module takes the
# exchange path (the smallest left x buckets here is ~57 KB: 7 KB x 8), and
# under which Ray splits none of the blocks (it splits from 1.5 x the budget)
EXCHANGE_BLOCK_LIMIT = 32 * 1024


@contextlib.contextmanager
def block_limit(limit: int | None):
    """Run with Ray's ``target_max_block_size`` at ``limit`` (unchanged
    when None), restored afterwards."""
    ctx = DataContext.get_current()
    saved = ctx.target_max_block_size
    if limit is not None:
        ctx.target_max_block_size = limit
    try:
        yield
    finally:
        ctx.target_max_block_size = saved


@pytest.fixture(autouse=True, params=["broadcast", "exchange"])
def asof_path(request):
    """Every test runs on both paths of ``asof_join``: the small left sides
    here broadcast at Ray's default block budget, and take the exchange
    under ``EXCHANGE_BLOCK_LIMIT``."""
    with block_limit(EXCHANGE_BLOCK_LIMIT if request.param == "exchange" else None):
        yield request.param


def _frames():
    rng = np.random.default_rng(5)
    convs = [f"c{i}" for i in range(20)]
    feat_rows, ev_rows = [], []
    base = pd.Timestamp("2024-01-01")
    for c in convs:
        n = int(rng.integers(1, 30))
        ts = base + pd.to_timedelta(np.sort(rng.integers(0, 10**6, n)), unit="s")
        for t in ts:
            feat_rows.append({"conv_id": c, "ts": t, "feat": float(rng.random())})
        m = int(rng.integers(1, 20))
        ets = base + pd.to_timedelta(rng.integers(-10, 10**6 + 10, m), unit="s")
        for t in ets:
            ev_rows.append({"conv_id": c, "ts": pd.Timestamp(t), "ev": int(rng.integers(100))})
    feats = pd.DataFrame(feat_rows)
    events = pd.DataFrame(ev_rows)
    # boundary case: event at EXACTLY a feature ts (strict < must exclude it)
    events.loc[0, "ts"] = feats.loc[0, "ts"]
    events.loc[0, "conv_id"] = feats.loc[0, "conv_id"]
    return events, feats


def test_asof_strict_backward():
    events, feats = _frames()
    out = asof_join(
        rd.from_pandas(events), rd.from_pandas(feats), key="conv_id", on="ts", num_buckets=4
    ).to_pandas()

    expected = pd.merge_asof(
        events.sort_values(["ts", "conv_id"], kind="mergesort"),
        feats.sort_values(["ts", "conv_id"], kind="mergesort"),
        on="ts",
        by="conv_id",
        allow_exact_matches=False,
        direction="backward",
    )
    key = ["conv_id", "ts", "ev"]
    o = out.sort_values(key, kind="mergesort").reset_index(drop=True)
    e = expected.sort_values(key, kind="mergesort").reset_index(drop=True)
    assert len(o) == len(e) == len(events)
    np.testing.assert_allclose(
        o["feat"].to_numpy(), e["feat"].to_numpy(), rtol=0, atol=0, equal_nan=True
    )
    # no-leakage: every matched feature ts is strictly earlier — re-verify row-wise
    merged_ts = pd.merge_asof(
        events.sort_values(["ts", "conv_id"], kind="mergesort"),
        feats.rename(columns={"feat": "f2"}).assign(fts=lambda d: d.ts).sort_values(
            ["ts", "conv_id"], kind="mergesort"
        ),
        on="ts",
        by="conv_id",
        allow_exact_matches=False,
    )
    m = merged_ts.dropna(subset=["fts"])
    assert (m["fts"] < m["ts"]).all()


def test_asof_default_buckets_match_explicit_64():
    events, feats = _frames()

    def rows(**kw) -> pa.Table:
        out = asof_join(rd.from_pandas(events), rd.from_pandas(feats), **kw)
        return pa.concat_tables(_blocks(out)).sort_by(
            [(c, "ascending") for c in ("conv_id", "ts", "ev")])

    default, explicit = rows(), rows(num_buckets=64)
    assert default.num_rows == len(events)
    assert default.equals(explicit)


def _blocks(ds) -> list:
    return list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))


def _pandas_asof(left, right, **kw):
    return pd.merge_asof(
        left.sort_values(["ts", "conv_id"], kind="mergesort"),
        right.sort_values(["ts", "conv_id"], kind="mergesort"),
        on="ts", by="conv_id", **kw,
    )


def _assert_matches_pandas(out: pd.DataFrame, expected: pd.DataFrame, key, values):
    o, e = (d.sort_values(key, kind="mergesort").reset_index(drop=True) for d in (out, expected))
    assert list(o.columns) == list(e.columns)
    assert len(o) == len(e)
    for c in values:
        np.testing.assert_allclose(
            o[c].to_numpy(dtype=float), e[c].to_numpy(dtype=float),
            rtol=0, atol=0, equal_nan=True,
        )


def test_asof_tolerance_matches_pandas():
    events, feats = _frames()
    # a match exactly at the tolerance distance counts (inclusive bound)
    events.loc[1, ["conv_id", "ts"]] = [
        feats.loc[0, "conv_id"], feats.loc[0, "ts"] + pd.Timedelta(hours=6)
    ]
    out = asof_join(
        rd.from_pandas(events), rd.from_pandas(feats), num_buckets=4,
        tolerance=pd.Timedelta(hours=6),
    ).to_pandas()
    expected = _pandas_asof(
        events, feats, allow_exact_matches=False, tolerance=pd.Timedelta(hours=6),
    )
    assert expected["feat"].notna().any() and expected["feat"].isna().any()
    _assert_matches_pandas(out, expected, ["conv_id", "ts", "ev"], ["feat"])


def test_asof_suffix_renames_colliding_right_columns():
    events, feats = _frames()
    left = events.assign(feat=-1.0)
    out = asof_join(
        rd.from_pandas(left), rd.from_pandas(feats), num_buckets=4
    ).to_pandas()
    expected = _pandas_asof(left, feats, allow_exact_matches=False, suffixes=("", "_r"))
    assert list(out.columns) == ["conv_id", "ts", "ev", "feat", "feat_r"]
    _assert_matches_pandas(out, expected, ["conv_id", "ts", "ev"], ["feat", "feat_r"])


def test_asof_right_rows_sharing_a_ts():
    """Several right rows at one ts: the join takes the last of them, in
    right-input order (pandas merge_asof's backward rule)."""
    events, feats = _frames()
    first = feats.iloc[::3].assign(feat=lambda d: d["feat"] + 10.0)
    last = feats.iloc[1::3].assign(feat=lambda d: d["feat"] + 20.0)
    right = pd.concat([first, feats, last], ignore_index=True)
    out = asof_join(
        rd.from_pandas(events), rd.from_pandas(right), num_buckets=4,
        allow_exact_matches=True,
    ).to_pandas()
    expected = _pandas_asof(events, right, allow_exact_matches=True)
    assert expected["feat"].between(20.0, 21.0).any()  # `last` (+20) wins the tie
    _assert_matches_pandas(out, expected, ["conv_id", "ts", "ev"], ["feat"])


def test_asof_output_types_are_the_input_types():
    """Unmatched integer right columns stay integers with nulls (no
    float64 promotion), left columns keep their Arrow types (string, not
    polars' large_string), and every output block has one schema."""
    events, feats = _frames()
    left = pa.Table.from_pandas(feats, preserve_index=False)
    blocks = _blocks(
        asof_join(rd.from_arrow(left), rd.from_pandas(events), num_buckets=8)
    )
    schemas = {b.schema for b in blocks}
    assert len(schemas) == 1
    schema = schemas.pop()
    assert schema.names == ["conv_id", "ts", "feat", "ev"]
    assert schema.field("conv_id").type == pa.string()
    assert schema.field("ts").type == left.schema.field("ts").type
    assert schema.field("feat").type == pa.float64()
    assert schema.field("ev").type == pa.int64()
    ev = pa.concat_tables(blocks).column("ev")
    assert 0 < ev.null_count < len(ev)


def test_asof_one_sided_buckets():
    """Buckets that receive rows from the left side only still return every
    left row, with typed null right columns."""
    base = pd.Timestamp("2024-01-01")
    left = pd.DataFrame(
        {"conv_id": [f"c{i}" for i in range(40)], "ts": base + pd.Timedelta(hours=1),
         "k": np.arange(40)}
    )
    one = pd.DataFrame({"conv_id": ["c0"], "ts": [base], "v": [7]})
    empty = one.iloc[:0]
    for right, matches in ((one, 1), (empty, 0)):
        blocks = _blocks(
            asof_join(rd.from_pandas(left), rd.from_pandas(right), num_buckets=64)
        )
        out = pa.concat_tables(blocks)
        assert out.num_rows == 40
        assert out.column_names == ["conv_id", "ts", "k", "v"]
        assert out.num_rows - out.column("v").null_count == matches
        assert {b.schema.field("v").type for b in blocks} == {pa.int64()}


def test_asof_null_on_value_raises():
    events, feats = _frames()
    nulled_events = events.assign(ts=events["ts"].where(events.index != 3))
    nulled_feats = feats.assign(ts=feats["ts"].where(feats.index != 3))
    for left, right in ((nulled_events, feats), (events, nulled_feats)):
        with pytest.raises(ValueError, match="null"):
            asof_join(rd.from_pandas(left), rd.from_pandas(right), num_buckets=4).materialize()


def test_asof_exchange_is_as_wide_as_the_buckets():
    """However many blocks the callers' reads bring, the union is coalesced
    to one block per bucket before the exchange, so the merge returns at
    most ``shuffle_buckets()`` blocks, with the rows of a 64-bucket run."""
    events, feats = _frames()
    buckets = shuffle_buckets()
    right = rd.from_arrow(pa.Table.from_pandas(feats, preserve_index=False))
    right = right.repartition(4 * buckets).materialize()
    assert right.num_blocks() >= 4 * buckets

    def rows(ds) -> pa.Table:
        return pa.concat_tables(_blocks(ds)).sort_by(
            [(c, "ascending") for c in ("conv_id", "ts", "ev")])

    out = asof_join(rd.from_pandas(events), right).materialize()
    assert out.num_blocks() <= buckets
    explicit = asof_join(rd.from_pandas(events), right, num_buckets=64)
    assert rows(out).equals(rows(explicit))


def _arrow(df: pd.DataFrame) -> pa.Table:
    return pa.Table.from_pandas(df, preserve_index=False)


def test_asof_empty_sides():
    """An empty left gives a typed empty output; an empty right gives every
    left row with typed null right columns."""
    events, feats = _frames()
    left, right = _arrow(events), _arrow(feats)
    schema = pa.schema([
        ("conv_id", pa.string()), ("ts", left.schema.field("ts").type),
        ("ev", pa.int64()), ("feat", pa.float64()),
    ])
    empty = asof_join(rd.from_arrow(left.slice(0, 0)), rd.from_arrow(right)).materialize()
    assert empty.count() == 0
    assert {b.schema for b in ray.get(empty.to_arrow_refs())} == {schema}
    out = pa.concat_tables(_blocks(asof_join(rd.from_arrow(left), rd.from_arrow(right.slice(0, 0)))))
    assert out.schema == schema
    assert out.num_rows == out.column("feat").null_count == left.num_rows
    assert out.select(["conv_id", "ts", "ev"]).sort_by(
        [(c, "ascending") for c in ("conv_id", "ts", "ev")]
    ).equals(left.sort_by([(c, "ascending") for c in ("conv_id", "ts", "ev")]))


def test_asof_plan_shape(asof_path):
    """The broadcast path shuffles nothing and merges in one task; the
    exchange path keeps its sort."""
    events, feats = _frames()
    right = rd.from_arrow(_arrow(feats)).repartition(4).materialize()
    stats = asof_join(rd.from_pandas(events), right).materialize().stats()
    if asof_path == "broadcast":
        assert "Sort" not in stats
        assert "MapBatches(merge_bucket): 1 tasks executed" in stats
    else:
        assert "Sort" in stats
