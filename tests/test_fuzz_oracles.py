"""Adversarial-corpus oracle fuzz: the shipped testdata never exercises
exact ts ties, single-event users, malformed props or NULL values — these
seeded nasty events corpora do, and every listed query must STILL match
its DuckDB oracle on them."""

import os
import shutil

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest


# --------------------------------------------------------------------------
# adversarial EVENTS corpus: exact ts ties, single-event users, >24h session
# breaks, malformed props ('', '{}', 'notjson'), event types outside the
# role mapping.
# Round-3 catch: parse_props' oracle CAST('' AS INTEGER) on no-match props
# (DuckDB regexp_extract returns '' not NULL).
# --------------------------------------------------------------------------
EVENTS_FUZZ_DIR = "/tmp/nfl_fs_fuzz_events_test"

EVENT_QUERIES = [
    "w_lag_gap", "w_rolling", "w_session_avg", "w_rank_composite",
    "w_densify_seeded", "w_asof_checkpoint", "w_phase_windows", "wide_slice",
    "w_label_split",
    "resume_manifest", "w_rolling_streaming",
    "w_incremental_append", "parse_props", "pair_join", "agg_career",
    "asof_tolerance",
    "w_first_value", "w_lag_k",
    "agg_tool_set", "w_session_funnel", "split_convs",
    "w_chained_subrange",
]


@pytest.fixture(scope="module")
def events_fuzz_dir():
    rng = np.random.default_rng(int(os.environ.get("FUZZ_SEED", "77")) + 1)
    rows, eid = [], 0
    base = pd.Timestamp("2024-02-01")
    types = ["click", "view", "purchase", "signup", "error", "search", "refund"]
    for u in range(40):
        n = 1 if u % 13 == 0 else int(rng.integers(2, 60))
        t = base + pd.Timedelta(minutes=int(rng.integers(0, 5000)))
        for k in range(n):
            r = rng.random()
            if r < 0.15 and k > 0:
                dt = pd.Timedelta(0)          # exact ts tie
            elif r < 0.25:
                dt = pd.Timedelta(hours=30)   # session break
            else:
                dt = pd.Timedelta(seconds=int(rng.integers(1, 400)))
            t = t + dt
            pr = rng.random()
            props = (
                '{"k": %d}' % int(rng.integers(0, 99)) if pr < 0.85
                else ("" if pr < 0.9 else ("{}" if pr < 0.95 else "notjson"))
            )
            rows.append((eid, t, u, types[int(rng.integers(0, len(types)))],
                         float(np.round(rng.random() * 300, 2)), props))
            eid += 1
    ev = pd.DataFrame(rows, columns=["event_id", "ts", "user_id", "event_type",
                                     "value", "props"])
    ev["ts"] = ev["ts"].astype("datetime64[us]")
    shutil.rmtree(EVENTS_FUZZ_DIR, ignore_errors=True)
    os.makedirs(EVENTS_FUZZ_DIR)
    ev.to_parquet(os.path.join(EVENTS_FUZZ_DIR, "events.parquet"), index=False)
    yield EVENTS_FUZZ_DIR


@pytest.mark.parametrize("name", EVENT_QUERIES)
def test_events_fuzz_query_matches_oracle(name, events_fuzz_dir):
    import __ray_entry__ as e

    r = e.queries()[name](events_fuzz_dir)
    r = r.to_pandas() if not isinstance(r, pd.DataFrame) else r
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{events_fuzz_dir}/events.parquet')"
    )
    s = con.execute(e.oracle_sql()[name]).df()
    assert len(r) == len(s), f"{name}: rows {len(r)} != {len(s)}"
    cols = sorted(r.columns)
    assert cols == sorted(s.columns), name
    rr, ss = r[cols].copy(), s[cols].copy()
    for c in cols:
        if rr[c].dtype.kind in "fc" or ss[c].dtype.kind in "fc":
            rr[c] = rr[c].astype(float).round(6)
            ss[c] = ss[c].astype(float).round(6)
        if rr[c].dtype.kind == "M":
            rr[c] = rr[c].astype("datetime64[us]")
        if ss[c].dtype.kind == "M":
            ss[c] = ss[c].astype("datetime64[us]")
    a = np.sort(rr.astype(str).agg("|".join, axis=1).to_numpy())
    b = np.sort(ss.astype(str).agg("|".join, axis=1).to_numpy())
    assert (a == b).all(), f"{name}: values differ"


# --------------------------------------------------------------------------
# NULL-value EVENTS corpus (round 4, from ADVICE): same shape as the events
# fuzz but ~8% of `value` is NULL — the hazard class where an unmasked
# NaN->int64 cents cast wraps to INT64_MIN and poisons a group sum, and
# where all-NULL (day, conv) groups must keep SQL's NULL-propagation
# (SUM -> NULL, NULLS LAST ordering, NULL rank ties). Queries join this
# list as they are NULL-hardened; the remaining value-window kernels
# (EWMA/rolling etc.) document value-non-null as a contract instead.
# --------------------------------------------------------------------------
NULL_EVENTS_FUZZ_DIR = "/tmp/nfl_fs_fuzz_nullval_test"

NULL_VALUE_QUERIES = [
    "w_rank_day", "w_rank_composite",
    "w_first_value", "w_lag_k",
    # verified NULL-clean by the round-4 full-registry sweep (value NULLs
    # never reach an int cast / their pandas kernels already share SQL's
    # NULL-skip semantics)
    "w_lag_gap", "w_rolling", "w_label_split",
    "resume_manifest", "parse_props",
    "agg_tool_set", "w_session_funnel", "split_convs",
    # all-NULL-group semantics fixed in round 4 (min_count=1 partials /
    # nn counters; SQL SUM -> NULL preserved through carry/as-of/ranking)
    "w_densify", "w_densify_seeded",
    "pair_join", "agg_career", "topk_convs",
    "asof_tolerance", "asof_daily",
    "w_asof_checkpoint",
    # round 5: the flagship expanding/EWMA/session window kernels now skip
    # NULLs like SQL AVG/SUM (pandas + polars + streaming paths, see
    # PARITY.md "Round-5 NULL-value window semantics")
    "w_ewma", "w_expanding", "w_session_avg", "w_phase_windows",
    "wide_slice", "w_rolling_streaming", "w_incremental_append",
    # round 5: the sub-range chained engine shares those kernels' NULL
    # semantics (streaming registers skip NULLs identically)
    "w_chained_subrange",
]


@pytest.fixture(scope="module")
def null_events_fuzz_dir():
    rng = np.random.default_rng(int(os.environ.get("FUZZ_SEED", "991")) + 3)
    rows, eid = [], 0
    base = pd.Timestamp("2024-05-01")
    types = ["click", "view", "purchase", "signup", "error", "search", "refund"]
    for u in range(40):
        # u % 11 == 0 -> single-event conversations; combined with the 8%
        # NULL rate these yield genuine all-NULL (day, conv) groups
        n = 1 if u % 11 == 0 else int(rng.integers(2, 50))
        t = base + pd.Timedelta(minutes=int(rng.integers(0, 5000)))
        for k in range(n):
            r = rng.random()
            if r < 0.15 and k > 0:
                dt = pd.Timedelta(0)
            elif r < 0.25:
                dt = pd.Timedelta(hours=30)
            else:
                dt = pd.Timedelta(seconds=int(rng.integers(1, 400)))
            t = t + dt
            v = None if rng.random() < 0.08 else float(np.round(rng.random() * 300, 2))
            # a few conversations are ENTIRELY null-valued
            if u % 17 == 0:
                v = None
            rows.append((eid, t, u, types[int(rng.integers(0, len(types)))],
                         v, '{"k": %d}' % int(rng.integers(0, 99))))
            eid += 1
    ev = pd.DataFrame(rows, columns=["event_id", "ts", "user_id", "event_type",
                                     "value", "props"])
    ev["ts"] = ev["ts"].astype("datetime64[us]")
    ev["value"] = ev["value"].astype("float64")
    shutil.rmtree(NULL_EVENTS_FUZZ_DIR, ignore_errors=True)
    os.makedirs(NULL_EVENTS_FUZZ_DIR)
    ev.to_parquet(os.path.join(NULL_EVENTS_FUZZ_DIR, "events.parquet"), index=False)
    yield NULL_EVENTS_FUZZ_DIR


def _nan_counts(batches) -> dict[str, int]:
    """NaN count per float column, summed over Arrow batches."""
    counts: dict[str, int] = {}
    for b in batches:
        for c, col in zip(b.column_names, b.columns):
            if pa.types.is_floating(col.type):
                counts[c] = counts.get(c, 0) + (pc.sum(pc.is_nan(col)).as_py() or 0)
    return counts


@pytest.mark.parametrize("name", NULL_VALUE_QUERIES)
def test_null_value_fuzz_query_matches_oracle(name, null_events_fuzz_dir):
    import __ray_entry__ as e

    r = e.queries()[name](null_events_fuzz_dir)
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW events AS SELECT * FROM "
        f"read_parquet('{null_events_fuzz_dir}/events.parquet')"
    )
    if not isinstance(r, pd.DataFrame):
        # pandas reads NaN and NULL alike, so count NaNs in Arrow first
        # (Ray turns a pandas batch's NaN into NULL on the way to Arrow, so
        # a NaN here comes from an Arrow-native stage). Queries that return
        # a pandas frame (topk_convs) cannot tell the two apart and skip
        # this.
        r = r.materialize()
        got = _nan_counts(r.iter_batches(batch_size=None, batch_format="pyarrow"))
        want = _nan_counts(con.execute(e.oracle_sql()[name]).arrow().to_batches())
        for c, n in got.items():
            assert n == want.get(c, 0), f"{name}.{c}: {n} NaN, oracle {want.get(c, 0)}"
    r = r.to_pandas() if not isinstance(r, pd.DataFrame) else r
    s = con.execute(e.oracle_sql()[name]).df()
    assert len(r) == len(s), f"{name}: rows {len(r)} != {len(s)}"
    cols = sorted(r.columns)
    assert cols == sorted(s.columns), name
    rr, ss = r[cols].copy(), s[cols].copy()
    for c in cols:
        if rr[c].dtype.kind in "fc" or ss[c].dtype.kind in "fc":
            rr[c] = rr[c].astype(float).round(6)
            ss[c] = ss[c].astype(float).round(6)
        if rr[c].dtype.kind == "M":
            rr[c] = rr[c].astype("datetime64[us]")
        if ss[c].dtype.kind == "M":
            ss[c] = ss[c].astype("datetime64[us]")
    a = np.sort(rr.astype(str).agg("|".join, axis=1).to_numpy())
    b = np.sort(ss.astype(str).agg("|".join, axis=1).to_numpy())
    diff = np.where(a != b)[0]
    assert (a == b).all(), f"{name}: values differ, first diffs {a[diff[:3]]} vs {b[diff[:3]]}"


def test_lag_default_null_value_semantics(tmp_path, ray_session):
    """Regression: SQL LAG(v, 2, default) must return NULL (not the
    default) when the offset row EXISTS but carries a NULL value."""
    import duckdb

    ev = pd.DataFrame(
        {"event_id": range(6),
         "ts": pd.date_range("2024-03-01", periods=6, freq="min").astype("datetime64[us]"),
         "user_id": 1,
         "event_type": "click",
         "value": [1.0, None, 3.0, 4.0, None, 6.0],
         "props": '{"k": 1}'}
    )
    d = tmp_path / "nullv"
    d.mkdir()
    ev.to_parquet(d / "events.parquet", index=False)
    import __ray_entry__ as e

    r = e.queries()["w_lag_k"](str(d))
    r = r.to_pandas() if not isinstance(r, pd.DataFrame) else r
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM read_parquet('{d}/events.parquet')")
    s = con.execute(e.oracle_sql()["w_lag_k"]).df()
    cols = sorted(r.columns)
    rr = r[cols].sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    ss = s[cols].sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(rr, ss, check_dtype=False)
    # the NULL at turn 1 must surface as NULL at turn 3's lag2 (not -1)
    assert np.isnan(rr.loc[3, "lag2_def"])


def test_null_value_histogram_and_first_value(tmp_path, ray_session):
    """Regression: FIRST_VALUE must RETURN a NULL when the first row's
    value is NULL (pandas transform('first') would skip it)."""
    import duckdb

    ev = pd.DataFrame(
        {"event_id": range(8),
         "ts": pd.date_range("2024-04-01", periods=8, freq="h").astype("datetime64[us]"),
         "user_id": [1, 1, 1, 1, 2, 2, 2, 2],
         "event_type": "click",
         "value": [None, 2.0, 3.0, 4.0, 5.0, None, 7.0, 8.0],
         "props": '{"k": 1}'}
    )
    d = tmp_path / "nullhist"
    d.mkdir()
    ev.to_parquet(d / "events.parquet", index=False)
    import __ray_entry__ as e

    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM read_parquet('{d}/events.parquet')")
    fv = e.queries()["w_first_value"](str(d)).to_pandas()
    s = con.execute(e.oracle_sql()["w_first_value"]).df()
    cols = sorted(fv.columns)
    assert cols == sorted(s.columns)
    rr = fv[cols].sort_values(cols).reset_index(drop=True)
    ss = s[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(rr, ss, check_dtype=False)
    # conv 1's first value is NULL -> conv_first_value must be NULL everywhere
    assert fv.loc[fv["conv_id"] == "1", "conv_first_value"].isna().all()
