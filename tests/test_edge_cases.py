"""Engineered edge cases: ts ties (turn_idx tie-break determinism),
duplicate-key assertion, empty-text metrics."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from nfl_feature_store_ray.state.window_engine import window_features
from tests.oracle import assert_feature_parity, oracle_windows


def _tie_table() -> pa.Table:
    # one conversation where three consecutive turns share the SAME ts —
    # ordering must fall back to turn_idx deterministically
    base = pd.Timestamp("2024-03-01 12:00:00")
    rows = []
    spec = [
        ("c1", 0, "user", base, 10.0),
        ("c1", 1, "assistant", base + pd.Timedelta(seconds=5), 20.0),
        ("c1", 2, "tool", base + pd.Timedelta(seconds=5), 30.0),  # tie
        ("c1", 3, "user", base + pd.Timedelta(seconds=5), 40.0),  # tie
        ("c1", 4, "assistant", base + pd.Timedelta(hours=30), 50.0),  # session split
        ("c2", 0, "user", base, 7.0),
    ]
    for conv, idx, role, ts, v in spec:
        rows.append(
            {
                "conv_id": conv,
                "turn_idx": np.int32(idx),
                "role": role,
                "text": f"t{idx}",
                "tool": "search" if role == "tool" else None,
                "ts": ts,
                "value": v,
            }
        )
    df = pd.DataFrame(rows).iloc[::-1]  # reversed physical order
    return pa.Table.from_pandas(df, preserve_index=False)


def test_ts_ties_break_on_turn_idx():
    tbl = _tie_table()
    out = (
        window_features(rd.from_arrow(tbl), metrics=("value",), num_buckets=4)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )
    c1 = out[out.conv_id == "c1"].reset_index(drop=True)
    # last_value must follow turn order even across the ts tie
    np.testing.assert_allclose(
        c1["last_value"].to_numpy(), [np.nan, 10.0, 20.0, 30.0, 40.0], equal_nan=True
    )
    # session split at the 30h gap
    assert list(c1["session_id"]) == [0, 0, 0, 0, 1]
    # row 0 of session 1 carries session 0's final expanding value (mean of 10..40)
    assert abs(c1.loc[4, "session_avg_value"] - 25.0) < 1e-12

    df = tbl.to_pandas()
    df["text_len"] = df["text"].str.len()
    assert_feature_parity(out, oracle_windows(df, metrics=("value",)))


def test_duplicate_turn_idx_rejected():
    tbl = _tie_table().to_pandas()
    dup = pd.concat([tbl, tbl.iloc[[0]]], ignore_index=True)
    ds = rd.from_arrow(pa.Table.from_pandas(dup, preserve_index=False))
    with pytest.raises(Exception, match="duplicate"):
        window_features(ds, metrics=("value",), num_buckets=2).to_pandas()


def test_empty_text_metrics():
    tbl = _tie_table().to_pandas()
    tbl.loc[:, "text"] = ""
    ds = rd.from_arrow(pa.Table.from_pandas(tbl, preserve_index=False))
    out = window_features(ds, metrics=("text_len", "n_tokens")).to_pandas()
    assert (out["text_len"] == 0).all() and (out["n_tokens"] == 0).all()


def test_all_null_metric_yields_all_null_windows():
    """FIXTURES F3 edge: a metric that is all-null for an entity produces
    all-null window features for it (NaN-propagating windows). Nullable
    metrics with MIXED nulls must go through stages.fill.fill_zero_except
    BEFORE windowing — the engine's documented contract (M11)."""
    import pandas as pd

    from nfl_feature_store_ray.state.window_kernel_pl import kernel_arrow

    base = pd.Timestamp("2024-01-01")
    df = pd.DataFrame(
        {
            "conv_id": ["a"] * 5 + ["b"] * 3,
            "turn_idx": np.array([0, 1, 2, 3, 4, 0, 1, 2], dtype="int32"),
            "role": ["user"] * 8,
            "ts": [base + pd.Timedelta(minutes=i) for i in range(5)]
            + [base + pd.Timedelta(minutes=i) for i in range(3)],
            "m": [np.nan] * 5 + [1.0, 2.0, 3.0],
        }
    )
    for r in ("user", "assistant", "tool"):
        df[f"is_{r}"] = (df["role"] == r).astype("int8")
    df = df.sort_values(["conv_id", "ts", "turn_idx"]).reset_index(drop=True)

    out = kernel_arrow(pa.Table.from_pandas(df, preserve_index=False), metrics=("m",)).to_pandas()
    a = out[out.conv_id == "a"]
    for c in ("last_m", "form_m", "avg_m", "ewma_m", "session_avg_m"):
        assert a[c].isna().all(), c
    b = out[out.conv_id == "b"].reset_index(drop=True)
    np.testing.assert_allclose(b["avg_m"].to_numpy(), [np.nan, 1.0, 1.5], equal_nan=True)


def test_quantile_disc_rule_matches_duckdb_at_crossing(tmp_path):
    """quantile_disc selection rule: rank = ceil(q*n), verified at (n, q)
    pairs where the interpolation-style floor(q*(n-1)) rule picks a
    DIFFERENT order statistic (ADVICE r2: n=6 q=0.75 -> rank 5 vs 4).
    Distinct token counts so the two rules cannot coincide by value."""
    import duckdb
    import pyarrow.parquet as pq

    from nfl_feature_store_ray.pipelines.text_analysis import (
        SQL_QUANTILE_TOKENS,
        q_quantile_tokens,
    )

    for n in (4, 6, 7, 13):
        d = tmp_path / f"n{n}"
        d.mkdir()
        # doc i has i+1 whitespace tokens -> order stats 1..n, all distinct
        texts = [" ".join(["w"] * (i + 1)) for i in range(n)]
        pq.write_table(
            pa.table({"doc_id": list(range(n)), "text": texts}),
            d / "documents.parquet",
        )
        eng = q_quantile_tokens(str(d)).sort_values("q").reset_index(drop=True)
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM read_parquet('{d}/documents.parquet')"
        )
        ora = con.execute(SQL_QUANTILE_TOKENS).df().sort_values("q").reset_index(drop=True)
        assert list(eng["n_tokens_q"]) == list(ora["n_tokens_q"]), (
            n, list(eng["n_tokens_q"]), list(ora["n_tokens_q"]))


def test_phase_kernel_empty_block_keeps_schema():
    """Zero-row blocks through the phases branch must not crash and must
    emit the full phase-column schema (ADVICE r2 medium: lpi[0] IndexError
    on empty partition files in window_features_partitioned)."""
    from nfl_feature_store_ray.state.window_kernel_pl import kernel_arrow

    schema = pa.schema(
        [
            ("conv_id", pa.string()),
            ("ts", pa.timestamp("us")),
            ("turn_idx", pa.int32()),
            ("role", pa.string()),
            ("value", pa.float64()),
            ("is_user", pa.int8()),
            ("is_assistant", pa.int8()),
            ("is_tool", pa.int8()),
        ]
    )
    out = kernel_arrow(schema.empty_table(), metrics=("value",), phases=("user", "assistant"))
    assert out.num_rows == 0
    for fam in ("last", "form", "avg", "ewma"):
        for p in ("user", "assistant"):
            assert f"{fam}_value_{p}" in out.schema.names


def test_ewma_oracle_no_overflow_on_long_conversation(tmp_path):
    """ADVICE r2: the old closed-form EWMA oracle emitted inf past ~3500
    same-role turns ((1/(1-a))^ridx > DBL_MAX). The segment-renormalized
    form (functions.sqlgen) must stay finite AND match the engine at 6dp
    on a 4500-turn single-role conversation."""
    import duckdb
    import pyarrow.parquet as pq_

    from nfl_feature_store_ray.pipelines.transcript_queries import (
        SQL_EWMA,
        q_ewma,
        q_phase_windows,
        SQL_PHASE_WINDOWS,
    )

    n = 4500
    base = pd.Timestamp("2024-01-01")
    rng = np.random.default_rng(4)
    events = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype="int64"),
            "ts": base + pd.to_timedelta(np.arange(n), unit="s"),
            "user_id": np.int64(1),
            # 'click' maps to role=user for every row -> 4500 same-role turns
            "event_type": "click",
            "value": np.round(rng.random(n) * 10, 2),
            "props": "p",
        }
    )
    d = tmp_path / "long"
    d.mkdir()
    pq_.write_table(pa.Table.from_pandas(events, preserve_index=False),
                    d / "events.parquet")

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{d}/events.parquet')"
    )
    for qfn, sql, cols in (
        (q_ewma, SQL_EWMA, ["ewma_value"]),
        (q_phase_windows, SQL_PHASE_WINDOWS, None),
    ):
        eng = qfn(str(d)).to_pandas().sort_values("turn_idx").reset_index(drop=True)
        ora = con.execute(sql).df().sort_values("turn_idx").reset_index(drop=True)
        assert len(eng) == len(ora) == n
        use = cols or [c for c in ora.columns if c not in ("conv_id", "turn_idx")]
        for c in use:
            o = ora[c].to_numpy(dtype="float64")
            assert np.isfinite(o[~np.isnan(o)]).all(), f"{c}: oracle emitted inf"
            np.testing.assert_allclose(
                eng[c].to_numpy(dtype="float64"), o,
                rtol=1e-6, atol=1e-9, equal_nan=True, err_msg=c,
            )


def test_pack_scan_empty_input_keeps_schema():
    """pack_scan over a dataset whose every row is filtered out must return
    the schema-complete empty result, not KeyError on the vanished columns
    (reachable via q_curate_corpus when nothing survives curation)."""
    import ray.data as rdata

    from nfl_feature_store_ray.pipelines.packing import pack_scan

    toks = rdata.from_pandas(
        pd.DataFrame({"doc_id": [1, 2], "n_tokens": [5, 6]})
    ).filter(lambda r: False)
    out = pack_scan(toks)
    out = out.to_pandas() if not isinstance(out, pd.DataFrame) else out
    assert len(out) == 0
    assert list(out.columns) == ["doc_id", "n_tokens", "pack_id", "pack_offset"]


def test_sample_stratified_negative_ids_match_oracle(tmp_path):
    """Negative doc_ids: numpy % is non-negative while SQL % keeps the
    dividend's sign — the oracle normalizes so both select identical
    samples on ANY id domain."""
    import duckdb

    from nfl_feature_store_ray.pipelines.text_analysis import (
        SQL_SAMPLE_STRATIFIED,
        q_sample_stratified,
    )

    d = tmp_path / "neg"
    d.mkdir()
    ids = list(range(-50, 50))
    pd.DataFrame(
        {"doc_id": ids, "text": "t", "lang": ["en", "de"] * 50,
         "n_chars": np.int64(1)}
    ).to_parquet(d / "documents.parquet", index=False)
    eng = q_sample_stratified(str(d)).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{d}/documents.parquet')"
    )
    ora = con.execute(SQL_SAMPLE_STRATIFIED).df()
    key = lambda df: sorted(map(tuple, df[["doc_id", "lang", "rk"]].to_numpy()))
    assert key(eng) == key(ora)


def _docs_oracle_compare(tmp_path, df, names):
    """Run each named document-family query on a planted corpus and
    compare rows+schema against its DuckDB oracle (the degenerate-corpus
    contract: empty results must keep their schema)."""
    import duckdb

    import __ray_entry__ as e

    d = tmp_path / "docs"
    d.mkdir(exist_ok=True)
    df.to_parquet(d / "documents.parquet", index=False)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{d}/documents.parquet')"
    )
    for name in names:
        r = e.queries()[name](str(d))
        r = r.to_pandas() if not isinstance(r, pd.DataFrame) else r
        s = con.execute(e.oracle_sql()[name]).df()
        assert sorted(r.columns) == sorted(s.columns), (name, r.columns)
        assert len(r) == len(s), (name, len(r), len(s))


def test_vocab_overlap_single_source_keeps_schema(tmp_path, ray_session):
    """One source => zero pairs; the result must be an EMPTY frame with
    the full 5-column schema (a bare DataFrame([]) would lose it)."""
    df = pd.DataFrame(
        {"doc_id": range(6), "text": ["a b", "b c", None, "", "a", "c d"],
         "lang": "en", "source": "only", "n_chars": 0}
    )
    _docs_oracle_compare(tmp_path, df, ["vocab_overlap"])


def test_pagerank_edgeless_corpus_empty_not_crash(tmp_path, ray_session):
    """All-distinct prefixes => no near-dup edges => empty graph; the
    engine must return the empty typed frame, not divide by zero."""
    df = pd.DataFrame(
        {"doc_id": range(8),
         "text": [f"{c}{c}{c}{c} utterly distinct prefix {i}"
                  for i, c in enumerate("qwertzui")],
         "lang": "en", "source": "s", "n_chars": 0}
    )
    _docs_oracle_compare(tmp_path, df, ["pagerank"])


def test_posting_lists_tiny_and_empty_corpus(tmp_path, ray_session):
    """Fewer tokens than PL_K and a fully-NULL corpus both keep schema."""
    df = pd.DataFrame(
        {"doc_id": range(3), "text": ["a b", "a", None],
         "lang": "en", "source": "s", "n_chars": 0}
    )
    _docs_oracle_compare(tmp_path, df, ["posting_lists", "top_bigrams"])


def test_typo_stats_planted_truth(tmp_path, ray_session):
    """Planted corpus with a known answer. The vocabulary is exactly 100
    words each appearing 3x (filling the TYPO_VOCAB_K=100 top slots), so
    the once-only probe tokens are OOV: 'thx' (sub) and 'thee' (ins) are
    distance 1 from vocab word 'the' (correctable), 'zzzzz' is not. Note
    'teh' would NOT count — plain Levenshtein scores the transposition 2."""
    words = ["the"] + [f"word{i:03d}" for i in range(99)]
    filler = " ".join(words * 3)
    df = pd.DataFrame(
        {"doc_id": [0, 1, 2],
         "text": [filler,                       # all in-vocab
                  filler + " thx thee",         # 2 correctable typos
                  filler + " zzzzz thx"],       # 1 far-OOV + 1 typo
         "lang": "en", "source": "s", "n_chars": 0}
    )
    d = tmp_path / "typo"
    d.mkdir()
    df.to_parquet(d / "documents.parquet", index=False)
    import __ray_entry__ as e

    r = e.queries()["typo_stats"](str(d))
    r = (r.to_pandas() if not isinstance(r, pd.DataFrame) else r).sort_values(
        "doc_id"
    ).reset_index(drop=True)
    assert r["n_oov"].tolist() == [0, 2, 2]
    assert r["n_correctable"].tolist() == [0, 2, 1]


def test_late_events_planted_out_of_order(tmp_path, ray_session):
    """The shipped events are arrival-ordered (n_late = 0 everywhere), so
    this plants genuine out-of-orderness: user 1's third-arriving event
    (by event_id) is 90s behind the running max, the fourth 30s behind.
    Pins counts and exact microsecond lateness, plus the oracle match."""
    import duckdb

    base = pd.Timestamp("2024-03-01")
    ev = pd.DataFrame(
        {"event_id": [0, 1, 2, 3, 4, 10, 11],
         "ts": [base, base + pd.Timedelta(seconds=100),
                base + pd.Timedelta(seconds=10),    # 90s late
                base + pd.Timedelta(seconds=70),    # 30s late
                base + pd.Timedelta(seconds=200),
                base, base + pd.Timedelta(seconds=5)],  # user 2: in order
         "user_id": [1, 1, 1, 1, 1, 2, 2],
         "event_type": "click", "value": 1.0, "props": "{}"}
    )
    ev["ts"] = ev["ts"].astype("datetime64[us]")
    d = tmp_path / "late"
    d.mkdir()
    ev.to_parquet(d / "events.parquet", index=False)
    import __ray_entry__ as e

    r = e.queries()["w_late_events"](str(d))
    r = (r.to_pandas() if not isinstance(r, pd.DataFrame) else r).sort_values(
        "conv_id").reset_index(drop=True)
    assert r["n_late"].tolist() == [2, 0]
    assert r["max_lateness_us"].tolist() == [90_000_000, 0]
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM read_parquet('{d}/events.parquet')")
    s = con.execute(e.oracle_sql()["w_late_events"]).df().sort_values(
        "conv_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(r, s[r.columns.tolist()], check_dtype=False)


def test_dq_checks_planted_dirty_corpus(tmp_path, ray_session):
    """The shipped testdata is clean (all four checks = 0), so this
    plants known violations: 2 duplicated event_ids (3 extra rows), 2
    non-positive values, 1 null props, and 2 orders pointing at a
    missing customer."""
    import duckdb

    base = pd.Timestamp("2024-05-01")
    ev = pd.DataFrame(
        {"event_id": [0, 1, 1, 2, 2, 2, 3, 4],      # id 1 x2, id 2 x3 -> 3 extras
         "ts": [base + pd.Timedelta(seconds=i) for i in range(8)],
         "user_id": 7, "event_type": "click",
         "value": [1.0, 0.0, -2.5, 1.0, 1.0, 1.0, 5.0, 1.0],  # 2 non-positive
         "props": ["{}", None, "{}", "{}", "{}", "{}", "{}", "{}"]}  # 1 null
    )
    ev["ts"] = ev["ts"].astype("datetime64[us]")
    orders = pd.DataFrame({"o_custkey": [10, 10, 99, 98]})  # 99, 98 orphaned
    cust = pd.DataFrame({"c_custkey": [10, 11]})
    d = tmp_path / "dq"
    d.mkdir()
    ev.to_parquet(d / "events.parquet", index=False)
    orders.to_parquet(d / "orders.parquet", index=False)
    cust.to_parquet(d / "customer.parquet", index=False)
    import __ray_entry__ as e

    r = e.queries()["dq_checks"](str(d))
    r = (r.to_pandas() if not isinstance(r, pd.DataFrame) else r).sort_values(
        "check_name").reset_index(drop=True)
    assert r["n_violations"].tolist() == [3, 2, 1, 2], r
    con = duckdb.connect()
    for t in ("events", "orders", "customer"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{d}/{t}.parquet')")
    s = con.execute(e.oracle_sql()["dq_checks"]).df().sort_values(
        "check_name").reset_index(drop=True)
    pd.testing.assert_frame_equal(r, s[r.columns.tolist()], check_dtype=False)


def test_source_overlap_single_source_keeps_schema(tmp_path, ray_session):
    """ADVICE r04: exactly one distinct source => zero pairs; must return
    the empty 4-column typed frame (pd.DataFrame([]) would KeyError on
    the n_shared astype), matching the oracle's empty result."""
    df = pd.DataFrame(
        {"doc_id": range(5), "text": ["a b", "a b", "c", None, "d e"],
         "lang": "en", "source": "only", "n_chars": 0}
    )
    _docs_oracle_compare(tmp_path, df, ["source_overlap"])


def test_ann_pq_tiny_corpus_trains_clamped_codebooks(tmp_path, ray_session):
    """ADVICE r04: fewer training vectors than PQ_K=16 must clamp the
    per-subspace codebook (padding unused rows), not raise a numpy
    broadcast ValueError; planted exact duplicates must still score 1.0."""
    import numpy as np

    import __ray_entry__ as e

    rng = np.random.default_rng(9)
    vecs = rng.normal(size=(6, 64))
    vecs[5] = vecs[0]  # exact duplicate pair
    df = pd.DataFrame(
        {"vec_id": range(6),
         "embedding": [v.astype(np.float32).tolist() for v in vecs],
         "label": np.zeros(6, dtype="int32")}
    )
    d = tmp_path / "tinyemb"
    d.mkdir()
    df.to_parquet(d / "embeddings.parquet", index=False)
    r = e.queries()["ann_pq"](str(d))
    r = r.to_pandas() if not isinstance(r, pd.DataFrame) else r
    assert len(r) > 0
    # with k_eff = n_train every vector IS a centroid: PQ scores are exact,
    # so the duplicate pair must top each other's lists with cos_sim 1.0
    top0 = r[r["query_id"] == 0].iloc[0]
    assert top0["neighbor_id"] == 5 and abs(top0["cos_sim"] - 1.0) < 1e-9


def test_sketch_dd_bounds_no_positive_values(tmp_path, ray_session):
    """A corpus whose values are all NULL or <= 0 must bound vacuously
    (TRUE flags, NULL true quantile) and match the oracle's aggregate
    over the empty filtered set — not crash on the schema-less
    zero-row partial frame."""
    import duckdb

    import __ray_entry__ as e

    ev = pd.DataFrame(
        {"event_id": range(6),
         "ts": pd.date_range("2024-01-01", periods=6, freq="h").astype("datetime64[us]"),
         "user_id": [1, 1, 2, 2, 3, 3],
         "event_type": "click",
         "value": [0.0, -1.0, None, 0.0, None, -2.5],
         "props": "{}"}
    )
    d = tmp_path / "noposev"
    d.mkdir()
    ev.to_parquet(d / "events.parquet", index=False)
    r = e.queries()["sketch_dd_bounds"](str(d))
    r = r.to_pandas() if not isinstance(r, pd.DataFrame) else r
    assert r["ge_lo"].all() and r["le_hi"].all()
    assert (r["n_pos"] == 0).all()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM read_parquet('{d}/events.parquet')")
    s = con.execute(e.oracle_sql()["sketch_dd_bounds"]).df()
    assert len(s) == len(r) and s["ge_lo"].all()
