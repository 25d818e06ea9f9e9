"""Driver-contract emulation: every queries() entry must match its
oracle_sql() entry run in DuckDB on row count, column set, and values
(sf0.001 here; the driver runs the same comparison at sf0.01)."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.001"
TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def _duck(sf_dir: str):
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")
    return con


def _to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def _dtype_class(dt) -> str:
    """Coarse dtype class mirroring the driver's typed value-hash: an int64
    engine column vs a float64 oracle column (e.g. an uncast DuckDB
    SUM(int) -> HUGEINT -> float64) must FAIL here, not only at the driver
    (r03 verdict #2: a per-session rollup query, since deleted, reached the
    driver before any local gate)."""
    k = getattr(dt, "kind", "O")
    if k in "iu":
        return "int"
    if k in "fc":
        return "float"
    if k == "b":
        return "bool"
    if k in "mM":
        return "datetime"
    return "object"


def compare(ray_df: pd.DataFrame, sql_df: pd.DataFrame, name: str):
    assert len(ray_df) == len(sql_df), f"{name}: rows {len(ray_df)} != {len(sql_df)}"
    rcols, scols = sorted(ray_df.columns), sorted(sql_df.columns)
    assert rcols == scols, f"{name}: columns {rcols} != {scols}"
    r = ray_df[rcols].copy()
    s = sql_df[rcols].copy()
    for c in rcols:
        rk, sk = _dtype_class(r[c].dtype), _dtype_class(s[c].dtype)
        # a fully-NULL duckdb column surfaces as object/float; only enforce
        # kind equality when both sides are concretely typed numerics/bools
        if {rk, sk} <= {"int", "float", "bool"}:
            assert rk == sk, (
                f"{name}.{c}: dtype-kind drift engine={r[c].dtype}({rk}) "
                f"oracle={s[c].dtype}({sk}) — driver typed hash would fail; "
                f"CAST the oracle aggregate or fix the engine dtype"
            )
    # canonical row order: sort by stringified row (order-insensitive compare)
    for df in (r, s):
        for c in rcols:
            if df[c].dtype.kind == "M":
                df[c] = df[c].astype("datetime64[us]")
    rkey = r.astype(str).agg("|".join, axis=1)
    skey = s.astype(str).agg("|".join, axis=1)
    r = r.iloc[np.argsort(rkey.to_numpy(), kind="stable")].reset_index(drop=True)
    s = s.iloc[np.argsort(skey.to_numpy(), kind="stable")].reset_index(drop=True)
    for c in rcols:
        if r[c].dtype.kind in "fc" or s[c].dtype.kind in "fc":
            np.testing.assert_allclose(
                r[c].to_numpy(dtype=float),
                s[c].to_numpy(dtype=float),
                rtol=1e-6,
                atol=1e-9,
                equal_nan=True,
                err_msg=f"{name}.{c}",
            )
        else:
            assert (
                r[c].astype(str).to_numpy() == s[c].astype(str).to_numpy()
            ).all(), f"{name}.{c} values differ"


def _names():
    import __ray_entry__ as e

    return sorted(e.queries())


def test_every_oracle_has_a_query():
    """Queries and oracles pair one to one: an oracle whose query is gone
    would go untested, and a query without an oracle is checked by
    nothing."""
    import __ray_entry__ as e

    assert set(e.queries()) == set(e.oracle_sql())


@pytest.mark.parametrize("name", _names())
def test_query_matches_oracle(name):
    import __ray_entry__ as e

    fn = e.queries()[name]
    sql = e.oracle_sql()[name]
    ray_df = _to_pandas(fn(SF_DIR))
    con = _duck(SF_DIR)
    sql_df = con.execute(sql).df()
    compare(ray_df, sql_df, name)
