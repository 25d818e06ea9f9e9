"""Pump-style aggregation queries (reference §2.5 analogues) + oracles.

The reference's pump computes conditional-sum groupbys, deterministic
mode aggregation, an outer-join star of per-phase aggregates, NaN-
preserving sums, and fill-0-except policies in single-process pandas
(`/root/reference/src/pumps/player_game.py:132-396,470-553`). Here each
becomes a two-level Ray aggregation: a vectorized per-batch PARTIAL
aggregate inside ``map_batches`` (masked products turn conditional sums
into plain sums), then a small exact ``groupby().aggregate`` over the
partials — so the all-to-all shuffle moves one row per (key, batch)
instead of every input row.
"""

from __future__ import annotations

import numpy as np
from nfl_feature_store_ray.functions.rounding import round_half_away
import pandas as pd
from nfl_feature_store_ray.sources.readers import read_table
from nfl_feature_store_ray.stages.bucketize import map_conv_buckets


def _round(df: pd.DataFrame, cols: list[str], nd: int = 4) -> pd.DataFrame:
    for c in cols:
        df[c] = round_half_away(df[c].astype("float64"), nd)
    return df


# ---------------------------------------------------------------------------
# A1 analogue: conditional sums per supplier over lineitem
# ---------------------------------------------------------------------------
def q_conditional_sums(sf_dir: str):
    li = read_table(
        sf_dir,
        "lineitem",
        columns=["l_suppkey", "l_quantity", "l_extendedprice", "l_discount", "l_returnflag"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df["ret_qty"] = df["l_quantity"].where(df["l_returnflag"] == "R", 0.0)
        df["revenue"] = df["l_extendedprice"] * (1.0 - df["l_discount"])
        df["n_items"] = 1
        g = df.groupby("l_suppkey", as_index=False).agg(
            sum_qty=("l_quantity", "sum"),
            ret_qty=("ret_qty", "sum"),
            revenue=("revenue", "sum"),
            n_items=("n_items", "sum"),
        )
        return g

    def final(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby("l_suppkey", as_index=False)[
            ["sum_qty", "ret_qty", "revenue", "n_items"]
        ].sum()
        g["n_items"] = g["n_items"].astype("int64")
        return _round(g, ["sum_qty", "ret_qty", "revenue"])

    # partials per batch, then ONE bucket shuffle keyed on l_suppkey
    partials = li.map_batches(partial, batch_format="pandas")
    return map_conv_buckets(partials, final, key="l_suppkey", sort_cols=["l_suppkey"])


SQL_CONDITIONAL_SUMS = """
SELECT l_suppkey,
       ROUND(SUM(l_quantity), 4) AS sum_qty,
       ROUND(SUM(CASE WHEN l_returnflag = 'R' THEN l_quantity ELSE 0 END), 4) AS ret_qty,
       ROUND(SUM(l_extendedprice * (1 - l_discount)), 4) AS revenue,
       COUNT(*) AS n_items
FROM lineitem GROUP BY l_suppkey
"""


# ---------------------------------------------------------------------------
# A2 analogue: deterministic mode (max count, ties -> smallest value)
# ---------------------------------------------------------------------------
def q_mode(sf_dir: str):
    li = read_table(sf_dir, "lineitem", columns=["l_suppkey", "l_returnflag"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["l_suppkey", "l_returnflag"], as_index=False).size()
        return g.rename(columns={"size": "n"})

    def pick(group: pd.DataFrame) -> pd.DataFrame:
        # finalize partial counts, then deterministic mode per supplier
        g = group.groupby(["l_suppkey", "l_returnflag"], as_index=False)["n"].sum()
        g = g.sort_values(["n", "l_returnflag"], ascending=[False, True], kind="mergesort")
        top = g.groupby("l_suppkey", as_index=False).first()
        return top.rename(columns={"l_returnflag": "mode_flag"})[["l_suppkey", "mode_flag"]]

    partials = li.map_batches(partial, batch_format="pandas")
    return map_conv_buckets(partials, pick, key="l_suppkey", sort_cols=["l_suppkey"])


SQL_MODE = """
WITH c AS (
  SELECT l_suppkey, l_returnflag AS f, COUNT(*) AS n FROM lineitem GROUP BY 1, 2
),
r AS (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY l_suppkey ORDER BY n DESC, f ASC) AS rn FROM c
)
SELECT l_suppkey, f AS mode_flag FROM r WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# A4/J4/M11 analogue: outer-join star of filtered aggregates + fill policy
# ---------------------------------------------------------------------------
def q_star_outer(sf_dir: str):
    """Three filtered aggregate branches over orders, combined on o_custkey.

    Distributed full-outer join by union-of-partials: each branch emits its
    own columns (others null); one grouped NaN-preserving sum merges the
    star; then the named fill policy fills 0 except the exempt column
    (`urgent_total` — analogue of the EPA exempt list, M11).
    """
    orders = read_table(
        sf_dir, "orders", columns=["o_custkey", "o_orderstatus", "o_totalprice", "o_orderpriority"]
    )
    cols = ["open_total", "open_n", "fin_total", "fin_n", "urgent_total", "urgent_n"]

    def branches(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        spec = [
            (df["o_orderstatus"] == "O", "open"),
            (df["o_orderstatus"] == "F", "fin"),
            (df["o_orderpriority"] == "1-URGENT", "urgent"),
        ]
        for mask, pre in spec:
            sub = df[mask]
            if len(sub) == 0:
                continue
            g = sub.groupby("o_custkey", as_index=False).agg(
                **{f"{pre}_total": ("o_totalprice", "sum"), f"{pre}_n": ("o_totalprice", "size")}
            )
            outs.append(g)
        if not outs:
            return pd.DataFrame(columns=["o_custkey", *cols])
        return pd.concat(outs, ignore_index=True).reindex(columns=["o_custkey", *cols])

    partials = orders.map_batches(branches, batch_format="pandas")

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        # NaN-preserving sum (pandas min_count=1): an all-null column for a
        # key (key absent from that branch) stays null, matching FULL OUTER
        g = group.groupby("o_custkey", as_index=False)[cols].sum(min_count=1)
        for c in ("open_n", "fin_n", "urgent_n"):
            g[c] = g[c].fillna(0.0).astype("int64")
        return _round(g, ["open_total", "fin_total", "urgent_total"])

    merged = map_conv_buckets(partials, merge, key="o_custkey", sort_cols=["o_custkey"])
    # the named fill policy (M11): fill 0 except the exempt list
    from nfl_feature_store_ray.stages.fill import fill_zero_except

    return fill_zero_except(merged, exempt=("urgent_total",), key_cols=("o_custkey",))


SQL_STAR_OUTER = """
WITH b1 AS (
  SELECT o_custkey, SUM(o_totalprice) AS open_total, COUNT(*) AS open_n
  FROM orders WHERE o_orderstatus = 'O' GROUP BY 1
),
b2 AS (
  SELECT o_custkey, SUM(o_totalprice) AS fin_total, COUNT(*) AS fin_n
  FROM orders WHERE o_orderstatus = 'F' GROUP BY 1
),
b3 AS (
  SELECT o_custkey, SUM(o_totalprice) AS urgent_total, COUNT(*) AS urgent_n
  FROM orders WHERE o_orderpriority = '1-URGENT' GROUP BY 1
)
SELECT COALESCE(b1.o_custkey, b2.o_custkey, b3.o_custkey) AS o_custkey,
       ROUND(COALESCE(open_total, 0), 4) AS open_total,
       COALESCE(open_n, 0) AS open_n,
       ROUND(COALESCE(fin_total, 0), 4) AS fin_total,
       COALESCE(fin_n, 0) AS fin_n,
       ROUND(urgent_total, 4) AS urgent_total,
       COALESCE(urgent_n, 0) AS urgent_n
FROM b1
FULL OUTER JOIN b2 ON b1.o_custkey = b2.o_custkey
FULL OUTER JOIN b3 ON COALESCE(b1.o_custkey, b2.o_custkey) = b3.o_custkey
"""


# ---------------------------------------------------------------------------
# A4 min_count analogue: NaN-preserving grouped sum
# ---------------------------------------------------------------------------
def q_nullable_sum(sf_dir: str):
    """sum(min_count=1): groups whose metric is all-null keep null (the
    reference's `.sum(min_count=1)` lateral-correction semantics)."""
    ev = read_table(sf_dir, "events", columns=["user_id", "event_type", "value"])

    def mask(df: pd.DataFrame) -> pd.DataFrame:
        df["masked_value"] = df["value"].where(df["event_type"] != "error")
        return df[["user_id", "event_type", "masked_value"]]

    masked = ev.map_batches(mask, batch_format="pandas")

    def agg(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby(["user_id", "event_type"], as_index=False)["masked_value"].sum(
            min_count=1
        )
        return _round(g.rename(columns={"masked_value": "val_sum"}), ["val_sum"], 6)

    return map_conv_buckets(masked, agg, key="user_id", sort_cols=["user_id", "event_type"])


SQL_NULLABLE_SUM = """
SELECT user_id, event_type,
       ROUND(SUM(CASE WHEN event_type = 'error' THEN NULL ELSE value END), 6) AS val_sum
FROM events GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# TPC-H Q1 (classic grouped aggregate; M4-style filter at the read)
# ---------------------------------------------------------------------------
def q1_pricing(sf_dir: str):
    import pyarrow.dataset as pads

    cutoff = pd.Timestamp("1998-09-02")
    li = read_table(
        sf_dir,
        "lineitem",
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
            "l_shipdate",
        ],
        # row-group predicate pushdown: only groups whose shipdate range
        # intersects the cutoff leave storage; the exact per-row filter
        # below still applies (pushdown is a coarse pre-filter)
        filter=pads.field("l_shipdate") <= pads.scalar(cutoff),
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["l_shipdate"] <= cutoff].copy()
        df["count_order"] = 1
        # exact integer units end-to-end: price/discount/tax are 2-decimal,
        # so every term is an exact int64 (cents, 1e-4 units for
        # disc_price, 1e-6 units for charge). Float product sums at 1e9+
        # magnitude accumulate summation-order error LARGER than the 4dp
        # rounding grid (~4e-4 vs 5e-5 at sf0.1), so only exact integer
        # sums — int64 here, HUGEINT in the oracle — make the distributed
        # result equal the oracle's regardless of partitioning.
        price_c = np.rint(df["l_extendedprice"].to_numpy() * 100.0).astype(np.int64)
        disc_c = np.rint(df["l_discount"].to_numpy() * 100.0).astype(np.int64)
        tax_c = np.rint(df["l_tax"].to_numpy() * 100.0).astype(np.int64)
        df["price_c"] = price_c
        df["disc_c"] = disc_c
        df["dp_u"] = price_c * (100 - disc_c)          # 1e-4 units
        df["ch_u"] = df["dp_u"] * (100 + tax_c)        # 1e-6 units
        return df.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            sum_qty=("l_quantity", "sum"),
            price_c=("price_c", "sum"),
            dp_u=("dp_u", "sum"),
            ch_u=("ch_u", "sum"),
            disc_c=("disc_c", "sum"),
            count_order=("count_order", "sum"),
        )

    def finish(group: pd.DataFrame) -> pd.DataFrame:
        # final accumulation of the unit sums in PYTHON ints (arbitrary
        # precision, matching the oracle's HUGEINT): per-batch partials are
        # bounded (< 2^53) but their total can pass int64 at TPC-H sf >= 10
        # (~1e11/row charge units x 6e7 rows); rows here are few (one per
        # batch x group), so object-dtype summing is free
        group = group.assign(
            dp_u=group["dp_u"].map(int), ch_u=group["ch_u"].map(int)
        )
        df = group.groupby(["l_returnflag", "l_linestatus"], as_index=False).sum()
        df["sum_base_price"] = df["price_c"] / 100.0
        df["sum_disc_price"] = df["dp_u"].map(float) / 1e4
        df["sum_charge"] = df["ch_u"].map(float) / 1e6
        df["avg_qty"] = df["sum_qty"] / df["count_order"]
        df["avg_price"] = df["price_c"] / (100.0 * df["count_order"])
        df["avg_disc"] = df["disc_c"] / (100.0 * df["count_order"])
        df = df.drop(columns=["disc_c", "price_c", "dp_u", "ch_u"])
        df["count_order"] = df["count_order"].astype("int64")
        return _round(
            df,
            ["sum_qty", "sum_base_price", "sum_disc_price", "sum_charge",
             "avg_qty", "avg_price", "avg_disc"],
        )

    partials = li.map_batches(partial, batch_format="pandas")
    return map_conv_buckets(
        partials,
        finish,
        key=["l_returnflag", "l_linestatus"],
        sort_cols=["l_returnflag", "l_linestatus"],
        num_buckets=8,
    )


# exact integer units on both sides (engine: int64; here: BIGINT -> SUM is
# HUGEINT-exact): price cents, disc_price in 1e-4 units, charge in 1e-6
# units — float product sums at 1e9+ magnitude carry summation-order error
# larger than the 4dp rounding grid, so only exact sums are order-stable
SQL_Q1_PRICING = """
SELECT l_returnflag, l_linestatus,
       ROUND(SUM(l_quantity), 4) AS sum_qty,
       ROUND(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) / 100.0, 4) AS sum_base_price,
       ROUND(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))) / 10000.0, 4)
         AS sum_disc_price,
       ROUND(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))
                 * (100 + CAST(ROUND(l_tax * 100) AS BIGINT))) / 1000000.0, 4)
         AS sum_charge,
       ROUND(SUM(l_quantity) / COUNT(*), 4) AS avg_qty,
       ROUND(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) / (100.0 * COUNT(*)), 4)
         AS avg_price,
       ROUND(SUM(CAST(ROUND(l_discount * 100) AS BIGINT)) / (100.0 * COUNT(*)), 4)
         AS avg_disc,
       COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus
"""


QUERIES = {
    "agg_conditional_sums": q_conditional_sums,
    "agg_mode": q_mode,
    "agg_star_outer": q_star_outer,
    "agg_nullable_sum": q_nullable_sum,
    "q1_pricing": q1_pricing,
}

ORACLES = {
    "agg_conditional_sums": SQL_CONDITIONAL_SUMS,
    "agg_mode": SQL_MODE,
    "agg_star_outer": SQL_STAR_OUTER,
    "agg_nullable_sum": SQL_NULLABLE_SUM,
    "q1_pricing": SQL_Q1_PRICING,
}


# ---------------------------------------------------------------------------
# Data-quality constraint validation (the dbt-test family): declared
# invariants checked distributed, one violation count per check —
# completeness (required column non-null), domain (value > 0), KEY
# UNIQUENESS (exact distributed duplicate detection: per-batch id
# value_counts partials, one id-keyed shuffle, extras = total - 1 per
# duplicated id), and REFERENTIAL INTEGRITY (orders.custkey ⊆
# customer.custkey via the cogroup anti-join with schema hints — no
# broadcast of the dimension's key set, which at warehouse scale doesn't
# fit the driver). Output is the tiny (check_name, n_violations) report;
# each check streams independently.
# ---------------------------------------------------------------------------
def q_dq_checks(sf_dir: str) -> pd.DataFrame:
    from nfl_feature_store_ray.stages.join import equi_join

    ev = read_table(sf_dir, "events",
                    columns=["event_id", "value", "props"], override_num_blocks=8)

    def scalar_partials(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"n_null_props": [int(df["props"].isna().sum())],
             "n_nonpos": [int((df["value"] <= 0).sum())]}
        )

    sc = ev.map_batches(scalar_partials, batch_format="pandas").to_pandas()
    if sc.empty:  # zero-block Dataset loses columns; rebuild the schema
        sc = pd.DataFrame({"n_null_props": pd.Series([], dtype="int64"),
                           "n_nonpos": pd.Series([], dtype="int64")})

    id_parts = ev.map_batches(
        lambda df: df.groupby("event_id", as_index=False).agg(cnt=("event_id", "size")),
        batch_format="pandas",
    )

    def dup_extras(g: pd.DataFrame) -> pd.DataFrame:
        t = g.groupby("event_id", as_index=False)["cnt"].sum()
        return pd.DataFrame({"extras": [int((t["cnt"] - 1)[t["cnt"] > 1].sum())]})

    dup = map_conv_buckets(id_parts, dup_extras, key="event_id",
                           sort_cols=["event_id"], num_buckets=16).to_pandas()

    orders = read_table(sf_dir, "orders", columns=["o_custkey"], override_num_blocks=8)
    cust = read_table(sf_dir, "customer", columns=["c_custkey"], override_num_blocks=8)
    orphans = equi_join(
        orders, cust, on="o_custkey", right_on="c_custkey", how="anti",
        num_partitions=16,
        left_schema_hint={"o_custkey": "int64"},
        right_schema_hint={"c_custkey": "int64"},
    ).count()

    return pd.DataFrame(
        {"check_name": ["events_duplicate_event_id", "events_nonpositive_value",
                        "events_null_props", "orders_orphan_custkey"],
         "n_violations": pd.Series(
             [int(dup["extras"].sum()) if "extras" in dup.columns else 0,
              int(sc["n_nonpos"].sum()), int(sc["n_null_props"].sum()),
              int(orphans)], dtype="int64")}
    )


SQL_DQ_CHECKS = """
SELECT 'events_duplicate_event_id' AS check_name,
       CAST(COALESCE((SELECT SUM(c - 1) FROM (
         SELECT COUNT(*) AS c FROM events GROUP BY event_id HAVING COUNT(*) > 1
       )), 0) AS BIGINT) AS n_violations
UNION ALL
SELECT 'events_nonpositive_value',
       CAST(SUM(CASE WHEN value <= 0 THEN 1 ELSE 0 END) AS BIGINT) FROM events
UNION ALL
SELECT 'events_null_props',
       CAST(SUM(CASE WHEN props IS NULL THEN 1 ELSE 0 END) AS BIGINT) FROM events
UNION ALL
SELECT 'orders_orphan_custkey', CAST(COUNT(*) AS BIGINT)
FROM orders o
WHERE NOT EXISTS (SELECT 1 FROM customer c WHERE c.c_custkey = o.o_custkey)
"""

QUERIES["dq_checks"] = q_dq_checks
ORACLES["dq_checks"] = SQL_DQ_CHECKS
