"""Join / pivot / whole-history aggregate queries (reference J/M/A-class).

  join_enrich   J5/S3-style broadcast dimension join: orders enriched with
                customer -> nation, revenue per nation. The small side is
                put in the object store ONCE (ray.put) and read per actor,
                never shuffled — the reference fetched its dim table by
                URL inside a map (`player_game.py:51`), the anti-pattern
                this replaces.
  pivot_roles   M13/J6 affix algebra: the per-(day, conv) long role table
                pivoted to role-prefixed wide columns + a home/away-style
                difference column (`df_rename_dif`/`df_rename_pivot`,
                SURVEY §2.2 M13).
  agg_career    A11 whole-history (weekly=False) aggregate: per-entity
                sums with ratio metrics RECOMPUTED from summed numerators/
                denominators (`player_game.py:675-682`), not averaged.
  topk_convs    O4-style top-k by aggregate with pinned tie-break.
"""

from __future__ import annotations

import numpy as np
from nfl_feature_store_ray.functions.rounding import round_half_away
import pandas as pd
import ray

from nfl_feature_store_ray.sources.readers import read_table
from nfl_feature_store_ray.sources.transcripts import (
    TRANSCRIPTS_FROM_EVENTS_SQL,
    transcripts_from_events,
)
from nfl_feature_store_ray.stages.bucketize import map_conv_buckets

_T = f"WITH t AS ({TRANSCRIPTS_FROM_EVENTS_SQL})"


def _round(df, cols, nd=4):
    for c in cols:
        df[c] = round_half_away(df[c].astype("float64"), nd)
    return df


# ---------------------------------------------------------------------------
# broadcast dimension join
# ---------------------------------------------------------------------------
def q_join_enrich(sf_dir: str):
    # small side loaded once on the driver, broadcast via the object store
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]).to_pandas()
    nation = read_table(sf_dir, "nation", columns=["n_nationkey", "n_name"]).to_pandas()
    dim = cust.merge(nation, left_on="c_nationkey", right_on="n_nationkey")[
        ["c_custkey", "n_name"]
    ]
    dim_ref = ray.put(dim)

    orders = read_table(
        sf_dir, "orders", columns=["o_custkey", "o_totalprice"], override_num_blocks=8
    )

    # task-pool closure (a fresh actor pool costs ~1-2s spin-up per query
    # invocation for state this small), but fetch through the per-process
    # broadcast cache: a bare ray.get of a pickled pandas frame would
    # re-unpickle the dim table on EVERY batch (plasma zero-copies only
    # numpy/Arrow buffers)
    from nfl_feature_store_ray.functions.broadcast import cached_object_get

    def enrich(df: pd.DataFrame) -> pd.DataFrame:
        dim = cached_object_get(dim_ref)
        m = df.merge(dim, left_on="o_custkey", right_on="c_custkey", how="left")
        return m.groupby("n_name", as_index=False).agg(
            total_revenue=("o_totalprice", "sum"), n_orders=("o_totalprice", "size")
        )

    partials = orders.map_batches(enrich, batch_format="pandas")

    def final(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby("n_name", as_index=False).sum()
        g["n_orders"] = g["n_orders"].astype("int64")
        return _round(g, ["total_revenue"])

    return map_conv_buckets(partials, final, key="n_name", sort_cols=["n_name"], num_buckets=8)


SQL_JOIN_ENRICH = """
SELECT n.n_name,
       ROUND(SUM(o.o_totalprice), 4) AS total_revenue,
       COUNT(*) AS n_orders
FROM orders o
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
GROUP BY n.n_name
"""


# ---------------------------------------------------------------------------
# role pivot + difference (affix algebra)
# ---------------------------------------------------------------------------
def q_pivot_roles(sf_dir: str):
    ts = transcripts_from_events(sf_dir)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df["day"] = df["ts"].dt.floor("D")
        for r in ("user", "assistant", "tool"):
            df[f"{r}_value"] = df["value"].where(df["role"] == r, 0.0)
        return df.groupby(["day", "conv_id"], as_index=False)[
            ["user_value", "assistant_value", "tool_value"]
        ].sum()

    def final(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby(["day", "conv_id"], as_index=False)[
            ["user_value", "assistant_value", "tool_value"]
        ].sum()
        g["user_minus_assistant"] = g["user_value"] - g["assistant_value"]
        g["day"] = g["day"].astype("datetime64[us]")
        return _round(
            g, ["user_value", "assistant_value", "tool_value", "user_minus_assistant"], 6
        )

    partials = ts.map_batches(partial, batch_format="pandas")
    return map_conv_buckets(
        partials, final, key=["day", "conv_id"], sort_cols=["day", "conv_id"], num_buckets=32
    )


SQL_PIVOT_ROLES = f"""{_T}
SELECT date_trunc('day', ts) AS day, conv_id,
       ROUND(SUM(CASE WHEN role = 'user' THEN value ELSE 0 END), 6) AS user_value,
       ROUND(SUM(CASE WHEN role = 'assistant' THEN value ELSE 0 END), 6) AS assistant_value,
       ROUND(SUM(CASE WHEN role = 'tool' THEN value ELSE 0 END), 6) AS tool_value,
       ROUND(SUM(CASE WHEN role = 'user' THEN value ELSE 0 END)
             - SUM(CASE WHEN role = 'assistant' THEN value ELSE 0 END), 6)
         AS user_minus_assistant
FROM t GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# whole-history (career) aggregate with recomputed ratios
# ---------------------------------------------------------------------------
def q_agg_career(sf_dir: str):
    ts = transcripts_from_events(sf_dir)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df["n_tool"] = (df["role"] == "tool").astype("int64")
        df["n_turns"] = 1
        # exact integer cents (schemas.QUANT_SCALE): partial sums are
        # order-independent, so ratio ties round identically to the oracle
        df["vc"] = np.rint(df["value"].to_numpy() * 100.0)
        # min_count keeps an all-NULL conversation's total NULL (SQL SUM)
        return df.groupby("conv_id", as_index=False).agg(
            total_c=("vc", lambda s: s.sum(min_count=1)),
            n_turns=("n_turns", "sum"), n_tool=("n_tool", "sum")
        )

    def final(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby("conv_id", as_index=False).agg(
            total_c=("total_c", lambda s: s.sum(min_count=1)),
            n_turns=("n_turns", "sum"), n_tool=("n_tool", "sum")
        )
        # ratio metrics from summed numerators/denominators (A11 semantics)
        g["total_value"] = g["total_c"] / 100.0
        g["value_per_turn"] = g["total_c"] / (100.0 * g["n_turns"])
        g["tool_rate"] = g["n_tool"] / g["n_turns"]
        g["n_turns"] = g["n_turns"].astype("int64")
        g["n_tool"] = g["n_tool"].astype("int64")
        g = g.drop(columns=["total_c"])
        return _round(g, ["total_value", "value_per_turn", "tool_rate"], 6)

    partials = ts.map_batches(partial, batch_format="pandas")
    return map_conv_buckets(partials, final, key="conv_id", sort_cols=["conv_id"])


# cents-exact sums (order-independent; see transcript_queries.SQL_EXPANDING)
SQL_AGG_CAREER = f"""{_T}
SELECT conv_id,
       ROUND(SUM(ROUND(value * 100)) / 100.0, 6) AS total_value,
       COUNT(*) AS n_turns,
       CAST(SUM(CASE WHEN role = 'tool' THEN 1 ELSE 0 END) AS BIGINT) AS n_tool,
       ROUND(SUM(ROUND(value * 100)) / (100.0 * COUNT(*)), 6) AS value_per_turn,
       ROUND(SUM(CASE WHEN role = 'tool' THEN 1 ELSE 0 END) / CAST(COUNT(*) AS DOUBLE), 6)
         AS tool_rate
FROM t GROUP BY conv_id
"""


# ---------------------------------------------------------------------------
# top-k by aggregate (pinned tie-break)
# ---------------------------------------------------------------------------
def q_topk_convs(sf_dir: str):
    # per-block partial top-k + one small final merge — no global all-to-all
    # sort over 10^9 conversation totals (round-1 VERDICT minor #6)
    def partial_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df[["conv_id", "total_value"]]
        return df.sort_values(
            ["total_value", "conv_id"], ascending=[False, True], kind="mergesort"
        ).head(10)

    partials = q_agg_career(sf_dir).map_batches(partial_topk, batch_format="pandas")

    def add_rank(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["total_value", "conv_id"], ascending=[False, True], kind="mergesort"
        ).head(10).reset_index(drop=True)
        df["rank"] = np.arange(1, len(df) + 1, dtype="int32")
        return df

    return add_rank(partials.to_pandas())


SQL_TOPK_CONVS = f"""{_T},
totals AS (SELECT conv_id, ROUND(SUM(ROUND(value * 100)) / 100.0, 6) AS total_value
           FROM t GROUP BY conv_id)
SELECT conv_id, total_value,
       CAST(ROW_NUMBER() OVER (ORDER BY total_value DESC, conv_id ASC) AS INTEGER) AS rank
FROM totals ORDER BY total_value DESC, conv_id ASC LIMIT 10
"""


# ---------------------------------------------------------------------------
# J6: true two-sided entity-pair join — the SAME feature table joined TWICE
# on two different key columns with suffix->prefix renames
# (ref `event_regular_season_game.py:23-40`: home/away team features onto
# one event row). Pairing is deterministic: per day, conversations ranked
# by (day_value DESC, conv_id) and adjacent ranks paired (odd tail drops).
# ---------------------------------------------------------------------------
def q_pair_join(sf_dir: str):
    ts = transcripts_from_events(sf_dir)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(
            day=df["ts"].astype("datetime64[us]").dt.floor("D"),
            vc=np.rint(df["value"].to_numpy() * 100.0),
            n=1,
        )
        # min_count keeps an all-NULL (day, conv) feature NULL (SQL SUM)
        return df.groupby(["day", "conv_id"], as_index=False).agg(
            day_c=("vc", lambda s: s.sum(min_count=1)), n_turns=("n", "sum")
        )

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        # whole days per bucket: finalize the feature table, build the
        # pair-event table, then join the feature table TWICE (J6 shape)
        f = g.groupby(["day", "conv_id"], as_index=False).agg(
            day_c=("day_c", lambda s: s.sum(min_count=1)), n_turns=("n_turns", "sum")
        )
        f["day_value"] = round_half_away(f["day_c"] / 100.0, 6)
        f["n_turns"] = f["n_turns"].astype("int64")
        f = f.drop(columns=["day_c"])
        f = f.sort_values(
            ["day", "day_value", "conv_id"], ascending=[True, False, True],
            kind="mergesort",
        )
        rk = f.groupby("day").cumcount()
        ev = f[["day", "conv_id"]].assign(pair=rk // 2, side=rk % 2)
        pairs = ev[ev["side"] == 0][["day", "pair", "conv_id"]].merge(
            ev[ev["side"] == 1][["day", "pair", "conv_id"]],
            on=["day", "pair"],
            suffixes=("_home", "_away"),
        )  # inner: odd tail conv drops
        # join #1: home side; join #2: away side — suffix -> prefix renames
        out = pairs.merge(
            f.rename(columns={"conv_id": "conv_id_home"}), on=["day", "conv_id_home"]
        ).rename(columns={"day_value": "home_day_value", "n_turns": "home_n_turns"})
        out = out.merge(
            f.rename(columns={"conv_id": "conv_id_away"}), on=["day", "conv_id_away"]
        ).rename(columns={"day_value": "away_day_value", "n_turns": "away_n_turns"})
        out["value_diff"] = round_half_away(
            out["home_day_value"] - out["away_day_value"], 6
        )
        out["day"] = out["day"].astype("datetime64[us]")
        out = out.rename(
            columns={"conv_id_home": "home_conv_id", "conv_id_away": "away_conv_id"}
        )
        return out[
            ["day", "home_conv_id", "away_conv_id", "home_day_value",
             "home_n_turns", "away_day_value", "away_n_turns", "value_diff"]
        ]

    partials = ts.map_batches(partial, batch_format="pandas")
    return map_conv_buckets(
        partials, bucket_fn, key="day", sort_cols=["day", "conv_id"], num_buckets=32
    )


SQL_PAIR_JOIN = f"""{_T},
daily AS (
  SELECT date_trunc('day', ts) AS day, conv_id,
         SUM(ROUND(value * 100)) AS day_c, COUNT(*) AS n_turns
  FROM t GROUP BY 1, 2
),
f AS (SELECT day, conv_id, ROUND(day_c / 100.0, 6) AS day_value, n_turns FROM daily),
r AS (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY day ORDER BY day_value DESC, conv_id) - 1 AS rk
  FROM f
),
pairs AS (
  SELECT h.day, h.conv_id AS home_conv_id, a.conv_id AS away_conv_id
  FROM r h JOIN r a ON h.day = a.day AND a.rk = h.rk + 1 AND h.rk % 2 = 0
)
SELECT p.day, p.home_conv_id, p.away_conv_id,
       hf.day_value AS home_day_value, hf.n_turns AS home_n_turns,
       af.day_value AS away_day_value, af.n_turns AS away_n_turns,
       ROUND(hf.day_value - af.day_value, 6) AS value_diff
FROM pairs p
JOIN f hf ON hf.day = p.day AND hf.conv_id = p.home_conv_id
JOIN f af ON af.day = p.day AND af.conv_id = p.away_conv_id
"""


# ---------------------------------------------------------------------------
# J9/J10: semi-join / anti-join filters (reference `isin` masks against a
# derived key set, `player_game.py` roster filters). On the conv-partition
# spine the membership set is CO-LOCATED with the rows it filters (whole
# conversations per bucket), so the semi/anti join is an in-bucket mask —
# no broadcast, no extra shuffle.
# ---------------------------------------------------------------------------
def _membership_filter(sf_dir: str, keep_members: bool):
    ts = transcripts_from_events(sf_dir)

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        # membership: conversation opens with tool use (tool turn among the
        # first 3) — a predicate that splits the corpus non-trivially
        turn_idx = g.groupby("conv_id", sort=False).cumcount()
        members = set(g.loc[(g["role"] == "tool") & (turn_idx < 3), "conv_id"])
        mask = g["conv_id"].isin(members)
        sel = g[mask if keep_members else ~mask]
        out = sel.groupby("conv_id", as_index=False).agg(n_turns=("conv_id", "size"))
        out["n_turns"] = out["n_turns"].astype("int64")
        return out

    pruned = ts.map_batches(
        lambda df: df[["conv_id", "ts", "_seq", "role"]], batch_format="pandas"
    )  # membership needs role + order only — don't ship text through the shuffle
    return map_conv_buckets(pruned, bucket_fn, key="conv_id", sort_cols=["conv_id", "ts", "_seq"])


def q_semi_join(sf_dir: str):
    return _membership_filter(sf_dir, keep_members=True)


def q_anti_join(sf_dir: str):
    return _membership_filter(sf_dir, keep_members=False)


SQL_SEMI_JOIN = f"""{_T}
SELECT conv_id, COUNT(*) AS n_turns FROM t
WHERE conv_id IN (SELECT DISTINCT conv_id FROM t WHERE role = 'tool' AND turn_idx < 3)
GROUP BY conv_id
"""

SQL_ANTI_JOIN = f"""{_T}
SELECT conv_id, COUNT(*) AS n_turns FROM t
WHERE conv_id NOT IN (SELECT DISTINCT conv_id FROM t WHERE role = 'tool' AND turn_idx < 3)
GROUP BY conv_id
"""


QUERIES = {
    "join_enrich": q_join_enrich,
    "pivot_roles": q_pivot_roles,
    "agg_career": q_agg_career,
    "topk_convs": q_topk_convs,
    "pair_join": q_pair_join,
    "semi_join": q_semi_join,
    "anti_join": q_anti_join,
}

ORACLES = {
    "join_enrich": SQL_JOIN_ENRICH,
    "pivot_roles": SQL_PIVOT_ROLES,
    "agg_career": SQL_AGG_CAREER,
    "topk_convs": SQL_TOPK_CONVS,
    "pair_join": SQL_PAIR_JOIN,
    "semi_join": SQL_SEMI_JOIN,
    "anti_join": SQL_ANTI_JOIN,
}
