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


# ---------------------------------------------------------------------------
# Bloom-filter-accelerated semi-join (the at-scale path for J9 when the
# build side is too large to broadcast exactly but its BITMAP is not):
# build a Bloom filter over the build-side keys with a distributed
# partial-bitmap OR (each batch emits one fixed-size bitmap; the driver ORs
# a bounded #blocks x m/8 bytes), broadcast it once via ray.put, and probe
# on the fact side inside map_batches. Bloom passers are then EXACTLY
# verified (here against the broadcast key set; at 100 TB the verify is a
# keyed shuffle join of the *candidates only* — the filter's point is that
# candidates ~ true matches + eps*N, so the shuffle ships a fraction of the
# fact table). False-positive count is logged, never silent; the final
# result is exact, hence the plain semi-join SQL oracle.
# ---------------------------------------------------------------------------
_BLOOM_M = 1 << 18  # bits (32 KiB packed) — sized for ~10k keys at k=2
_BLOOM_SHIFT = 64 - (_BLOOM_M.bit_length() - 1)  # top log2(M) bits -> [0, M)
_BLOOM_K_MULT = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F)  # splitmix64 / xxh64 odd constants


def _bloom_positions(keys: np.ndarray) -> list[np.ndarray]:
    """k=2 hash positions per key (vectorized 64-bit multiply-shift)."""
    k = keys.astype(np.uint64)
    out = []
    for mult in _BLOOM_K_MULT:
        h = (k * np.uint64(mult)) >> np.uint64(_BLOOM_SHIFT)  # derived from M
        out.append(h.astype(np.int64))
    return out


def q_bloom_semi_join(sf_dir: str):
    import logging

    log = logging.getLogger(__name__)

    # build side: customers in the first five nations (block hint: the dim
    # is small — don't fan the bitmap build into dozens of tiny tasks)
    cust = read_table(
        sf_dir, "customer", columns=["c_custkey", "c_nationkey"], override_num_blocks=4
    )

    def build_bitmap(df: pd.DataFrame) -> pd.DataFrame:
        keys = df.loc[df["c_nationkey"] < 5, "c_custkey"].to_numpy(np.int64)
        bits = np.zeros(_BLOOM_M // 8, dtype=np.uint8)
        for pos in _bloom_positions(keys):
            np.bitwise_or.at(bits, pos >> 3, np.uint8(1) << (pos & 7).astype(np.uint8))
        return pd.DataFrame({"bitmap": [bits.tobytes()], "keys": [keys.tobytes()]})

    parts = cust.map_batches(build_bitmap, batch_format="pandas").to_pandas()
    bloom = np.zeros(_BLOOM_M // 8, dtype=np.uint8)
    exact_keys = []
    for _, row in parts.iterrows():  # bounded: one fixed-size row per input block
        bloom |= np.frombuffer(row["bitmap"], dtype=np.uint8)
        exact_keys.append(np.frombuffer(row["keys"], dtype=np.int64))
    exact = np.unique(np.concatenate(exact_keys)) if exact_keys else np.array([], np.int64)
    bloom_ref = ray.put(bloom)
    exact_ref = ray.put(exact)

    orders = read_table(
        sf_dir, "orders", columns=["o_custkey", "o_orderpriority", "o_totalprice"],
        override_num_blocks=8,
    )

    def probe(df: pd.DataFrame) -> pd.DataFrame:
        bl = ray.get(bloom_ref)
        keys = df["o_custkey"].to_numpy(np.int64)
        hit = np.ones(len(df), dtype=bool)
        for pos in _bloom_positions(keys):
            hit &= (bl[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1 == 1
        cand = df[hit]
        # exact verification of the candidates only
        verified = cand[np.isin(cand["o_custkey"].to_numpy(np.int64), ray.get(exact_ref))]
        fp = len(cand) - len(verified)
        if fp:
            log.info("bloom_semi_join: %d false positives verified away in batch", fp)
        g = verified.groupby("o_orderpriority", as_index=False).agg(
            n_orders=("o_totalprice", "size"), total_price=("o_totalprice", "sum")
        )
        return g

    partials = orders.map_batches(probe, batch_format="pandas")

    def final(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("o_orderpriority", as_index=False)[["n_orders", "total_price"]].sum()
        out["n_orders"] = out["n_orders"].astype("int64")
        return _round(out, ["total_price"])

    return map_conv_buckets(
        partials, final, key="o_orderpriority", sort_cols=["o_orderpriority"], num_buckets=8
    )


SQL_BLOOM_SEMI_JOIN = """
SELECT o_orderpriority,
       COUNT(*) AS n_orders,
       ROUND(SUM(o_totalprice), 4) AS total_price
FROM orders
WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_nationkey < 5)
GROUP BY o_orderpriority
"""

QUERIES["bloom_semi_join"] = q_bloom_semi_join
ORACLES["bloom_semi_join"] = SQL_BLOOM_SEMI_JOIN


# ---------------------------------------------------------------------------
# Fact-fact distributed hash join (TPC-H Q12 shape): lineitem joined to
# orders on the order key — both sides LARGE, so neither broadcasts; the
# native hash-shuffle join partitions both sides on the key and joins each
# partition independently (stages/join.py). The per-line priority
# indicators are pre-masked BEFORE the final shipmode aggregate, which is
# a second, tiny keyed shuffle of per-batch partials.
# ---------------------------------------------------------------------------
def q_join_fact_fact(sf_dir: str):
    from nfl_feature_store_ray.stages.join import equi_join

    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_shipdate"],
                    override_num_blocks=8)
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"],
                        override_num_blocks=8)
    joined = equi_join(li, orders, on="l_orderkey", right_on="o_orderkey",
                       how="inner", num_partitions=16)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        hi = df["o_orderpriority"].isin(["1-URGENT", "2-HIGH"])
        df = df.assign(high_lines=hi.astype("int64"), low_lines=(~hi).astype("int64"),
                       month=df["l_shipdate"].astype("datetime64[us]").dt.month.astype("int64"))
        return df.groupby("month", as_index=False)[["high_lines", "low_lines"]].sum()

    def final(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("month", as_index=False)[["high_lines", "low_lines"]].sum()
        out["high_lines"] = out["high_lines"].astype("int64")
        out["low_lines"] = out["low_lines"].astype("int64")
        return out

    partials = joined.map_batches(partial, batch_format="pandas")
    return map_conv_buckets(partials, final, key="month", sort_cols=["month"], num_buckets=8)


SQL_JOIN_FACT_FACT = """
SELECT CAST(EXTRACT(month FROM l_shipdate) AS BIGINT) AS month,
       CAST(SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') THEN 1 ELSE 0 END) AS BIGINT) AS high_lines,
       CAST(SUM(CASE WHEN o_orderpriority NOT IN ('1-URGENT', '2-HIGH') THEN 1 ELSE 0 END) AS BIGINT) AS low_lines
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY 1
"""

QUERIES["join_fact_fact"] = q_join_fact_fact
ORACLES["join_fact_fact"] = SQL_JOIN_FACT_FACT


# ---------------------------------------------------------------------------
# Unpivot / fold (the inverse of pivot_roles — the reference's
# `df_rename_fold` wide->long algebra, SURVEY §2.2 M13): the wide
# per-(day, conv) role columns fold back to (day, conv, role, value) rows.
# Pure column algebra: three zero-copy projections concatenated inside the
# same map stage — NO extra shuffle beyond the pivot's own.
# ---------------------------------------------------------------------------
def q_unpivot_roles(sf_dir: str):
    wide = q_pivot_roles(sf_dir)  # (day, conv_id, user_value, assistant_value, ...)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for r in ("user", "assistant", "tool"):
            outs.append(
                pd.DataFrame(
                    {
                        "day": df["day"],
                        "conv_id": df["conv_id"],
                        "role": r,
                        "role_value": df[f"{r}_value"],
                    }
                )
            )
        return pd.concat(outs, ignore_index=True)

    return wide.map_batches(fold, batch_format="pandas")


SQL_UNPIVOT_ROLES = f"""{_T},
wide AS (
  SELECT date_trunc('day', ts) AS day, conv_id,
         ROUND(SUM(CASE WHEN role = 'user' THEN value ELSE 0 END), 6) AS user_value,
         ROUND(SUM(CASE WHEN role = 'assistant' THEN value ELSE 0 END), 6) AS assistant_value,
         ROUND(SUM(CASE WHEN role = 'tool' THEN value ELSE 0 END), 6) AS tool_value
  FROM t GROUP BY 1, 2
)
SELECT day, conv_id, 'user' AS role, user_value AS role_value FROM wide
UNION ALL
SELECT day, conv_id, 'assistant', assistant_value FROM wide
UNION ALL
SELECT day, conv_id, 'tool', tool_value FROM wide
"""

QUERIES["unpivot_roles"] = q_unpivot_roles
ORACLES["unpivot_roles"] = SQL_UNPIVOT_ROLES


# ---------------------------------------------------------------------------
# FULL OUTER equi-join — the NULL-preserving join variant the star merge
# (J1-J4) special-cases, gated directly on the generic distributed hash
# join: customers FULL OUTER their per-customer order rollup, keeping both
# order-less customers (NULL order stats) and any orphan order keys. One
# orders shuffle for the rollup; the join itself is the stages.join
# hash-partition exchange. Exact integer cents for the price total.
# ---------------------------------------------------------------------------
def q_join_full_outer(sf_dir: str):
    from nfl_feature_store_ray.stages.join import equi_join

    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"],
                      override_num_blocks=8)
    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"],
                        override_num_blocks=8)

    def order_partial(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {"o_custkey": df["o_custkey"],
             "n_orders": np.int64(1),
             "pc": np.rint(df["o_totalprice"].to_numpy() * 100.0).astype(np.int64)}
        )
        return d.groupby("o_custkey", as_index=False).sum()

    # partial per batch, then the join's own hash partitioning co-locates
    # the partial rows — the final per-key sum folds inside the join stage
    parts = orders.map_batches(order_partial, batch_format="pandas")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("o_custkey", as_index=False).sum()

    from nfl_feature_store_ray.stages.bucketize import map_conv_buckets

    rolled = map_conv_buckets(parts, fold, key="o_custkey",
                              sort_cols=["o_custkey"], num_buckets=16)
    joined = equi_join(cust, rolled, on="c_custkey", right_on="o_custkey",
                       how="outer", num_partitions=16)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        key = df["c_custkey"].to_numpy(dtype="float64")
        rkey = df["o_custkey"].to_numpy(dtype="float64") if "o_custkey" in df else key
        custkey = np.where(np.isnan(key), rkey, key)
        return pd.DataFrame(
            {"custkey": custkey.astype("int64"),
             "c_mktsegment": df["c_mktsegment"],
             "n_orders": df["n_orders"].astype("float64"),
             "total_price": round_half_away(
                 df["pc"].astype("float64") / 100.0, 6)}
        )

    return joined.map_batches(finish, batch_format="pandas")


SQL_JOIN_FULL_OUTER = """
WITH r AS (
  SELECT o_custkey, COUNT(*) AS n_orders,
         CAST(SUM(ROUND(o_totalprice * 100)) AS BIGINT) AS pc
  FROM orders GROUP BY o_custkey
)
SELECT COALESCE(c.c_custkey, r.o_custkey) AS custkey,
       c.c_mktsegment,
       CAST(r.n_orders AS DOUBLE) AS n_orders,
       ROUND(r.pc / 100.0, 6) AS total_price
FROM customer c FULL OUTER JOIN r ON c.c_custkey = r.o_custkey
"""

QUERIES["join_full_outer"] = q_join_full_outer
ORACLES["join_full_outer"] = SQL_JOIN_FULL_OUTER


# ---------------------------------------------------------------------------
# TPC-H Q3 analogue (shipping-priority top-10): the canonical THREE-table
# join-chain — dim-filter semi-join, then a fact-fact join, then a grouped
# top-K — composed entirely from library operators. Scale shape: customer
# never broadcasts (at TPC-H scale the filtered segment is still huge);
# orders is SEMI-joined to the filtered customers on the custkey exchange,
# the survivors join lineitem on the orderkey exchange (stages/join.py
# cogroup spine, 2 join shuffles + 1 tiny partial-agg shuffle), and
# revenue is summed in exact 1e-4 integer units (price_c * (100-disc_c),
# the q1_pricing trick) so the distributed sum equals the oracle
# regardless of partitioning. Top-10 rule pinned: revenue DESC,
# o_orderdate ASC, l_orderkey ASC — partial top-10 per bucket, tiny
# driver merge.
# ---------------------------------------------------------------------------
Q3_CUTOFF = pd.Timestamp("1996-07-01")


def q_q3_shipping(sf_dir: str) -> pd.DataFrame:
    from nfl_feature_store_ray.stages.join import equi_join

    import pyarrow.dataset as pads

    # predicate pushdown at every read (coarse row-group pre-filter; the
    # exact per-row mask still applies after)
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"],
                      filter=pads.field("c_mktsegment") == pads.scalar("BUILDING"),
                      override_num_blocks=8)
    cust_f = cust.map_batches(
        lambda df: df.loc[df["c_mktsegment"] == "BUILDING", ["c_custkey"]],
        batch_format="pandas",
    )
    orders = read_table(
        sf_dir, "orders",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
        filter=pads.field("o_orderdate") < pads.scalar(Q3_CUTOFF),
        override_num_blocks=8,
    )
    orders_f = orders.map_batches(
        lambda df: df[df["o_orderdate"] < Q3_CUTOFF], batch_format="pandas"
    )
    _ORD = {"o_orderkey": "int64", "o_custkey": "int64",
            "o_orderdate": "datetime64[us]", "o_orderpriority": "object"}
    # schema hints end-to-end: without them each equi_join's schema()
    # probe partially EXECUTES its lazy inputs, so the second join in the
    # chain re-runs the first (measured ~2x wall on this query). With
    # hints the whole 3-table chain stays one streaming lazy plan — no
    # mid-chain materialize needed.
    o_semi = equi_join(orders_f, cust_f, on="o_custkey", right_on="c_custkey",
                       how="semi", num_partitions=16,
                       left_schema_hint=_ORD,
                       right_schema_hint={"c_custkey": "int64"})

    li = read_table(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
        filter=pads.field("l_shipdate") > pads.scalar(Q3_CUTOFF),
        override_num_blocks=16,
    )
    li_f = li.map_batches(
        lambda df: df[df["l_shipdate"] > Q3_CUTOFF], batch_format="pandas"
    )
    joined = equi_join(
        o_semi, li_f, on="o_orderkey", right_on="l_orderkey",
        how="inner", num_partitions=16,
        left_schema_hint=_ORD,
        right_schema_hint={"l_orderkey": "int64", "l_extendedprice": "float64",
                           "l_discount": "float64",
                           "l_shipdate": "datetime64[us]"},
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        price_c = np.rint(df["l_extendedprice"].to_numpy() * 100.0).astype(np.int64)
        disc_c = np.rint(df["l_discount"].to_numpy() * 100.0).astype(np.int64)
        df = df.assign(rev_u=price_c * (100 - disc_c))  # exact 1e-4 units
        return df.groupby(
            ["o_orderkey", "o_orderdate", "o_orderpriority"], as_index=False
        )["rev_u"].sum()

    def bucket_topk(g: pd.DataFrame) -> pd.DataFrame:
        d = g.groupby(
            ["o_orderkey", "o_orderdate", "o_orderpriority"], as_index=False
        )["rev_u"].sum()
        d["revenue"] = round_half_away(d["rev_u"].to_numpy(np.float64) / 1e4, 6)
        d = d.sort_values(["revenue", "o_orderdate", "o_orderkey"],
                          ascending=[False, True, True], kind="mergesort")
        return d.head(10).drop(columns=["rev_u"])

    partials = joined.map_batches(partial, batch_format="pandas")
    per_bucket = map_conv_buckets(partials, bucket_topk, key="o_orderkey",
                                  sort_cols=["o_orderkey"], num_buckets=16)
    m = per_bucket.to_pandas()
    if m.empty:  # zero qualifying orders: keep the output schema stable
        m = pd.DataFrame({"o_orderkey": pd.Series([], dtype="int64"),
                          "o_orderdate": pd.Series([], dtype="datetime64[us]"),
                          "o_orderpriority": pd.Series([], dtype=object),
                          "revenue": pd.Series([], dtype="float64")})
    m = m.sort_values(["revenue", "o_orderdate", "o_orderkey"],
                      ascending=[False, True, True], kind="mergesort").head(10)
    out = m.rename(columns={"o_orderkey": "l_orderkey"}).reset_index(drop=True)
    out["l_orderkey"] = out["l_orderkey"].astype("int64")
    out["o_orderdate"] = out["o_orderdate"].astype("datetime64[us]")
    return out[["l_orderkey", "o_orderdate", "o_orderpriority", "revenue"]]


SQL_Q3_SHIPPING = """
SELECT l_orderkey,
       CAST(o_orderdate AS TIMESTAMP) AS o_orderdate,
       o_orderpriority,
       ROUND(SUM(ROUND(l_extendedprice * 100) * (100 - ROUND(l_discount * 100)))
             / 10000.0, 6) AS revenue
FROM customer
JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = 'BUILDING'
  AND o_orderdate < TIMESTAMP '1996-07-01'
  AND l_shipdate > TIMESTAMP '1996-07-01'
GROUP BY l_orderkey, o_orderdate, o_orderpriority
ORDER BY revenue DESC, o_orderdate ASC, l_orderkey ASC
LIMIT 10
"""

QUERIES["q3_shipping"] = q_q3_shipping
ORACLES["q3_shipping"] = SQL_Q3_SHIPPING
