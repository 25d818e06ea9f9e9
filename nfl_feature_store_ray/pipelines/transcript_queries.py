"""Transcript window-feature queries + their ANSI-SQL (DuckDB) oracles.

Each query runs the Ray-Data window engine over a transcript table derived
deterministically from ``{sf_dir}/events.parquet`` (see
``sources.transcripts``; the derivation is itself SQL-expressible, so every
query has an exact DuckDB oracle over the same parquet).

Float feature outputs are rounded to 6 decimals on BOTH sides so the
driver's order-insensitive value hash is robust to sub-ulp differences in
summation order between engines.

Reference parity map (SURVEY §2.6): w_lag_gap=W1/W7, w_rolling=W2/W6,
w_expanding≈W3 (unseeded), w_session_avg=W3 (seeded carryover chain),
w_ewma=W5, w_session=sessionization, w_rank_day=W9/A12, w_densify=W4,
w_asof_checkpoint=W8/J7.
"""

from __future__ import annotations

import numpy as np
from nfl_feature_store_ray.functions.rounding import round_half_away
import pandas as pd
import ray.data

from nfl_feature_store_ray.schemas import EWMA_ALPHA, SESSION_GAP_S
from nfl_feature_store_ray.sources.transcripts import (
    TRANSCRIPTS_FROM_EVENTS_SQL,
    transcripts_from_events,
)
from nfl_feature_store_ray.stages.bucketize import map_conv_buckets
from nfl_feature_store_ray.state.window_engine import window_features

_T = f"WITH t AS ({TRANSCRIPTS_FROM_EVENTS_SQL})"
_W = "PARTITION BY conv_id ORDER BY ts, _seq"



def _daily_cents_partial(df: pd.DataFrame) -> pd.DataFrame:
    """Per-batch (day, conv) EXACT integer-cent sums (order-independent;
    used by w_rank_day).

    NULL-aware (r03 ADVICE): NaN values are masked to 0 BEFORE the int64
    cast (an unmasked NaN wraps to INT64_MIN and poisons the group), and
    `nn` counts non-null values so an all-NULL (day, conv) group survives
    the partial with nn=0 — SQL GROUP BY keeps that group and SUM returns
    NULL for it; consumers turn nn==0 into NaN via _final_day_cents."""
    v = df["value"].to_numpy(dtype="float64")
    m = ~np.isnan(v)
    d = pd.DataFrame(
        {"day": df["ts"].astype("datetime64[us]").dt.floor("D"),
         "conv_id": df["conv_id"],
         "xc": np.where(m, np.rint(v * 100.0), 0.0).astype(np.int64),
         "nn": m.astype(np.int64)}
    )
    return d.groupby(["day", "conv_id"], as_index=False)[["xc", "nn"]].sum()


def _final_day_cents(g: pd.DataFrame):
    """Merge cents partials into one row per (day, conv) and derive the
    float view: xcf is the exact cent total as float64, NaN where the
    group had NO non-null values (== SQL SUM -> NULL)."""
    d = g.groupby(["day", "conv_id"], as_index=False)[["xc", "nn"]].sum()
    xcf = np.where(d["nn"].to_numpy() > 0, d["xc"].to_numpy(np.float64), np.nan)
    return d, xcf


def _round6(df: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
    df = df.copy()  # callers pass column slices; don't mutate views
    for c in cols:
        df[c] = round_half_away(df[c].astype("float64"), 6)
    return df


def _prune(ds: ray.data.Dataset, cols: list[str]) -> ray.data.Dataset:
    """Column-prune BEFORE a bucket shuffle — the text column dominates
    transcript row width, so operators that don't read it shouldn't ship
    it through the exchange."""
    return ds.map_batches(lambda df: df[cols], batch_format="pandas")


def _features(sf_dir: str, metrics=("value",)) -> ray.data.Dataset:
    ts = transcripts_from_events(sf_dir)
    return window_features(ts, metrics=metrics, assign_turn_idx=True)


def q_lag_gap(sf_dir: str):
    out = _features(sf_dir).map_batches(
        lambda df: _round6(
            df[["conv_id", "turn_idx", "last_value", "gap_s"]], ["last_value", "gap_s"]
        ),
        batch_format="pandas",
    )
    return out


SQL_LAG_GAP = f"""{_T}
SELECT conv_id, turn_idx,
       ROUND(LAG(value) OVER ({_W}), 6) AS last_value,
       ROUND(CAST(epoch(ts - LAG(ts) OVER ({_W})) AS DOUBLE), 6) AS gap_s
FROM t
"""


def q_rolling(sf_dir: str):
    return _features(sf_dir).map_batches(
        lambda df: _round6(
            df[["conv_id", "turn_idx", "form_value", "roll10_tool_rate"]],
            ["form_value", "roll10_tool_rate"],
        ),
        batch_format="pandas",
    )


SQL_ROLLING = f"""{_T}
SELECT conv_id, turn_idx,
       ROUND(AVG(value) OVER ({_W} ROWS BETWEEN 3 PRECEDING AND 1 PRECEDING), 6) AS form_value,
       ROUND(AVG(CASE WHEN role = 'tool' THEN 1.0 ELSE 0.0 END)
             OVER ({_W} ROWS BETWEEN 10 PRECEDING AND 1 PRECEDING), 6) AS roll10_tool_rate
FROM t
"""


def q_expanding(sf_dir: str):
    return _features(sf_dir).map_batches(
        lambda df: _round6(df[["conv_id", "turn_idx", "avg_value"]], ["avg_value"]),
        batch_format="pandas",
    )


# Expanding mean via exact integer cents (input contract: 2-decimal values,
# schemas.QUANT_SCALE): SUM over exact integers is order-independent, so the
# oracle and the engine produce bit-identical doubles even at 5e-7 rounding
# ties — plain AVG(value) here differs from any cumsum engine by 1 ulp at
# power-of-two counts (segment-tree vs sequential summation).
SQL_EXPANDING = f"""{_T}
SELECT conv_id, turn_idx,
       ROUND(SUM(ROUND(value * 100)) OVER ({_W} ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
             / (100.0 * COUNT(value) OVER ({_W} ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)),
             6) AS avg_value
FROM t
"""


def q_ewma(sf_dir: str):
    return _features(sf_dir).map_batches(
        lambda df: _round6(df[["conv_id", "turn_idx", "ewma_value"]], ["ewma_value"]),
        batch_format="pandas",
    )


# Segment-renormalized closed form of the recursive EWMA (adjust=False) —
# overflow-safe at ANY conversation length (functions.sqlgen docstring;
# the naive (1/(1-a))^k form hits inf around k ~ 3500). NULL-value
# semantics (round 5): the EWMA runs over the NON-NULL subsequence (the
# engine's ignore_na=True), so the closed form gets a dense index over
# value-non-null rows only and each row reads the most recent non-null
# row's EWMA via LAG(y IGNORE NULLS).
from nfl_feature_store_ray.functions.sqlgen import ewma_closed_ctes  # noqa: E402

SQL_EWMA = f"""{_T},
tnn AS (
  SELECT conv_id, turn_idx, value,
         ROW_NUMBER() OVER (PARTITION BY conv_id ORDER BY turn_idx) - 1 AS nridx
  FROM t WHERE value IS NOT NULL
),
{ewma_closed_ctes("tnn", ["conv_id"], "nridx", "value", "yew", "y", EWMA_ALPHA)},
j AS (
  SELECT t.conv_id, t.turn_idx, yew.y
  FROM t
  LEFT JOIN tnn USING (conv_id, turn_idx)
  LEFT JOIN yew USING (conv_id, nridx)
)
SELECT conv_id, turn_idx,
       ROUND(LAG(y IGNORE NULLS) OVER (PARTITION BY conv_id ORDER BY turn_idx), 6)
         AS ewma_value
FROM j
"""


def q_session(sf_dir: str):
    def sel(df: pd.DataFrame) -> pd.DataFrame:
        return df[["conv_id", "turn_idx", "session_id", "session_turn_idx"]]

    return _features(sf_dir).map_batches(sel, batch_format="pandas")


SQL_SESSION = f"""{_T},
g AS (
  SELECT conv_id, turn_idx, ts, _seq,
         CASE WHEN epoch(ts - LAG(ts) OVER ({_W})) > {SESSION_GAP_S} THEN 1 ELSE 0 END AS brk
  FROM t
),
s AS (
  SELECT conv_id, turn_idx,
         CAST(SUM(brk) OVER ({_W}) AS INTEGER) AS session_id
  FROM g
)
SELECT conv_id, turn_idx, session_id,
       CAST(ROW_NUMBER() OVER (PARTITION BY conv_id, session_id ORDER BY turn_idx) - 1 AS INTEGER)
         AS session_turn_idx
FROM s
"""


def q_session_avg(sf_dir: str):
    return _features(sf_dir).map_batches(
        lambda df: _round6(
            df[["conv_id", "turn_idx", "session_avg_value"]], ["session_avg_value"]
        ),
        batch_format="pandas",
    )


# Cents-exact like SQL_EXPANDING: vc = ROUND(value*100) is an exact integer
# in float64, so every SUM below is order-independent and the divisions
# produce the same doubles as the engine's scaled-integer kernel.
SQL_SESSION_AVG = f"""{_T},
b AS (
  SELECT conv_id, turn_idx, ROUND(value * 100) AS vc, ts, _seq,
         CASE WHEN epoch(ts - LAG(ts) OVER ({_W})) > {SESSION_GAP_S} THEN 1 ELSE 0 END AS brk
  FROM t
),
s AS (SELECT *, SUM(brk) OVER ({_W}) AS sid FROM b),
w AS (
  SELECT *,
         SUM(vc) OVER (PARTITION BY conv_id, sid ORDER BY ts, _seq
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS cs,
         COUNT(vc) OVER (PARTITION BY conv_id, sid ORDER BY ts, _seq
                         ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS cnt
  FROM s
),
agg AS (
  -- NULL-value semantics (round 5): totals/counts skip NULLs, the seed is
  -- the session's last NON-NULL raw value (NULL if the session had none),
  -- and an all-NULL session contributes 0 to the next session's sum
  SELECT conv_id, sid, COALESCE(SUM(vc), 0) AS total, COUNT(vc) AS n,
         LAST(vc ORDER BY ts, _seq) FILTER (vc IS NOT NULL) AS lastv
  FROM s GROUP BY conv_id, sid
),
agg2 AS (
  SELECT conv_id, sid,
         LAG(lastv) OVER (PARTITION BY conv_id ORDER BY sid) AS seed,
         CASE WHEN sid = 0 THEN CASE WHEN n > 0 THEN total / (100.0 * n) END
              ELSE (LAG(lastv) OVER (PARTITION BY conv_id ORDER BY sid) + total)
                   / (100.0 * (1 + n))
         END AS final_exp
  FROM agg
),
agg3 AS (
  SELECT conv_id, sid, seed,
         LAG(final_exp) OVER (PARTITION BY conv_id ORDER BY sid) AS prev_final
  FROM agg2
)
SELECT w.conv_id, w.turn_idx,
       ROUND(CASE WHEN w.sid = 0
                  THEN CASE WHEN w.cnt > 0 THEN w.cs / (100.0 * w.cnt) END
                  ELSE CASE WHEN w.cnt > 0 THEN (a3.seed + w.cs) / (100.0 * (1 + w.cnt))
                            ELSE a3.prev_final END
             END, 6) AS session_avg_value
FROM w JOIN agg3 a3 ON w.conv_id = a3.conv_id AND w.sid = a3.sid
"""


def q_role_counts(sf_dir: str):
    def sel(df: pd.DataFrame) -> pd.DataFrame:
        out = df[
            [
                "conv_id",
                "turn_idx",
                "n_prior_user",
                "n_prior_assistant",
                "n_prior_tool",
                "turns_since_tool",
                "secs_since_tool",
            ]
        ]
        return _round6(out, ["turns_since_tool", "secs_since_tool"])

    return _features(sf_dir).map_batches(sel, batch_format="pandas")


SQL_ROLE_COUNTS = f"""{_T}
SELECT conv_id, turn_idx,
       COUNT(CASE WHEN role = 'user' THEN 1 END)
         OVER ({_W} ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS n_prior_user,
       COUNT(CASE WHEN role = 'assistant' THEN 1 END)
         OVER ({_W} ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS n_prior_assistant,
       COUNT(CASE WHEN role = 'tool' THEN 1 END)
         OVER ({_W} ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS n_prior_tool,
       ROUND(CAST(turn_idx - MAX(CASE WHEN role = 'tool' THEN turn_idx END)
         OVER ({_W} ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS DOUBLE), 6)
         AS turns_since_tool,
       ROUND(CAST(epoch(ts - MAX(CASE WHEN role = 'tool' THEN ts END)
         OVER ({_W} ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)) AS DOUBLE), 6)
         AS secs_since_tool
FROM t
"""


def q_rank_day(sf_dir: str):
    """Rank conversations within each day by their daily value sum (W9/A12).

    Tie-break pinned: ROW_NUMBER over (rounded sum DESC, conv_id ASC) — the
    reference's ranks are frame-order-dependent (SURVEY §0 probe 7); the
    rebuild pins a deterministic sort instead.
    """
    ts = transcripts_from_events(sf_dir)

    def bucket_rank(g: pd.DataFrame) -> pd.DataFrame:
        # whole days per bucket: final-sum the partials, then rank per day.
        # Exact integer-cent ranking key (r03 ADVICE: a raw-float sum at a
        # 6dp rounding boundary could flip a rank between engine and SQL);
        # pandas na_position='last' matches DuckDB NULLS LAST both ways.
        d, xcf = _final_day_cents(g)
        d["day_value"] = round_half_away(xcf / 100.0, 6)
        d = d.sort_values(
            ["day", "day_value", "conv_id"], ascending=[True, False, True], kind="mergesort"
        )
        d["day_rank"] = (d.groupby("day").cumcount() + 1).astype("int32")
        d["day"] = d["day"].astype("datetime64[us]")
        return d[["day", "conv_id", "day_value", "day_rank"]]

    # per-batch partial aggregation, then ONE bucket shuffle on the day key
    # (W9 needs all conversations' values per time bucket co-located)
    partials = ts.map_batches(_daily_cents_partial, batch_format="pandas")
    return map_conv_buckets(
        partials, bucket_rank, key="day", sort_cols=["day", "conv_id"], num_buckets=32
    )


SQL_RANK_DAY = f"""{_T},
daily AS (
  SELECT date_trunc('day', ts) AS day, conv_id,
         ROUND(SUM(ROUND(value * 100)) / 100.0, 6) AS day_value
  FROM t GROUP BY 1, 2
)
SELECT day, conv_id, day_value,
       CAST(ROW_NUMBER() OVER (PARTITION BY day ORDER BY day_value DESC, conv_id ASC) AS INTEGER)
         AS day_rank
FROM daily
"""


def _daily_cents(df: pd.DataFrame) -> pd.DataFrame:
    """Per-(conv, day) value sums in exact integer cents (QUANT_SCALE).

    Float cents so NaN values are skipped like SQL SUM; min_count keeps an
    ALL-NULL day's sum NaN (SQL NULL) — downstream carry-fill then treats
    it exactly like a missing grid day (LAST_VALUE IGNORE NULLS)."""
    df = df.assign(
        day=df["ts"].astype("datetime64[us]").dt.floor("D"),
        vc=np.rint(df["value"].to_numpy() * 100.0),
    )
    return df.groupby(["conv_id", "day"], as_index=False).agg(
        day_c=("vc", lambda s: s.sum(min_count=1))
    )


def _dense_day_grid(daily: pd.DataFrame, lo: pd.Series, hi: pd.Series) -> pd.DataFrame:
    """Vectorized dense (conv_id, day) grid between per-conv [lo, hi] days.

    No per-conversation Python loop: one np.repeat + offset arange builds
    every conversation's span at once; output rows are bounded by each
    conversation's OWN activity span (not the global range — SURVEY §0
    probe 4 bounds the grid per epoch).
    """
    n_days = ((hi - lo).dt.days + 1).to_numpy()
    conv_rep = np.repeat(lo.index.to_numpy(), n_days)
    total = int(n_days.sum())
    starts = np.concatenate([[0], np.cumsum(n_days)[:-1]])
    offs = np.arange(total) - np.repeat(starts, n_days)
    day = np.repeat(lo.to_numpy().astype("datetime64[D]"), n_days) + offs.astype(
        "timedelta64[D]"
    )
    grid = pd.DataFrame({"conv_id": conv_rep, "day": day.astype("datetime64[us]")})
    daily = daily.assign(day=daily["day"].astype("datetime64[us]"))
    return grid.merge(daily, on=["conv_id", "day"], how="left")


def q_densify(sf_dir: str):
    """W4: dense per-conversation day grid with carry-fill + expanding mean.

    Analogue of the reference's weekly-grid densification with bye-week
    fill (SURVEY §0 probe 4): missing (conv, day) cells carry the last
    observed daily value; the expanding mean runs over the dense grid,
    shifted one day. The grid is bounded by each conversation's OWN
    [first, last] active day — output rows stay O(activity span), not
    O(n_convs x global days) — and all sums are cents-exact.
    """
    ts = transcripts_from_events(sf_dir)

    def densify_bucket(df: pd.DataFrame) -> pd.DataFrame:
        daily = _daily_cents(df)
        span = daily.groupby("conv_id")["day"].agg(lo="min", hi="max")
        g = _dense_day_grid(daily, span["lo"], span["hi"])
        conv = g["conv_id"]
        g["filled_c"] = g["day_c"].groupby(conv, sort=False).ffill()
        prev = g["filled_c"].groupby(conv, sort=False).shift()
        cnt = prev.notna().groupby(conv, sort=False).cumsum().astype("float64")
        csum = prev.fillna(0.0).groupby(conv, sort=False).cumsum()
        res = pd.DataFrame(
            {
                "conv_id": conv,
                "day": g["day"],
                "day_value": g["day_c"] / 100.0,
                "filled_value": g["filled_c"] / 100.0,
                "grid_avg": (csum / (100.0 * cnt)).where(cnt > 0),
            }
        )
        return _round6(res, ["day_value", "filled_value", "grid_avg"])

    return map_conv_buckets(_prune(ts, ["conv_id", "ts", "_seq", "value"]), densify_bucket, key="conv_id", sort_cols=["conv_id", "ts", "_seq"])


SQL_DENSIFY = f"""{_T},
daily AS (
  SELECT conv_id, date_trunc('day', ts) AS day, SUM(ROUND(value * 100)) AS day_c
  FROM t GROUP BY 1, 2
),
span AS (SELECT conv_id, min(day) AS lo, max(day) AS hi FROM daily GROUP BY 1),
grid AS (
  SELECT conv_id, unnest(generate_series(lo, hi, INTERVAL 1 DAY)) AS day FROM span
),
g2 AS (
  SELECT g.conv_id, g.day, d.day_c
  FROM grid g LEFT JOIN daily d ON d.conv_id = g.conv_id AND d.day = g.day
),
filled AS (
  SELECT conv_id, day, day_c,
         LAST_VALUE(day_c IGNORE NULLS)
           OVER (PARTITION BY conv_id ORDER BY day) AS filled_c
  FROM g2
)
SELECT conv_id, day, ROUND(day_c / 100.0, 6) AS day_value,
       ROUND(filled_c / 100.0, 6) AS filled_value,
       ROUND(SUM(filled_c) OVER (PARTITION BY conv_id ORDER BY day
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
             / (100.0 * COUNT(filled_c) OVER (PARTITION BY conv_id ORDER BY day
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)), 6) AS grid_avg
FROM filled
"""


def q_asof_checkpoint(sf_dir: str):
    """W8/J7: backfill each turn with the latest strictly-earlier checkpoint.

    Checkpoints = every 10th turn of a conversation carrying the inclusive
    running mean of `value`; the as-of join is strict (ts' < ts), i.e. a
    turn landing exactly on a checkpoint sees the PREVIOUS one.

    Both streams are per-conversation, so the whole operator is ONE bucket
    shuffle: the sorted bucket derives the checkpoint stream and performs
    the strict backward ``merge_asof`` in place (self-as-of). The generic
    two-dataset ``state.asof.asof_join`` covers the cross-table case.
    """
    ts = transcripts_from_events(sf_dir)

    def bucket_asof(df: pd.DataFrame) -> pd.DataFrame:
        cnt = df.groupby("conv_id", sort=False).cumcount().astype("float64")
        # cents-exact inclusive running mean (order-independent;
        # QUANT_SCALE). NULL-aware: masked running sum == SQL SUM's
        # NULL-skip (pandas cumsum would pin NaN AT the null row where SQL
        # still yields the running total), and a prefix with NO non-null
        # values yet is NULL (SQL SUM over zero non-null rows).
        v = df["value"].to_numpy(dtype="float64")
        mn = ~np.isnan(v)
        vc = pd.Series(np.where(mn, np.rint(v * 100.0), 0.0), index=df.index)
        run = vc.groupby(df["conv_id"], sort=False).cumsum()
        run_nn = (
            pd.Series(mn.astype("float64"), index=df.index)
            .groupby(df["conv_id"], sort=False).cumsum()
        )
        incl = pd.Series(
            np.where(run_nn.to_numpy() > 0,
                     run.to_numpy() / (100.0 * (cnt.to_numpy() + 1.0)), np.nan),
            index=df.index,
        )
        df = df.assign(turn_idx=cnt.astype("int32"), ckpt_value=incl)
        ck = df.loc[df["turn_idx"] % 10 == 0, ["conv_id", "ts", "ckpt_value"]]
        turns = df[["conv_id", "turn_idx", "ts"]]
        out = pd.merge_asof(
            turns.sort_values(["ts", "conv_id"], kind="mergesort"),
            ck.sort_values(["ts", "conv_id"], kind="mergesort"),
            on="ts",
            by="conv_id",
            allow_exact_matches=False,
            direction="backward",
        )
        out = out.rename(columns={"ckpt_value": "asof_ckpt"})
        return _round6(out[["conv_id", "turn_idx", "asof_ckpt"]], ["asof_ckpt"])

    return map_conv_buckets(_prune(ts, ["conv_id", "ts", "_seq", "value"]), bucket_asof, key="conv_id", sort_cols=["conv_id", "ts", "_seq"])


SQL_ASOF_CHECKPOINT = f"""{_T},
f AS (
  SELECT conv_id, turn_idx, ts,
         SUM(ROUND(value * 100)) OVER ({_W} ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
           / (100.0 * COUNT(*) OVER ({_W} ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW))
           AS incl_avg
  FROM t
),
ck AS (SELECT conv_id, ts, incl_avg AS ckpt_value FROM f WHERE turn_idx % 10 = 0)
SELECT f.conv_id, f.turn_idx, ROUND(ck.ckpt_value, 6) AS asof_ckpt
FROM f ASOF LEFT JOIN ck ON f.conv_id = ck.conv_id AND f.ts > ck.ts
"""


def q_rank_composite(sf_dir: str):
    """A12's full rank semantics (SURVEY §0 probe 7): per day, ascending
    rank for a lower-is-better metric (error-turn count), descending for a
    higher-is-better one (value sum), plus the composite = rank of the
    mean of sub-ranks, re-ranked — ties pinned by conv_id everywhere."""
    ts = transcripts_from_events(sf_dir)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # exact integer-cent + NULL-masked partial (r03 ADVICE — the
        # ranking key must be order-independent and NaN-safe)
        v = df["value"].to_numpy(dtype="float64")
        m = ~np.isnan(v)
        d = pd.DataFrame(
            {"day": df["ts"].dt.floor("D"), "conv_id": df["conv_id"],
             "xc": np.where(m, np.rint(v * 100.0), 0.0).astype(np.int64),
             "nn": m.astype(np.int64),
             "n_err": (df["role"] == "tool").to_numpy().astype(np.int64)}
        )
        return d.groupby(["day", "conv_id"], as_index=False).sum()

    def bucket_rank(g: pd.DataFrame) -> pd.DataFrame:
        d = g.groupby(["day", "conv_id"], as_index=False).sum()
        xcf = np.where(d["nn"].to_numpy() > 0, d["xc"].to_numpy(np.float64), np.nan)
        d["day_value"] = round_half_away(xcf / 100.0, 6)
        d["n_err"] = d["n_err"].astype("int64")
        d = d.drop(columns=["xc", "nn"])
        # value: higher is better (desc); errors: lower is better (asc)
        d = d.sort_values(["day", "day_value", "conv_id"], ascending=[True, False, True],
                          kind="mergesort")
        d["value_rank"] = (d.groupby("day").cumcount() + 1).astype("int32")
        d = d.sort_values(["day", "n_err", "conv_id"], ascending=[True, True, True],
                          kind="mergesort")
        d["err_rank"] = (d.groupby("day").cumcount() + 1).astype("int32")
        d["_mean_rank"] = (d["value_rank"] + d["err_rank"]) / 2.0
        d = d.sort_values(["day", "_mean_rank", "conv_id"], ascending=[True, True, True],
                          kind="mergesort")
        d["net_rank"] = (d.groupby("day").cumcount() + 1).astype("int32")
        d["day"] = d["day"].astype("datetime64[us]")
        return d.drop(columns=["_mean_rank"]).sort_values(["day", "conv_id"]).reset_index(drop=True)

    partials = ts.map_batches(partial, batch_format="pandas")
    return map_conv_buckets(
        partials, bucket_rank, key="day", sort_cols=["day", "conv_id"], num_buckets=32
    )


SQL_RANK_COMPOSITE = f"""{_T},
daily AS (
  SELECT date_trunc('day', ts) AS day, conv_id,
         ROUND(SUM(ROUND(value * 100)) / 100.0, 6) AS day_value,
         CAST(SUM(CASE WHEN role = 'tool' THEN 1 ELSE 0 END) AS BIGINT) AS n_err
  FROM t GROUP BY 1, 2
),
r AS (
  SELECT *,
    CAST(ROW_NUMBER() OVER (PARTITION BY day ORDER BY day_value DESC, conv_id ASC) AS INTEGER)
      AS value_rank,
    CAST(ROW_NUMBER() OVER (PARTITION BY day ORDER BY n_err ASC, conv_id ASC) AS INTEGER)
      AS err_rank
  FROM daily
)
SELECT day, conv_id, day_value, n_err, value_rank, err_rank,
  CAST(ROW_NUMBER() OVER (PARTITION BY day
       ORDER BY (value_rank + err_rank) / 2.0 ASC, conv_id ASC) AS INTEGER) AS net_rank
FROM r
"""


QUERIES = {
    "w_rank_composite": q_rank_composite,
    "w_lag_gap": q_lag_gap,
    "w_rolling": q_rolling,
    "w_expanding": q_expanding,
    "w_ewma": q_ewma,
    "w_session": q_session,
    "w_session_avg": q_session_avg,
    "w_role_counts": q_role_counts,
    "w_rank_day": q_rank_day,
    "w_densify": q_densify,
    "w_asof_checkpoint": q_asof_checkpoint,
}

ORACLES = {
    "w_rank_composite": SQL_RANK_COMPOSITE,
    "w_lag_gap": SQL_LAG_GAP,
    "w_rolling": SQL_ROLLING,
    "w_expanding": SQL_EXPANDING,
    "w_ewma": SQL_EWMA,
    "w_session": SQL_SESSION,
    "w_session_avg": SQL_SESSION_AVG,
    "w_role_counts": SQL_ROLE_COUNTS,
    "w_rank_day": SQL_RANK_DAY,
    "w_densify": SQL_DENSIFY,
    "w_asof_checkpoint": SQL_ASOF_CHECKPOINT,
}


def q_lead_label(sf_dir: str):
    """LEAD (next-turn) columns — LABEL construction, not features.

    The engine's features are strictly backward-looking (zero leakage);
    training targets legitimately look one step FORWARD. Kept in a
    separate, clearly-named pipeline so the leakage property test can
    exclude it by construction: `next_value` / `next_role` at turn k are
    the raw values of turn k+1 (null at the conversation's last turn).
    """
    ts = transcripts_from_events(sf_dir)

    def bucket_fn(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("conv_id", sort=False)
        out = df.assign(
            turn_idx=g.cumcount().astype("int32"),
            next_value=round_half_away(g["value"].shift(-1).astype("float64"), 6),
            next_role=g["role"].shift(-1).astype(object).where(lambda s: s.notna(), None),
        )
        return out[["conv_id", "turn_idx", "next_value", "next_role"]]

    return map_conv_buckets(
        _prune(ts, ["conv_id", "ts", "_seq", "role", "value"]), bucket_fn, key="conv_id", sort_cols=["conv_id", "ts", "_seq"]
    )


SQL_LEAD_LABEL = f"""{_T}
SELECT conv_id, turn_idx,
       ROUND(LEAD(value) OVER ({_W}), 6) AS next_value,
       LEAD(role) OVER ({_W}) AS next_role
FROM t
"""

QUERIES["w_lead_label"] = q_lead_label
ORACLES["w_lead_label"] = SQL_LEAD_LABEL


_PHASES = ("user", "assistant")
_PHASE_COLS = [
    f"{fam}_value_{p}" for p in _PHASES for fam in ("last", "form", "avg", "ewma")
]


def q_phase_windows(sf_dir: str):
    """Per-phase (role-split) window families — the reference's
    offense/defense fold (`event_feature_store.md:12-18`, SURVEY §1.1):
    every metric windowed over each role's OWN subsequence, evaluated
    point-in-time at EVERY turn (last / rolling-3 / expanding / EWMA per
    role, strictly-prior)."""
    ts = transcripts_from_events(sf_dir)
    feats = window_features(ts, metrics=("value",), assign_turn_idx=True, phases=_PHASES)
    return feats.map_batches(
        lambda df: _round6(df[["conv_id", "turn_idx"] + _PHASE_COLS], _PHASE_COLS),
        batch_format="pandas",
    )


def _phase_select(p: str) -> str:
    return f"""
       ROUND(LAST_VALUE(CASE WHEN role = '{p}' THEN value END IGNORE NULLS)
             OVER pw, 6) AS last_value_{p},
       ROUND(LAST_VALUE(CASE WHEN role = '{p}' THEN incl_form END IGNORE NULLS)
             OVER pw, 6) AS form_value_{p},
       ROUND(LAST_VALUE(CASE WHEN role = '{p}' THEN incl_avg END IGNORE NULLS)
             OVER pw, 6) AS avg_value_{p},
       ROUND(LAST_VALUE(CASE WHEN role = '{p}' THEN incl_ewma END IGNORE NULLS)
             OVER pw, 6) AS ewma_value_{p}"""


# Inclusive per-(conv, role) aggregates (cents-exact expanding mean, rolling
# FORM_WINDOW, closed-form EWMA over the role's own index), propagated to
# every turn via LAST_VALUE IGNORE NULLS over strictly-prior rows.
SQL_PHASE_WINDOWS = f"""{_T},
w AS (
  -- NULL-value semantics (round 5): COUNT(value)/SUM skip NULLs; the
  -- EWMA's dense index runs over the role's NON-NULL rows only, so the
  -- closed form reproduces the engine's ignore_na recursion and null
  -- rows carry NULL incl_ewma (skipped by LAST_VALUE IGNORE NULLS below)
  SELECT conv_id, turn_idx, role, ts, _seq, value,
         SUM(ROUND(value * 100)) OVER pr / (100.0 * COUNT(value) OVER pr) AS incl_avg,
         AVG(value) OVER (PARTITION BY conv_id, role ORDER BY ts, _seq
                          ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS incl_form,
         CASE WHEN value IS NOT NULL THEN
           ROW_NUMBER() OVER (PARTITION BY conv_id, role, value IS NOT NULL
                              ORDER BY ts, _seq) - 1
         END AS ridx
  FROM t
  WINDOW pr AS (PARTITION BY conv_id, role ORDER BY ts, _seq
                ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
),
wnn AS (SELECT conv_id, role, ridx, value FROM w WHERE value IS NOT NULL),
{ewma_closed_ctes("wnn", ["conv_id", "role"], "ridx", "value", "pew", "incl_ewma",
                  EWMA_ALPHA)},
cc AS (
  SELECT w.*, pew.incl_ewma FROM w LEFT JOIN pew USING (conv_id, role, ridx)
)
SELECT conv_id, turn_idx,{",".join(_phase_select(p) for p in _PHASES)}
FROM cc
WINDOW pw AS ({_W} ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
"""

QUERIES["w_phase_windows"] = q_phase_windows
ORACLES["w_phase_windows"] = SQL_PHASE_WINDOWS


def q_densify_seeded(sf_dir: str):
    """W4 FULL semantics (SURVEY §0 probe 4): epoch-bounded dense grid with
    PRIOR-EPOCH seed fill. Epoch = calendar month of activity (the
    transcript analogue of the reference's season): each active (conv,
    month) gets a dense day grid over the whole month; missing days carry
    the last observed value WITHIN the month; leading days before the
    month's first observation carry the PRIOR active month's final filled
    value (cross-epoch carryover — reference: bye weeks <- last season's
    final game). First-ever epoch's leading days stay null."""
    ts = transcripts_from_events(sf_dir)

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        daily = _daily_cents(df)
        daily["month"] = (
            daily["day"].to_numpy().astype("datetime64[M]").astype("datetime64[us]")
        )
        months = (
            daily[["conv_id", "month"]]
            .drop_duplicates()
            .sort_values(["conv_id", "month"], kind="mergesort")
            .reset_index(drop=True)
        )
        mo = months["month"].to_numpy().astype("datetime64[M]")
        start_d = mo.astype("datetime64[D]")
        n_days = ((mo + np.timedelta64(1, "M")).astype("datetime64[D]") - start_d).astype(
            "int64"
        )
        total = int(n_days.sum())
        starts = np.concatenate([[0], np.cumsum(n_days)[:-1]])
        offs = np.arange(total) - np.repeat(starts, n_days)
        grid = pd.DataFrame(
            {
                "conv_id": np.repeat(months["conv_id"].to_numpy(), n_days),
                "month": np.repeat(months["month"].to_numpy(), n_days),
                "day": (
                    np.repeat(start_d, n_days) + offs.astype("timedelta64[D]")
                ).astype("datetime64[us]"),
            }
        )
        g = grid.merge(daily[["conv_id", "day", "day_c"]], on=["conv_id", "day"], how="left")
        gk = [g["conv_id"], g["month"]]
        g["filled_in"] = g["day_c"].groupby(gk, sort=False).ffill()
        mf = (
            g.groupby(["conv_id", "month"], as_index=False)["filled_in"]
            .last()
            .rename(columns={"filled_in": "month_final"})
        )
        mf["prev_final"] = mf.groupby("conv_id", sort=False)["month_final"].shift()
        g = g.merge(mf[["conv_id", "month", "prev_final"]], on=["conv_id", "month"], how="left")
        filled = g["filled_in"].fillna(g["prev_final"])
        res = pd.DataFrame(
            {
                "conv_id": g["conv_id"],
                "month": g["month"],
                "day": g["day"],
                "day_value": g["day_c"] / 100.0,
                "filled_value": filled / 100.0,
            }
        )
        return _round6(res, ["day_value", "filled_value"])

    return map_conv_buckets(_prune(ts, ["conv_id", "ts", "_seq", "value"]), bucket, key="conv_id", sort_cols=["conv_id", "ts", "_seq"])


SQL_DENSIFY_SEEDED = f"""{_T},
daily AS (
  SELECT conv_id, date_trunc('day', ts) AS day, SUM(ROUND(value * 100)) AS day_c
  FROM t GROUP BY 1, 2
),
months AS (SELECT conv_id, date_trunc('month', day) AS month FROM daily GROUP BY 1, 2),
grid AS (
  SELECT conv_id, month,
         unnest(generate_series(month, month + INTERVAL 1 MONTH - INTERVAL 1 DAY,
                                INTERVAL 1 DAY)) AS day
  FROM months
),
g2 AS (
  SELECT g.conv_id, g.month, g.day, d.day_c
  FROM grid g LEFT JOIN daily d ON d.conv_id = g.conv_id AND d.day = g.day
),
fin AS (
  SELECT conv_id, month, day, day_c,
         LAST_VALUE(day_c IGNORE NULLS)
           OVER (PARTITION BY conv_id, month ORDER BY day) AS filled_in
  FROM g2
),
mf AS (
  SELECT conv_id, month, LAST(filled_in ORDER BY day) AS month_final
  FROM fin GROUP BY 1, 2
),
pv AS (
  SELECT conv_id, month,
         LAG(month_final) OVER (PARTITION BY conv_id ORDER BY month) AS prev_final
  FROM mf
)
SELECT f.conv_id, f.month, f.day,
       ROUND(f.day_c / 100.0, 6) AS day_value,
       ROUND(COALESCE(f.filled_in, p.prev_final) / 100.0, 6) AS filled_value
FROM fin f JOIN pv p ON f.conv_id = p.conv_id AND f.month = p.month
"""

QUERIES["w_densify_seeded"] = q_densify_seeded
ORACLES["w_densify_seeded"] = SQL_DENSIFY_SEEDED


def q_label_split(sf_dir: str):
    """M14/M15 + O3: label-availability DAG split -> trim -> union.

    Reference shape (`event_regular_season_game.py:43-72`): rows whose
    outcome label exists flow to the TRAIN branch; future rows (no label
    yet) flow to the INFERENCE branch with a null label; the branches are
    unioned back into one frame. Boundary trim (M14): the train branch
    drops each conversation's first turn (no prior-feature context), the
    reference's week-1 trim.
    """
    ts = transcripts_from_events(sf_dir)

    def bucket_fn(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("conv_id", sort=False)
        df = df.assign(
            turn_idx=g.cumcount().astype("int32"),
            last_value=round_half_away(g["value"].shift(1).astype("float64"), 6),
            next_value=round_half_away(g["value"].shift(-1).astype("float64"), 6),
        )
        train = df[df["next_value"].notna() & (df["turn_idx"] > 0)].assign(branch="train")
        infer = df[df["next_value"].isna()].assign(branch="inference")
        out = pd.concat([train, infer], ignore_index=True)
        return out[["conv_id", "turn_idx", "last_value", "next_value", "branch"]]

    return map_conv_buckets(
        _prune(ts, ["conv_id", "ts", "_seq", "value"]), bucket_fn, key="conv_id", sort_cols=["conv_id", "ts", "_seq"]
    )


SQL_LABEL_SPLIT = f"""{_T},
base AS (
  SELECT conv_id, turn_idx,
         ROUND(LAG(value) OVER ({_W}), 6) AS last_value,
         ROUND(LEAD(value) OVER ({_W}), 6) AS next_value
  FROM t
)
SELECT conv_id, turn_idx, last_value, next_value, 'train' AS branch
FROM base WHERE next_value IS NOT NULL AND turn_idx > 0
UNION ALL
SELECT conv_id, turn_idx, last_value, NULL AS next_value, 'inference' AS branch
FROM base WHERE next_value IS NULL
"""

QUERIES["w_label_split"] = q_label_split
ORACLES["w_label_split"] = SQL_LABEL_SPLIT


def q_distinct_convs_day(sf_dir: str):
    """COUNT(DISTINCT) at scale: per-batch PARTIAL distinct (each batch
    ships at most one (day, conv) row per pair it saw), then one day-keyed
    shuffle where the bucket finishes the distinct and counts — never a
    row-level all-to-all of the raw turns."""
    ts = transcripts_from_events(sf_dir)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(day=df["ts"].astype("datetime64[us]").dt.floor("D"))
        return df[["day", "conv_id"]].drop_duplicates()

    def final(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.drop_duplicates(["day", "conv_id"])
            .groupby("day", as_index=False)
            .agg(n_convs=("conv_id", "size"))
        )
        out["n_convs"] = out["n_convs"].astype("int64")
        out["day"] = out["day"].astype("datetime64[us]")
        return out

    partials = ts.map_batches(partial, batch_format="pandas")
    return map_conv_buckets(partials, final, key="day", sort_cols=["day", "conv_id"],
                            num_buckets=32)


SQL_DISTINCT_CONVS_DAY = f"""{_T}
SELECT date_trunc('day', ts) AS day, COUNT(DISTINCT conv_id) AS n_convs
FROM t GROUP BY 1
"""

QUERIES["distinct_convs_day"] = q_distinct_convs_day
ORACLES["distinct_convs_day"] = SQL_DISTINCT_CONVS_DAY


def q_asof_daily(sf_dir: str):
    """GENERIC two-dataset as-of join through the driver gate (J7/W8 —
    w_asof_checkpoint covers only the self-as-of case): every turn is
    backfilled with the conversation's latest COMPLETE-day value summary.
    Right side = per-(conv, day) cents-exact sums stamped available at the
    NEXT day's start; the strict backward join (t' < t) then guarantees a
    turn only ever sees fully-closed days — zero leakage by construction.
    """
    from nfl_feature_store_ray.state.asof import asof_join

    left, right = _asof_daily_sides(sf_dir)
    joined = asof_join(left, right, key="conv_id", on="ts", allow_exact_matches=False)
    return joined.map_batches(
        lambda df: df[["conv_id", "_seq", "day_value"]].rename(
            columns={"day_value": "prev_day_value"}
        ),
        batch_format="pandas",
    )


def _asof_daily_sides(sf_dir: str):
    """Shared setup for ``asof_daily`` and ``asof_tolerance``: ONE pruned
    pass over the transcript table feeds BOTH join sides. The 4-column base
    is materialized once (asof_join's schema() probe + the union would
    otherwise each re-execute the lazy derivation); the bounded right side
    (one row per (conv, day)) aggregates FROM that same base instead of a
    second full read+derive of the events table."""
    ts = transcripts_from_events(sf_dir)
    base = ts.map_batches(
        lambda df: df[["conv_id", "_seq", "ts", "value"]], batch_format="pandas"
    ).materialize()

    left = base.map_batches(
        lambda df: df[["conv_id", "_seq", "ts"]], batch_format="pandas"
    )

    def daily_partial(df: pd.DataFrame) -> pd.DataFrame:
        # min_count keeps an all-NULL (conv, day) summary NULL (SQL SUM),
        # so the as-of backfill carries a NULL summary — not a spurious 0
        df = df.assign(
            day=df["ts"].astype("datetime64[us]").dt.floor("D"),
            vc=np.rint(df["value"].to_numpy() * 100.0),
        )
        return df.groupby(["conv_id", "day"], as_index=False).agg(
            day_c=("vc", lambda s: s.sum(min_count=1))
        )

    def daily_final(g: pd.DataFrame) -> pd.DataFrame:
        d = g.groupby(["conv_id", "day"], as_index=False).agg(
            day_c=("day_c", lambda s: s.sum(min_count=1))
        )
        return pd.DataFrame(
            {
                "conv_id": d["conv_id"],
                # summary becomes available when its day CLOSES
                "ts": (d["day"] + pd.Timedelta(days=1)).astype("datetime64[us]"),
                "day_value": round_half_away(d["day_c"] / 100.0, 6),
            }
        )

    right = map_conv_buckets(
        base.map_batches(daily_partial, batch_format="pandas"),
        daily_final,
        key="conv_id",
        sort_cols=["conv_id", "day"],
    ).materialize()
    return left, right


SQL_ASOF_DAILY = f"""{_T},
daily AS (
  SELECT conv_id, date_trunc('day', ts) + INTERVAL 1 DAY AS sts,
         ROUND(SUM(ROUND(value * 100)) / 100.0, 6) AS day_value
  FROM t GROUP BY conv_id, date_trunc('day', ts)
)
SELECT t.conv_id, t._seq, d.day_value AS prev_day_value
FROM t ASOF LEFT JOIN daily d ON t.conv_id = d.conv_id AND t.ts > d.sts
"""

QUERIES["asof_daily"] = q_asof_daily
ORACLES["asof_daily"] = SQL_ASOF_DAILY


# ---------------------------------------------------------------------------
# Toleranced as-of join: same sides as asof_daily, but a match only counts
# if the day summary closed within 2 days of the turn — the "stale feature
# vectors must not backfill" guard (asof_join tolerance; SQL = ASOF match
# then distance filter). Rides the shared one-pass side setup.
# ---------------------------------------------------------------------------
ASOF_TOL_DAYS = 2


def q_asof_tolerance(sf_dir: str):
    from nfl_feature_store_ray.state.asof import asof_join

    left, right = _asof_daily_sides(sf_dir)
    joined = asof_join(
        left, right, key="conv_id", on="ts", allow_exact_matches=False,
        tolerance=pd.Timedelta(days=ASOF_TOL_DAYS),
    )
    return joined.map_batches(
        lambda df: df[["conv_id", "_seq", "day_value"]].rename(
            columns={"day_value": "recent_day_value"}
        ),
        batch_format="pandas",
    )


SQL_ASOF_TOLERANCE = f"""{_T},
daily AS (
  SELECT conv_id, date_trunc('day', ts) + INTERVAL 1 DAY AS sts,
         ROUND(SUM(ROUND(value * 100)) / 100.0, 6) AS day_value
  FROM t GROUP BY conv_id, date_trunc('day', ts)
)
SELECT t.conv_id, t._seq,
       CASE WHEN t.ts - d.sts <= INTERVAL {ASOF_TOL_DAYS} DAY
            THEN d.day_value END AS recent_day_value
FROM t ASOF LEFT JOIN daily d ON t.conv_id = d.conv_id AND t.ts > d.sts
"""

QUERIES["asof_tolerance"] = q_asof_tolerance
ORACLES["asof_tolerance"] = SQL_ASOF_TOLERANCE


# ---------------------------------------------------------------------------
# FIRST_VALUE / LAST_VALUE frames: each turn carries its conversation's
# opening value, its session's opening value, and the running last non-null
# tool (LAST_VALUE IGNORE NULLS over the preceding frame — the "sticky
# state" pattern). Vectorized: groupby-transform('first') on conv/session
# ids and a forward-fill for the sticky tool; session ids from the same
# gap rule as the window engine.
# ---------------------------------------------------------------------------
def q_first_value(sf_dir: str):
    ts_ds = transcripts_from_events(sf_dir)
    pruned = _prune(ts_ds, ["conv_id", "ts", "_seq", "value", "tool"])

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "ts", "_seq"], kind="mergesort").reset_index(drop=True)
        conv = g["conv_id"].to_numpy()
        new_conv = np.concatenate([[True], conv[1:] != conv[:-1]])
        gap = g["ts"].astype("datetime64[us]").astype("int64").diff().to_numpy() / 1e6
        new_sess = new_conv | (gap > SESSION_GAP_S)
        v = g["value"].to_numpy()
        # POSITIONAL first (SQL FIRST_VALUE semantics): the first ROW's
        # value even when NULL — pandas transform('first') skips NULLs,
        # which diverges on a NULL-valued first turn. Gather at the running
        # maximum of the group-start indices instead.
        idx = np.arange(len(g))
        conv_first = v[np.maximum.accumulate(np.where(new_conv, idx, -1))]
        sess_first = v[np.maximum.accumulate(np.where(new_sess, idx, -1))]
        # sticky tool: last non-null tool at or before this turn, per conv
        tool_ff = g.groupby("conv_id", sort=False)["tool"].ffill()
        tool_ff = tool_ff.astype(object).where(tool_ff.notna(), None)
        return pd.DataFrame(
            {
                "conv_id": g["conv_id"],
                "turn_idx": g.groupby("conv_id", sort=False).cumcount().astype("int32"),
                "conv_first_value": round_half_away(conv_first, 6),
                "session_first_value": round_half_away(sess_first, 6),
                "sticky_tool": tool_ff,
            }
        )

    return map_conv_buckets(pruned, kern, key="conv_id", sort_cols=["conv_id", "ts", "_seq"])


SQL_FIRST_VALUE = f"""{_T},
b AS (
  SELECT conv_id, turn_idx, ts, _seq, value, tool,
         CASE WHEN epoch(ts - LAG(ts) OVER ({_W})) > {SESSION_GAP_S}
              OR LAG(ts) OVER ({_W}) IS NULL THEN 1 ELSE 0 END AS brk
  FROM t
),
s AS (
  SELECT conv_id, turn_idx, ts, _seq, value, tool,
         SUM(brk) OVER ({_W} ROWS UNBOUNDED PRECEDING) AS sess_id
  FROM b
)
SELECT conv_id, turn_idx,
       ROUND(FIRST_VALUE(value) OVER ({_W}), 6) AS conv_first_value,
       ROUND(FIRST_VALUE(value) OVER (PARTITION BY conv_id, sess_id ORDER BY ts, _seq), 6)
         AS session_first_value,
       LAST_VALUE(tool IGNORE NULLS)
         OVER ({_W} ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS sticky_tool
FROM s
"""

QUERIES["w_first_value"] = q_first_value
ORACLES["w_first_value"] = SQL_FIRST_VALUE


# ---------------------------------------------------------------------------
# offset-k lags / leads and NTH_VALUE — completes the navigation-function
# window family (lag-1 = W1, lead-1 = w_lead_label): LAG(value, 3),
# LAG(value, 2, default), LEAD(value, 2), and NTH_VALUE(value, 2) over the
# running frame (the 2nd value seen so far: NULL at the first row). Pure
# order operations inside conversation buckets — group shifts and one
# broadcast of each conversation's 2nd value; no float arithmetic beyond
# the 6dp rounding.
# ---------------------------------------------------------------------------
def q_lag_k(sf_dir: str):
    ts = _prune(transcripts_from_events(sf_dir), ["conv_id", "ts", "_seq", "value"])

    def bucket_fn(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("conv_id", sort=False)
        cum = g.cumcount().to_numpy()
        # each conversation's 2nd value, broadcast to its rows (vectorized:
        # factorize + one scatter + one gather; NULL while the running
        # frame has fewer than 2 rows)
        codes, _ = pd.factorize(df["conv_id"], sort=False)
        second = np.full(codes.max() + 1 if len(codes) else 0, np.nan)
        m2 = cum == 1
        second[codes[m2]] = df["value"].to_numpy()[m2]
        nth2 = np.where(cum >= 1, second[codes] if len(codes) else np.nan, np.nan)
        return pd.DataFrame(
            {"conv_id": df["conv_id"],
             "turn_idx": cum.astype("int32"),
             "lag3_value": round_half_away(g["value"].shift(3).to_numpy(), 6),
             # SQL LAG(v, 2, default) applies the default ONLY when the
             # offset row does not exist (cum < 2) — a NULL value AT an
             # existing offset row stays NULL (fillna would clobber it)
             "lag2_def": round_half_away(
                 np.where(cum < 2, -1.0, g["value"].shift(2).to_numpy()), 6),
             "lead2_value": round_half_away(g["value"].shift(-2).to_numpy(), 6),
             "nth2_value": round_half_away(nth2, 6)}
        )

    return map_conv_buckets(ts, bucket_fn)


SQL_LAG_K = f"""{_T}
SELECT conv_id, turn_idx,
       ROUND(LAG(value, 3) OVER ({_W}), 6) AS lag3_value,
       ROUND(LAG(value, 2, -1.0) OVER ({_W}), 6) AS lag2_def,
       ROUND(LEAD(value, 2) OVER ({_W}), 6) AS lead2_value,
       ROUND(NTH_VALUE(value, 2) OVER
         ({_W} ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW), 6) AS nth2_value
FROM t
"""

QUERIES["w_lag_k"] = q_lag_k
ORACLES["w_lag_k"] = SQL_LAG_K


# ---------------------------------------------------------------------------
# collect_set: the sorted distinct tools each conversation used, as one
# canonical comma-joined string (array_agg(DISTINCT .. ORDER BY ..)) plus
# the distinct count — the "entity capability set" rollup. Per-batch
# partial DISTINCT pairs -> one conv shuffle of the deduped pairs -> sorted
# join inside the bucket (exact string equality with the SQL).
# ---------------------------------------------------------------------------
def q_tool_set(sf_dir: str):
    ts = _prune(transcripts_from_events(sf_dir), ["conv_id", "tool"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df.dropna(subset=["tool"]).drop_duplicates(["conv_id", "tool"])
        return d[["conv_id", "tool"]]

    def final(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["conv_id", "tool"]).sort_values(
            ["conv_id", "tool"], kind="mergesort"
        )
        gb = d.groupby("conv_id", sort=False)["tool"]
        out = gb.agg(",".join).reset_index(name="tool_set")
        out["n_tools"] = gb.size().to_numpy().astype("int64")
        return out

    partials = ts.map_batches(partial, batch_format="pandas")
    return map_conv_buckets(partials, final, key="conv_id",
                            sort_cols=["conv_id", "tool"])


SQL_TOOL_SET = f"""{_T}
SELECT conv_id,
       string_agg(DISTINCT tool, ',' ORDER BY tool) AS tool_set,
       CAST(COUNT(DISTINCT tool) AS BIGINT) AS n_tools
FROM t WHERE tool IS NOT NULL
GROUP BY conv_id
"""

QUERIES["agg_tool_set"] = q_tool_set
ORACLES["agg_tool_set"] = SQL_TOOL_SET


# ---------------------------------------------------------------------------
# sessionized funnel — per session: seconds from session start to the
# FIRST tool turn (NULL when the session never reaches a tool), plus the
# number of turns before it. The time-to-conversion composite of the
# gap-based sessionization (as in w_session) and a conditional MIN; µs
# integers end-to-end, one division, same single conv shuffle.
# ---------------------------------------------------------------------------
def q_session_funnel(sf_dir: str):
    from nfl_feature_store_ray.schemas import SESSION_GAP_S

    pruned = _prune(transcripts_from_events(sf_dir), ["conv_id", "ts", "_seq", "role"])

    def funnel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "ts", "_seq"], kind="mergesort").reset_index(drop=True)
        gap = g.groupby("conv_id")["ts"].diff().dt.total_seconds()
        g["session_id"] = (
            (gap > SESSION_GAP_S).fillna(False).astype("int32")
            .groupby(g["conv_id"]).cumsum()
        )
        t_us = g["ts"].astype("datetime64[us]").astype("int64")
        g["_t"] = t_us
        g["_tool_t"] = t_us.where(g["role"].to_numpy() == "tool")
        is_tool = (g["role"] == "tool").to_numpy()
        # turns strictly before the first tool turn: cumcount at the first
        # tool row per session (vectorized: running count minus correction)
        grp = g.groupby(["conv_id", "session_id"], as_index=False)
        pos = g.groupby(["conv_id", "session_id"]).cumcount().to_numpy()
        g["_tool_pos"] = pd.Series(pos, index=g.index).where(is_tool)
        out = grp.agg(
            n_turns=("role", "size"),
            t0=("_t", "min"),
            tt=("_tool_t", "min"),
            first_tool_pos=("_tool_pos", "min"),
        )
        lat = (out["tt"].to_numpy() - out["t0"].to_numpy()) / 1e6
        return pd.DataFrame(
            {"conv_id": out["conv_id"],
             "session_id": out["session_id"].astype("int32"),
             "n_turns": out["n_turns"].astype("int64"),
             "turns_to_tool": out["first_tool_pos"].astype("float64"),
             "secs_to_tool": round_half_away(lat, 6)}
        )

    return map_conv_buckets(pruned, funnel, key="conv_id",
                            sort_cols=["conv_id", "ts", "_seq"])


SQL_SESSION_FUNNEL = f"""{_T},
g AS (
  SELECT conv_id, ts, _seq, role,
         CASE WHEN epoch(ts - LAG(ts) OVER ({_W})) > {SESSION_GAP_S}
              THEN 1 ELSE 0 END AS brk
  FROM t
),
s AS (
  SELECT conv_id, ts, _seq, role,
         CAST(SUM(brk) OVER ({_W}) AS INTEGER) AS session_id
  FROM g
),
p AS (
  SELECT conv_id, session_id, ts, role,
         ROW_NUMBER() OVER (PARTITION BY conv_id, session_id
                            ORDER BY ts, _seq) - 1 AS pos
  FROM s
)
SELECT conv_id, session_id, COUNT(*) AS n_turns,
       CAST(MIN(CASE WHEN role = 'tool' THEN pos END) AS DOUBLE) AS turns_to_tool,
       ROUND((MIN(CASE WHEN role = 'tool' THEN epoch_us(ts) END)
              - MIN(epoch_us(ts))) / 1000000.0, 6) AS secs_to_tool
FROM p GROUP BY conv_id, session_id
"""

QUERIES["w_session_funnel"] = q_session_funnel
ORACLES["w_session_funnel"] = SQL_SESSION_FUNNEL


# ---------------------------------------------------------------------------
# group-integrity train/val/test split — the leakage-safe 80/10/10 split
# at CONVERSATION granularity: every turn of a conversation lands in the
# same split because membership is a pure deterministic function of
# conv_id (Knuth multiplicative hash mod 2^31-1, SQL-exact), never of
# the row. Splitting by row instead would leak near-identical turns
# of one conversation across train and eval — the classic contamination
# bug this operator exists to prevent. Shuffle-free map; group integrity
# is pinned by the fuzz suite's oracle compare plus a dedicated test.
# ---------------------------------------------------------------------------
SPLIT_MOD = 2_147_483_647
SPLIT_MULT = 2_654_435_761


def q_split_convs(sf_dir: str):
    ts = _prune(transcripts_from_events(sf_dir), ["conv_id", "ts", "_seq"])

    def bucket_fn(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("conv_id", sort=False)
        cid = df["conv_id"].astype("int64").to_numpy()
        rk = ((cid % SPLIT_MOD) * SPLIT_MULT) % SPLIT_MOD
        split = np.where(
            rk < int(0.8 * SPLIT_MOD), "train",
            np.where(rk < int(0.9 * SPLIT_MOD), "val", "test"),
        )
        return pd.DataFrame(
            {"conv_id": df["conv_id"],
             "turn_idx": g.cumcount().astype("int32"),
             "split": split}
        )

    return map_conv_buckets(ts, bucket_fn)


SQL_SPLIT_CONVS = f"""{_T},
r AS (
  SELECT conv_id, turn_idx,
         ((CAST(conv_id AS BIGINT) % {SPLIT_MOD}) * {SPLIT_MULT}) % {SPLIT_MOD} AS rk
  FROM t
)
SELECT conv_id, turn_idx,
       CASE WHEN rk < {int(0.8 * SPLIT_MOD)} THEN 'train'
            WHEN rk < {int(0.9 * SPLIT_MOD)} THEN 'val'
            ELSE 'test' END AS split
FROM r
"""

QUERIES["split_convs"] = q_split_convs
ORACLES["split_convs"] = SQL_SPLIT_CONVS


def q_chained_subrange(sf_dir: str):
    """Window features via the sub-range CHAINED engine (state.skew):
    conversations over 40 rows are split into ordered 32-row
    sub-ranges, each a bounded Ray task handing the window kernel's
    carry table to the next — the execution shape for a conversation
    larger than one worker's heap, exercised here at sandbox scale so the
    driver oracle-gates the handoff itself. Output restricts to the
    CENTS-EXACT families (last/avg/session_avg + session ids), which the
    chain computes bit-identically to the batch kernel at any split.

    Reference parity: the same W1/W3-family semantics as w_lag_gap /
    w_expanding / w_session_avg (SURVEY §2.6), under skew-salted
    execution (§2.3 stateful stages)."""
    from nfl_feature_store_ray.state.skew import window_features_chained

    ts = transcripts_from_events(sf_dir)
    # the chained engine consumes its input THREE times (heavy-key count,
    # normal branch, heavy branch); pin the pruned 5-column table once so
    # the derive pass isn't re-executed per consumer. Driver-gate query
    # choice only: the library function itself never materializes — at
    # 100 TB callers either re-read the pruned parquet (cheap columnar
    # scan) or pass heavy_keys from the ingest profile.
    pruned = _prune(ts, ["conv_id", "ts", "role", "value", "_seq"]).materialize()
    # top=16: the chain mechanism is what's under test; 16 chained
    # conversations exercise it fully while the other hot conversations
    # take the (equally oracle-gated) bucket path — at sandbox scale a
    # 100-row conversation is only "heavy" by construction, and 64 chains
    # of 3 tiny tasks each would be pure scheduler overhead
    feats = window_features_chained(
        pruned, metrics=("value",), min_rows=40, sub_range_rows=32,
        tie_col="_seq", top=16,
    )

    def sel(df: pd.DataFrame) -> pd.DataFrame:
        return _round6(
            df[["conv_id", "turn_idx", "session_id",
                "last_value", "avg_value", "session_avg_value"]],
            ["last_value", "avg_value", "session_avg_value"],
        )

    return feats.map_batches(sel, batch_format="pandas")


# last/avg reuse SQL_LAG_GAP / SQL_EXPANDING forms; the session_avg CTE
# chain is SQL_SESSION_AVG's, verbatim — the chained engine must agree
# with the SAME oracle the one-task batch path is gated by.
SQL_CHAINED_SUBRANGE = f"""{_T},
b AS (
  SELECT conv_id, turn_idx, value, ROUND(value * 100) AS vc, ts, _seq,
         CASE WHEN epoch(ts - LAG(ts) OVER ({_W})) > {SESSION_GAP_S} THEN 1 ELSE 0 END AS brk
  FROM t
),
s AS (SELECT *, SUM(brk) OVER ({_W}) AS sid FROM b),
w AS (
  SELECT *,
         LAG(value) OVER ({_W}) AS lastv,
         SUM(vc) OVER ({_W} ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS acs,
         COUNT(vc) OVER ({_W} ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS acnt,
         SUM(vc) OVER (PARTITION BY conv_id, sid ORDER BY ts, _seq
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS cs,
         COUNT(vc) OVER (PARTITION BY conv_id, sid ORDER BY ts, _seq
                         ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS cnt
  FROM s
),
agg AS (
  SELECT conv_id, sid, COALESCE(SUM(vc), 0) AS total, COUNT(vc) AS n,
         LAST(vc ORDER BY ts, _seq) FILTER (vc IS NOT NULL) AS lastnn
  FROM s GROUP BY conv_id, sid
),
agg2 AS (
  SELECT conv_id, sid,
         LAG(lastnn) OVER (PARTITION BY conv_id ORDER BY sid) AS seed,
         CASE WHEN sid = 0 THEN CASE WHEN n > 0 THEN total / (100.0 * n) END
              ELSE (LAG(lastnn) OVER (PARTITION BY conv_id ORDER BY sid) + total)
                   / (100.0 * (1 + n))
         END AS final_exp
  FROM agg
),
agg3 AS (
  SELECT conv_id, sid, seed,
         LAG(final_exp) OVER (PARTITION BY conv_id ORDER BY sid) AS prev_final
  FROM agg2
)
SELECT w.conv_id, w.turn_idx, CAST(w.sid AS INTEGER) AS session_id,
       ROUND(w.lastv, 6) AS last_value,
       ROUND(CASE WHEN w.acnt > 0 THEN w.acs / (100.0 * w.acnt) END, 6) AS avg_value,
       ROUND(CASE WHEN w.sid = 0
                  THEN CASE WHEN w.cnt > 0 THEN w.cs / (100.0 * w.cnt) END
                  ELSE CASE WHEN w.cnt > 0 THEN (a3.seed + w.cs) / (100.0 * (1 + w.cnt))
                            ELSE a3.prev_final END
             END, 6) AS session_avg_value
FROM w JOIN agg3 a3 ON w.conv_id = a3.conv_id AND w.sid = a3.sid
"""

QUERIES["w_chained_subrange"] = q_chained_subrange
ORACLES["w_chained_subrange"] = SQL_CHAINED_SUBRANGE
