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


def q_range_join(sf_dir: str):
    """Range (interval) join: each tool turn matched to the containing
    session interval [session min_ts, session max_ts] of its conversation.

    One bucket shuffle: intervals and probes both live in the
    conversation's bucket; the match is a vectorized merge on
    (conv_id, session_id) after sessionizing — the interval-containment
    variant of the as-of operator family.
    """
    ts = transcripts_from_events(sf_dir)

    def bucket_fn(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("conv_id", sort=False)
        gap = (df["ts"] - g["ts"].shift()).dt.total_seconds()
        brk = (gap > SESSION_GAP_S).fillna(False)
        df = df.assign(session_id=brk.groupby(df["conv_id"], sort=False).cumsum().astype("int32"))
        iv = df.groupby(["conv_id", "session_id"], as_index=False).agg(
            lo=("ts", "min"), hi=("ts", "max"), n_turns=("ts", "size")
        )
        probes = df.loc[df["role"] == "tool", ["conv_id", "_seq", "ts", "session_id"]]
        out = probes.merge(iv, on=["conv_id", "session_id"], how="left")
        out["n_turns"] = out["n_turns"].astype("int64")
        return out[["conv_id", "_seq", "session_id", "lo", "hi", "n_turns"]]

    return map_conv_buckets(
        _prune(ts, ["conv_id", "ts", "_seq", "role"]), bucket_fn, key="conv_id", sort_cols=["conv_id", "ts", "_seq"]
    )


SQL_RANGE_JOIN = f"""{_T},
g AS (
  SELECT conv_id, _seq, ts, role,
         CASE WHEN epoch(ts - LAG(ts) OVER ({_W})) > {SESSION_GAP_S} THEN 1 ELSE 0 END AS brk
  FROM t
),
s AS (SELECT *, CAST(SUM(brk) OVER ({_W}) AS INTEGER) AS session_id FROM g),
iv AS (
  SELECT conv_id, session_id, MIN(ts) AS lo, MAX(ts) AS hi, COUNT(*) AS n_turns
  FROM s GROUP BY 1, 2
)
SELECT p.conv_id, p._seq, p.session_id, iv.lo, iv.hi, iv.n_turns
FROM (SELECT conv_id, _seq, ts, session_id FROM s WHERE role = 'tool') p
LEFT JOIN iv ON iv.conv_id = p.conv_id AND p.ts BETWEEN iv.lo AND iv.hi
"""


def q_tumbling(sf_dir: str):
    """Tumbling windowed aggregate: fixed 6-hour event-time windows per
    conversation (count, sum, mean) — the windowed-aggregate shape the
    reference's weekly grain special-cases, generalized to any width."""
    ts = transcripts_from_events(sf_dir)
    width_s = 6 * 3600

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # pin to microsecond epoch regardless of the block's datetime unit
        win = (df["ts"].astype("datetime64[us]").astype("int64") // (width_s * 1_000_000)).astype("int64")
        # exact integer cents -> order-independent partial sums (QUANT_SCALE);
        # float cents + min_count keep SQL NULL semantics: NaN skipped by
        # the sum, an ALL-NULL (conv, win) group stays NaN (SQL SUM ->
        # NULL) instead of folding to 0
        df = df.assign(win=win, n=1, vc=np.rint(df["value"].to_numpy() * 100.0))
        return df.groupby(["conv_id", "win"], as_index=False).agg(
            n_turns=("n", "sum"), sum_c=("vc", lambda s: s.sum(min_count=1))
        )

    def final(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby(["conv_id", "win"], as_index=False).agg(
            n_turns=("n_turns", "sum"), sum_c=("sum_c", lambda s: s.sum(min_count=1))
        )
        g["n_turns"] = g["n_turns"].astype("int64")
        g["mean_value"] = round_half_away(g["sum_c"] / (100.0 * g["n_turns"]), 6)
        g["sum_value"] = round_half_away(g["sum_c"] / 100.0, 6)
        return g.drop(columns=["sum_c"])

    partials = ts.map_batches(partial, batch_format="pandas")
    return map_conv_buckets(
        partials, final, key=["conv_id", "win"], sort_cols=["conv_id", "win"]
    )


# cents-exact sums (see SQL_EXPANDING) so mean ties round identically
SQL_TUMBLING = f"""{_T}
SELECT conv_id,
       CAST(FLOOR(epoch(ts) / 21600) AS BIGINT) AS win,
       COUNT(*) AS n_turns,
       ROUND(SUM(ROUND(value * 100)) / 100.0, 6) AS sum_value,
       ROUND(SUM(ROUND(value * 100)) / (100.0 * COUNT(*)), 6) AS mean_value
FROM t GROUP BY 1, 2
"""

QUERIES["w_range_join"] = q_range_join
QUERIES["w_tumbling"] = q_tumbling
ORACLES["w_range_join"] = SQL_RANGE_JOIN
ORACLES["w_tumbling"] = SQL_TUMBLING


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


def _asof_daily_sides(sf_dir: str, side_col: str = "day_value"):
    """Shared setup for the daily as-of queries: ONE pruned pass over the
    transcript table feeds BOTH join sides. The 4-column base is
    materialized once (asof_join's schema() probe + the union would
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
                side_col: round_half_away(d["day_c"] / 100.0, 6),
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


SLIDE_S = 24 * 3600  # sliding event-time window width


def q_sliding_window(sf_dir: str):
    """TIME-RANGE sliding window (vs the row-based W2/W6 frames): at each
    turn, count and cents-exact sum of the conversation's OTHER turns in
    the trailing 24h window [t - 24h, t] (equal-ts peers included, self
    excluded — RANGE-frame semantics). Per bucket this is two vectorized
    searchsorteds + a cumsum difference per conversation, O(rows)."""
    ts = transcripts_from_events(sf_dir)

    def bucket_fn(df: pd.DataFrame) -> pd.DataFrame:
        conv = df["conv_id"]
        t_us = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        vc = np.rint(df["value"].to_numpy() * 100.0)
        # NO per-conversation loop: rebase timestamps to the bucket minimum
        # and offset each conversation into its own disjoint band sized to
        # (observed span + window + 1), then ONE global searchsorted pair +
        # cumsum difference serves every conversation (a query point can
        # never cross bands). Band * n_convs stays far inside int64: a
        # 10-year span is ~2^48 us, leaving room for ~32k convs per bucket;
        # bucket counts are sized well below that.
        ca = conv.to_numpy()
        new = np.concatenate([[True], ca[1:] != ca[:-1]])
        ordinal = np.cumsum(new) - 1
        slide_us = SLIDE_S * 1_000_000
        rel = t_us - t_us.min() if len(t_us) else t_us
        band = np.int64((int(rel.max()) if len(rel) else 0) + slide_us + 1)
        assert int(ordinal[-1] if len(ordinal) else 0) * int(band) < (1 << 62), \
            "sliding-window band overflow: split the bucket (raise num_buckets)"
        t_adj = ordinal.astype(np.int64) * band + rel
        # masked prefix sum == SQL SUM's NULL-skip; the self-subtraction
        # below keeps RAW vc so a NULL current row yields NULL (SQL:
        # number - NULL), and n_24h is positional (COUNT(*)) either way
        cum = np.concatenate([[0.0], np.cumsum(np.where(np.isnan(vc), 0.0, vc))])
        lo = np.searchsorted(t_adj, t_adj - slide_us, side="left")
        hi = np.searchsorted(t_adj, t_adj, side="right")
        g = df.groupby("conv_id", sort=False).cumcount()
        return pd.DataFrame(
            {
                "conv_id": conv,
                "turn_idx": g.astype("int32"),
                "n_24h": (hi - lo - 1).astype("int64"),
                "sum_24h": round_half_away((cum[hi] - cum[lo] - vc) / 100.0, 6),
            }
        )

    return map_conv_buckets(
        _prune(ts, ["conv_id", "ts", "_seq", "value"]), bucket_fn,
        key="conv_id", sort_cols=["conv_id", "ts", "_seq"]
    )


SQL_SLIDING_WINDOW = f"""{_T}
SELECT conv_id, turn_idx,
       COUNT(*) OVER w - 1 AS n_24h,
       ROUND((SUM(ROUND(value * 100)) OVER w - ROUND(value * 100)) / 100.0, 6) AS sum_24h
FROM t
WINDOW w AS (PARTITION BY conv_id ORDER BY ts
             RANGE BETWEEN INTERVAL {SLIDE_S} SECONDS PRECEDING AND CURRENT ROW)
"""

QUERIES["w_sliding_window"] = q_sliding_window
ORACLES["w_sliding_window"] = SQL_SLIDING_WINDOW


# ---------------------------------------------------------------------------
# session-level rollup: one row per (conv_id, session_id) — the session
# feature TABLE (the reference materializes per-entity-epoch tables the
# same way; ref feature_store_runner.py:39-55 store shape)
# ---------------------------------------------------------------------------
def q_session_stats(sf_dir: str):
    """Per-session aggregates over the engine's sessionization: turn count,
    wall duration, tool-turn count, cents-exact mean value. One conv_id
    bucket shuffle; sessionization + rollup run vectorized in-bucket."""
    from nfl_feature_store_ray.schemas import QUANT_SCALE, SESSION_GAP_S

    ts_ds = transcripts_from_events(sf_dir)
    pruned = _prune(ts_ds, ["conv_id", "ts", "_seq", "role", "value"])

    def rollup(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "ts", "_seq"], kind="mergesort").reset_index(drop=True)
        gap = g.groupby("conv_id")["ts"].diff().dt.total_seconds()
        g["session_id"] = (
            (gap > SESSION_GAP_S).fillna(False).astype("int32")
            .groupby(g["conv_id"]).cumsum()
        )
        # float cents: NaN values are skipped by the sum like SQL SUM, and
        # min_count=1 keeps an all-NULL session's avg NULL (not 0)
        g["_c"] = np.rint(g["value"].to_numpy(dtype="float64") * QUANT_SCALE)
        g["_tool"] = (g["role"] == "tool").astype("int64")
        out = g.groupby(["conv_id", "session_id"], as_index=False).agg(
            n_turns=("value", "size"),
            t0=("ts", "min"),
            t1=("ts", "max"),
            n_tool=("_tool", "sum"),
            _cs=("_c", lambda s: s.sum(min_count=1)),
        )
        out["duration_s"] = round_half_away(
            (out["t1"] - out["t0"]).dt.total_seconds().astype("float64"), 6
        )
        out["avg_value"] = round_half_away(
            out["_cs"].to_numpy(dtype="float64")
            / (QUANT_SCALE * out["n_turns"].to_numpy(dtype="float64")), 6
        )
        out["session_id"] = out["session_id"].astype("int32")
        out["n_turns"] = out["n_turns"].astype("int64")
        out["n_tool"] = out["n_tool"].astype("int64")
        return out[["conv_id", "session_id", "n_turns", "duration_s", "n_tool",
                    "avg_value"]]

    return map_conv_buckets(pruned, rollup, key="conv_id",
                            sort_cols=["conv_id", "ts", "_seq"])


SQL_SESSION_STATS = f"""{_T},
g AS (
  SELECT conv_id, ts, _seq, value, role,
         CASE WHEN epoch(ts - LAG(ts) OVER ({_W})) > {SESSION_GAP_S}
              THEN 1 ELSE 0 END AS brk
  FROM t
),
s AS (
  SELECT conv_id, ts, value, role,
         CAST(SUM(brk) OVER ({_W}) AS INTEGER) AS session_id
  FROM g
)
SELECT conv_id, session_id,
       COUNT(*) AS n_turns,
       ROUND(CAST(epoch(MAX(ts) - MIN(ts)) AS DOUBLE), 6) AS duration_s,
       CAST(SUM(CASE WHEN role = 'tool' THEN 1 ELSE 0 END) AS BIGINT) AS n_tool,
       ROUND(SUM(ROUND(value * 100)) / (100.0 * COUNT(*)), 6) AS avg_value
FROM s GROUP BY conv_id, session_id
"""

QUERIES["session_stats"] = q_session_stats
ORACLES["session_stats"] = SQL_SESSION_STATS


# ---------------------------------------------------------------------------
# DYADIC time decay: state is an integer cent sum halved once per elapsed
# MINUTE via a right shift, so every operation is exact integer arithmetic
# on both engines and the query is bit-equal to its SQL oracle. Semantics
# per conversation in (ts, _seq) order, c_i = max(round(value*100), 0)
# (clamp keeps the state non-negative so >> == DuckDB's // which truncates
# toward zero):
#     prior_i = s_{i-1} >> min(63, gap_minutes_i)     (output, strictly prior)
#     s_i     = prior_i + c_i
# ---------------------------------------------------------------------------
DYADIC_DECAY_US = 60_000_000  # one halving per elapsed minute


def q_time_decay_dyadic(sf_dir: str):
    ts_ds = transcripts_from_events(sf_dir)
    pruned = _prune(ts_ds, ["conv_id", "ts", "_seq", "value"])

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "ts", "_seq"], kind="mergesort").reset_index(drop=True)
        codes = pd.factorize(g["conv_id"])[0].astype(np.int64)
        v = g["value"].to_numpy(dtype="float64")
        c = np.where(np.isnan(v), 0.0, np.maximum(np.rint(v * 100.0), 0.0)).astype(np.int64)
        us = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        prev_us = np.roll(us, 1)
        gap_min = np.maximum((us - prev_us) // DYADIC_DECAY_US, 0)
        n = len(g)
        out = np.zeros(n, dtype=np.int64)
        if n:
            # Rows within the same MINUTE GROUP (gap_min == 0 runs) see no
            # decay, so their priors are one exact cumsum off the group's
            # start state; only the inter-group recurrence
            # S_g = (S_{g-1} >> K_g) + sum(c in g) is sequential. The loop
            # below steps GROUP positions, vectorized across every
            # conversation in the bucket — a giant conversation costs
            # O(its minute-group count), not O(its turns).
            newc = np.concatenate([[True], codes[1:] != codes[:-1]])
            newg = newc | (gap_min > 0)
            gstarts_row = np.flatnonzero(newg)
            n_groups = len(gstarts_row)
            gsizes = np.diff(np.concatenate([gstarts_row, [n]]))
            cs = np.cumsum(c)
            base = np.concatenate([[0], cs])[gstarts_row]  # excl. group start
            in_group_prior = cs - c - np.repeat(base, gsizes)
            g_sum = np.add.reduceat(c, gstarts_row)
            g_shift = np.minimum(gap_min[gstarts_row], 63)
            g_conv = codes[gstarts_row]
            cstarts = np.unique(g_conv, return_index=True)[1]
            cglens = np.bincount(g_conv)
            S = np.zeros(len(cstarts), dtype=np.int64)
            g_state = np.zeros(n_groups, dtype=np.int64)
            for p in range(int(cglens.max())):
                act = np.where(cglens > p)[0]
                gidx = cstarts[act] + p
                st = np.zeros(len(act), dtype=np.int64) if p == 0 \
                    else S[act] >> g_shift[gidx]
                g_state[gidx] = st
                S[act] = st + g_sum[gidx]
            out = np.repeat(g_state, gsizes) + in_group_prior
        turn_idx = g.groupby("conv_id", sort=False).cumcount().astype("int32")
        return pd.DataFrame(
            {"conv_id": g["conv_id"], "turn_idx": turn_idx,
             "decay_sum": round_half_away(out.astype(np.float64) / 100.0, 6)}
        )

    return map_conv_buckets(pruned, kern, key="conv_id",
                            sort_cols=["conv_id", "ts", "_seq"])


SQL_TIME_DECAY_DYADIC = f"""WITH RECURSIVE t AS ({TRANSCRIPTS_FROM_EVENTS_SQL}),
g AS (
  SELECT conv_id, turn_idx,
         CAST(GREATEST(COALESCE(ROUND(value * 100), 0), 0) AS BIGINT) AS c,
         COALESCE(
           (epoch_us(ts) - epoch_us(LAG(ts) OVER ({_W}))) // {DYADIC_DECAY_US},
           0) AS gap_min
  FROM t
),
rec AS (
  SELECT conv_id, turn_idx, CAST(0 AS BIGINT) AS prior, c AS s
  FROM g WHERE turn_idx = 0
  UNION ALL
  SELECT g.conv_id, g.turn_idx,
         CASE WHEN g.gap_min >= 63 THEN 0
              ELSE rec.s // (CAST(1 AS BIGINT) << g.gap_min) END AS prior,
         CASE WHEN g.gap_min >= 63 THEN 0
              ELSE rec.s // (CAST(1 AS BIGINT) << g.gap_min) END + g.c AS s
  FROM rec JOIN g ON g.conv_id = rec.conv_id AND g.turn_idx = rec.turn_idx + 1
)
SELECT conv_id, turn_idx, ROUND(prior / 100.0, 6) AS decay_sum
FROM rec
"""

QUERIES["w_time_decay_dyadic"] = q_time_decay_dyadic
ORACLES["w_time_decay_dyadic"] = SQL_TIME_DECAY_DYADIC


# ---------------------------------------------------------------------------
# trailing-window DISTINCT count: distinct tools used in the prior 24h
# (RANGE frame incl. ts peers) — the "distinct items in trailing window"
# feature family (fraud/abuse-style recency features)
# ---------------------------------------------------------------------------
SLIDE_DISTINCT_S = 86_400


def q_sliding_distinct(sf_dir: str):
    """Per turn: COUNT(DISTINCT tool) over the conversation's trailing
    24h RANGE window (inclusive of ts peers, like SQL RANGE ... CURRENT
    ROW). Vectorized over the BOUNDED tool vocabulary: one ffill pass per
    tool value (last-occurrence timestamp per row, peer-inclusive via a
    per-(conv, ts) group max), then a windowed comparison — no per-row
    or per-window loops."""
    ts_ds = transcripts_from_events(sf_dir)
    pruned = _prune(ts_ds, ["conv_id", "ts", "_seq", "tool"])

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "ts", "_seq"], kind="mergesort").reset_index(drop=True)
        t = g["ts"].astype("datetime64[us]")
        lo = t - pd.Timedelta(seconds=SLIDE_DISTINCT_S)
        cnt = np.zeros(len(g), dtype=np.int64)
        for v in pd.unique(g["tool"].dropna()):
            # peer-inclusive: a tool occurring at the SAME ts in the same
            # conversation is inside the RANGE frame even if physically
            # later — take the per-(conv, ts) any() before the ffill
            peer_any = (
                g["tool"].eq(v).groupby([g["conv_id"], t], sort=False).transform("max")
            )
            last = t.where(peer_any).groupby(g["conv_id"], sort=False).ffill()
            cnt += (last.notna() & (last >= lo)).to_numpy()
        turn_idx = g.groupby("conv_id", sort=False).cumcount().astype("int32")
        return pd.DataFrame(
            {"conv_id": g["conv_id"], "turn_idx": turn_idx,
             "n_distinct_tools_24h": cnt}
        )

    return map_conv_buckets(pruned, kern, key="conv_id",
                            sort_cols=["conv_id", "ts", "_seq"])


SQL_SLIDING_DISTINCT = f"""{_T}
SELECT conv_id, turn_idx,
       COUNT(DISTINCT tool) OVER (
         PARTITION BY conv_id ORDER BY ts
         RANGE BETWEEN INTERVAL {SLIDE_DISTINCT_S} SECONDS PRECEDING AND CURRENT ROW
       ) AS n_distinct_tools_24h
FROM t
"""

QUERIES["w_sliding_distinct"] = q_sliding_distinct
ORACLES["w_sliding_distinct"] = SQL_SLIDING_DISTINCT


# ---------------------------------------------------------------------------
# consecutive-turn overlap: distinct-token Jaccard vs the previous turn +
# exact-repeat flag — the agent-loop / degenerate-repetition detector (an
# assistant stuck re-emitting the same reply shows jac_prev ~= 1 runs)
# ---------------------------------------------------------------------------
def q_turn_overlap(sf_dir: str):
    """Per turn: Jaccard similarity of the DISTINCT lowercased token set vs
    the previous turn of the same conversation (NULL on first turns), plus
    an exact-text repeat flag.

    Vectorized set intersection with NO per-row loops: one explode of the
    token lists -> drop_duplicates gives the per-row distinct sets as a
    (row, token) long table; the lag-1 intersection is ONE self-merge of
    that table against itself shifted by a row (rows are consecutive
    within the sorted bucket), then two bincounts. Null text ≡ '' (one
    empty-string token), matching the oracle's coalesce."""
    ts_ds = transcripts_from_events(sf_dir)
    pruned = _prune(ts_ds, ["conv_id", "ts", "_seq", "text"])

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "ts", "_seq"], kind="mergesort").reset_index(drop=True)
        n = len(g)
        if n == 0:  # typed ARROW empty (np.concatenate below assumes n >= 1;
            # a zero-row object column would become an Arrow null-typed
            # field and trip block-size estimation / schema unification)
            import pyarrow as _pa

            return _pa.table(
                {"conv_id": _pa.array([], _pa.string()),
                 "turn_idx": _pa.array([], _pa.int32()),
                 "jac_prev": _pa.array([], _pa.float64()),
                 "is_repeat": _pa.array([], _pa.float64())}
            )
        low = g["text"].fillna("").str.lower()
        tok = low.str.split(" ").explode()
        e = pd.DataFrame(
            {"r": tok.index.to_numpy(np.int64), "tok": tok.to_numpy()}
        ).drop_duplicates()
        sizes = np.bincount(e["r"], minlength=n).astype(np.int64)
        nxt = e.assign(r=e["r"] + 1)  # align row i's tokens with row i+1
        hits = e.merge(nxt, on=["r", "tok"])
        inter = np.bincount(hits["r"], minlength=n)[:n].astype(np.int64)
        prev_sizes = np.concatenate([[0], sizes[:-1]])
        union = sizes + prev_sizes - inter  # >= sizes >= 1 ('' splits to [''])
        jac = inter / union
        same = g["conv_id"].eq(g["conv_id"].shift(1)).to_numpy()
        jac = np.where(same, jac, np.nan)
        rep = np.where(same, (low == low.shift(1)).to_numpy(dtype="float64"), np.nan)
        turn_idx = g.groupby("conv_id", sort=False).cumcount().astype("int32")
        return pd.DataFrame(
            {"conv_id": g["conv_id"], "turn_idx": turn_idx,
             "jac_prev": round_half_away(jac, 6), "is_repeat": rep}
        )

    return map_conv_buckets(pruned, kern, key="conv_id",
                            sort_cols=["conv_id", "ts", "_seq"])


SQL_TURN_OVERLAP = f"""{_T},
w AS (
  SELECT conv_id, turn_idx, ts, _seq,
         lower(coalesce(text, '')) AS lt,
         list_distinct(string_split(lower(coalesce(text, '')), ' ')) AS tk
  FROM t
),
l AS (
  SELECT conv_id, turn_idx, lt, tk,
         LAG(lt) OVER ({_W}) AS plt,
         LAG(tk) OVER ({_W}) AS ptk
  FROM w
)
SELECT conv_id, turn_idx,
       ROUND(len(list_intersect(tk, ptk)) * 1.0
             / (len(tk) + len(ptk) - len(list_intersect(tk, ptk))), 6) AS jac_prev,
       CASE WHEN plt IS NULL THEN NULL
            WHEN lt = plt THEN CAST(1 AS DOUBLE) ELSE CAST(0 AS DOUBLE) END AS is_repeat
FROM l
"""

QUERIES["w_turn_overlap"] = q_turn_overlap
ORACLES["w_turn_overlap"] = SQL_TURN_OVERLAP


# ---------------------------------------------------------------------------
# per-turn novelty: tokens first seen at this turn + cumulative conversation
# vocabulary size — the "is the agent still saying new things" signal
# (complements w_turn_overlap's lag-1 repetition view with a whole-history
# one). ALL-INTEGER output: hash-exact with no rounding surface.
# ---------------------------------------------------------------------------
def q_novelty(sf_dir: str):
    """Per turn: ``n_new_tokens`` = distinct tokens whose FIRST occurrence
    in the conversation is this turn; ``cum_vocab`` = distinct tokens seen
    up to and including this turn (prefix vocabulary size).

    Vectorized: one explode -> (row, token) drop_duplicates -> a second
    drop_duplicates on (conv, token) keeps each token's first-occurrence
    row (rows arrive conversation-sorted, so 'first' is temporal), then a
    bincount + per-conv cumsum. No per-row loops."""
    ts_ds = transcripts_from_events(sf_dir)
    pruned = _prune(ts_ds, ["conv_id", "ts", "_seq", "text"])

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "ts", "_seq"], kind="mergesort").reset_index(drop=True)
        n = len(g)
        codes = pd.factorize(g["conv_id"])[0].astype(np.int64)
        tok = g["text"].fillna("").str.lower().str.split(" ").explode()
        e = pd.DataFrame(
            {"r": tok.index.to_numpy(np.int64), "tok": tok.to_numpy()}
        ).drop_duplicates()
        e["c"] = codes[e["r"]]
        first = e.drop_duplicates(subset=["c", "tok"], keep="first")
        n_new = np.bincount(first["r"], minlength=n).astype(np.int64)
        cum = pd.Series(n_new).groupby(codes, sort=False).cumsum().to_numpy()
        turn_idx = g.groupby("conv_id", sort=False).cumcount().astype("int32")
        return pd.DataFrame(
            {"conv_id": g["conv_id"], "turn_idx": turn_idx,
             "n_new_tokens": n_new, "cum_vocab": cum.astype(np.int64)}
        )

    return map_conv_buckets(pruned, kern, key="conv_id",
                            sort_cols=["conv_id", "ts", "_seq"])


SQL_NOVELTY = f"""{_T},
x AS (
  SELECT conv_id, turn_idx,
         unnest(list_distinct(string_split(lower(coalesce(text, '')), ' '))) AS tok
  FROM t
),
f AS (SELECT conv_id, tok, MIN(turn_idx) AS ft FROM x GROUP BY conv_id, tok),
nn AS (SELECT conv_id, ft AS turn_idx, COUNT(*) AS n_new FROM f GROUP BY conv_id, ft)
SELECT t.conv_id, t.turn_idx,
       CAST(coalesce(nn.n_new, 0) AS BIGINT) AS n_new_tokens,
       CAST(SUM(coalesce(nn.n_new, 0))
            OVER (PARTITION BY t.conv_id ORDER BY t.turn_idx) AS BIGINT) AS cum_vocab
FROM t LEFT JOIN nn ON t.conv_id = nn.conv_id AND t.turn_idx = nn.turn_idx
"""

QUERIES["w_novelty"] = q_novelty
ORACLES["w_novelty"] = SQL_NOVELTY


# ---------------------------------------------------------------------------
# trailing rolling MEDIAN (discrete) — the order-statistics window family
# (robust-to-outliers counterpart of w_rolling's trailing mean). Selection
# matches DuckDB quantile_disc: 1-based rank = ceil(0.5 * n), i.e. the
# LOWER median — a pure order statistic, so the gate is hash-exact with no
# float arithmetic at all (no even-count averaging).
# ---------------------------------------------------------------------------
def q_rolling_median(sf_dir: str):
    """Per turn: discrete median of the previous 1..3 values of the same
    conversation (ROWS BETWEEN 3 PRECEDING AND 1 PRECEDING), NULL when no
    prior rows. Vectorized: three shifted copies stacked, one column-wise
    np.sort (NaN sorts last), one gather at index (n_valid - 1) // 2."""
    ts_ds = transcripts_from_events(sf_dir)
    pruned = _prune(ts_ds, ["conv_id", "ts", "_seq", "value"])

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "ts", "_seq"], kind="mergesort").reset_index(drop=True)
        n = len(g)
        v = g["value"].to_numpy(dtype="float64")
        codes = pd.factorize(g["conv_id"])[0].astype(np.int64)

        def shifted(k: int) -> np.ndarray:
            s = np.full(n, np.nan)
            if n > k:
                s[k:] = v[:-k]
                s[k:][codes[k:] != codes[:-k]] = np.nan  # conv boundary
            return s

        m = np.stack([shifted(1), shifted(2), shifted(3)])
        cnt = (~np.isnan(m)).sum(axis=0)
        srt = np.sort(m, axis=0)  # NaN sorts last per column
        idx = np.maximum((cnt - 1) // 2, 0)
        med = srt[idx, np.arange(n)]
        med[cnt == 0] = np.nan
        turn_idx = g.groupby("conv_id", sort=False).cumcount().astype("int32")
        return pd.DataFrame(
            {"conv_id": g["conv_id"], "turn_idx": turn_idx,
             "med_value": round_half_away(med, 6)}
        )

    return map_conv_buckets(pruned, kern, key="conv_id",
                            sort_cols=["conv_id", "ts", "_seq"])


SQL_ROLLING_MEDIAN = f"""{_T}
SELECT conv_id, turn_idx,
       ROUND(quantile_disc(value, 0.5)
             OVER ({_W} ROWS BETWEEN 3 PRECEDING AND 1 PRECEDING), 6) AS med_value
FROM t
"""

QUERIES["w_rolling_median"] = q_rolling_median
ORACLES["w_rolling_median"] = SQL_ROLLING_MEDIAN


# ---------------------------------------------------------------------------
# exact distributed variance / std per conversation — the "parallel
# variance" aggregate done the hash-exact way: integer-cent partials
# (n, Σc, Σc²) are order-independent, the (n·Σc² − (Σc)²) numerator is
# EXACT integer arithmetic on both engines, and the only float ops are one
# division and one sqrt — both IEEE correctly-rounded, hence identical.
# ---------------------------------------------------------------------------
def q_agg_variance(sf_dir: str):
    """Per conversation: n_turns, sample variance and std of ``value``.

    Partial (n, Σc, Σc²) per batch -> ONE conv-keyed shuffle -> exact
    integer merge. Never ships raw rows through the exchange; at 10^12
    turns the shuffle carries 3 ints per (batch, conv)."""
    ts = transcripts_from_events(sf_dir)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # NULL-masked cents: SQL's SUM skips NULL vc while COUNT(*) keeps
        # the row, so c/c2 mask to 0 and n counts everything; nn lets the
        # final emit NULL variance for an all-NULL conversation. (Fun
        # fact, documented for the reviewer: the UNmasked cast is wrap-
        # immune here — each NaN adds 2^63 to s, and (S + k*2^63)^2 ===
        # S^2 (mod 2^64) — but relying on that is obscurity, not safety.)
        v = df["value"].to_numpy(dtype="float64")
        m = ~np.isnan(v)
        vc = np.where(m, np.rint(v * 100.0), 0.0).astype(np.int64)
        d = pd.DataFrame(
            {"conv_id": df["conv_id"], "c": vc, "c2": vc * vc,
             "n": np.int64(1), "nn": m.astype(np.int64)}
        )
        return d.groupby("conv_id", as_index=False).sum()

    def final(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby("conv_id", as_index=False)[["c", "c2", "n", "nn"]].sum()
        n = g["n"].to_numpy(np.int64)
        nn = g["nn"].to_numpy(np.int64)
        num = n * g["c2"].to_numpy(np.int64) - g["c"].to_numpy(np.int64) ** 2
        nf = n.astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            var = num.astype(np.float64) / (10000.0 * nf * (nf - 1.0))
            var = np.where((n > 1) & (nn > 0), var, np.nan)
            std = np.sqrt(var)
        return pd.DataFrame(
            {"conv_id": g["conv_id"], "n_turns": n,
             "var_value": round_half_away(var, 6),
             "std_value": round_half_away(std, 6)}
        )

    partials = ts.map_batches(partial, batch_format="pandas")
    return map_conv_buckets(partials, final, key="conv_id", sort_cols=["conv_id"])


# the SQL mirrors the engine's float-op ORDER exactly (one division, one
# sqrt) so correctly-rounded IEEE semantics make both sides bit-identical
SQL_AGG_VARIANCE = f"""{_T},
c AS (SELECT conv_id, CAST(ROUND(value * 100) AS BIGINT) AS vc FROM t),
a AS (
  SELECT conv_id, COUNT(*) AS n_turns, SUM(vc) AS s, SUM(vc * vc) AS s2
  FROM c GROUP BY conv_id
)
SELECT conv_id, CAST(n_turns AS BIGINT) AS n_turns,
       ROUND(CASE WHEN n_turns > 1 THEN
         (n_turns * s2 - s * s) / (10000.0 * n_turns * (n_turns - 1))
       END, 6) AS var_value,
       ROUND(CASE WHEN n_turns > 1 THEN
         sqrt((n_turns * s2 - s * s) / (10000.0 * n_turns * (n_turns - 1)))
       END, 6) AS std_value
FROM a
"""

QUERIES["agg_variance"] = q_agg_variance
ORACLES["agg_variance"] = SQL_AGG_VARIANCE


# ---------------------------------------------------------------------------
# conversation role-transition matrix — corpus-wide counts of (prev_role,
# role) bigrams (never across conversation boundaries): the Markov-chain
# summary of dialogue structure (how often does user->tool happen, etc.)
# ---------------------------------------------------------------------------
def q_role_transitions(sf_dir: str):
    """Global (prev_role -> role) transition counts. Lag computed inside
    the conversation buckets (vectorized shift + boundary mask), each
    bucket emits at most |roles|² partial rows, tiny driver merge —
    the full corpus never leaves the buckets."""
    ts_ds = transcripts_from_events(sf_dir)
    pruned = _prune(ts_ds, ["conv_id", "ts", "_seq", "role"])

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "ts", "_seq"], kind="mergesort").reset_index(drop=True)
        prev = g["role"].shift(1).where(g["conv_id"].eq(g["conv_id"].shift(1)))
        d = pd.DataFrame({"prev_role": prev, "role": g["role"]}).dropna(subset=["prev_role"])
        return d.groupby(["prev_role", "role"], as_index=False).size().rename(
            columns={"size": "n"}
        )

    parts = map_conv_buckets(pruned, kern, key="conv_id",
                             sort_cols=["conv_id", "ts", "_seq"]).to_pandas()
    out = parts.groupby(["prev_role", "role"], as_index=False)["n"].sum()
    out["n"] = out["n"].astype("int64")
    return out


SQL_ROLE_TRANSITIONS = f"""{_T},
l AS (SELECT role, LAG(role) OVER ({_W}) AS prev_role FROM t)
SELECT prev_role, role, COUNT(*) AS n
FROM l WHERE prev_role IS NOT NULL
GROUP BY prev_role, role
"""

QUERIES["role_transitions"] = q_role_transitions
ORACLES["role_transitions"] = SQL_ROLE_TRANSITIONS


# ---------------------------------------------------------------------------
# running extremes over strictly-prior turns (cumulative max/min) — the
# "best/worst outcome so far" point-in-time features; pure order statistics,
# no float arithmetic, hash-exact
# ---------------------------------------------------------------------------
def q_cummax(sf_dir: str):
    """Per turn: max and min of ``value`` over the conversation's STRICTLY
    prior turns (NULL on first turns) — same leakage contract as every
    other window feature. Vectorized: C-path groupby cummax/cummin, then a
    groupby shift(1)."""
    ts_ds = transcripts_from_events(sf_dir)
    pruned = _prune(ts_ds, ["conv_id", "ts", "_seq", "value"])

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "ts", "_seq"], kind="mergesort").reset_index(drop=True)
        grp = g.groupby("conv_id", sort=False)
        # ∓inf mask fill: pandas cummax/cummin emit NaN AT NaN positions
        # instead of carrying the running extreme through them, while the
        # SQL MAX/MIN window ignores NULLs; ±inf survives only while no
        # non-null value has been seen -> back to NULL, matching SQL
        v = g["value"]
        mx = (
            v.fillna(-np.inf).groupby(g["conv_id"], sort=False).cummax()
            .groupby(g["conv_id"], sort=False).shift(1)
        )
        mn = (
            v.fillna(np.inf).groupby(g["conv_id"], sort=False).cummin()
            .groupby(g["conv_id"], sort=False).shift(1)
        )
        mx = mx.where(np.isfinite(mx))
        mn = mn.where(np.isfinite(mn))
        turn_idx = grp.cumcount().astype("int32")
        return pd.DataFrame(
            {"conv_id": g["conv_id"], "turn_idx": turn_idx,
             "max_prior": round_half_away(mx.to_numpy(dtype="float64"), 6),
             "min_prior": round_half_away(mn.to_numpy(dtype="float64"), 6)}
        )

    return map_conv_buckets(pruned, kern, key="conv_id",
                            sort_cols=["conv_id", "ts", "_seq"])


SQL_CUMMAX = f"""{_T}
SELECT conv_id, turn_idx,
       ROUND(MAX(value) OVER ({_W} ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 6)
         AS max_prior,
       ROUND(MIN(value) OVER ({_W} ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 6)
         AS min_prior
FROM t
"""

QUERIES["w_cummax"] = q_cummax
ORACLES["w_cummax"] = SQL_CUMMAX


# ---------------------------------------------------------------------------
# expanding correlation between the value metric and the turn's token count
# over strictly-prior turns — cross-signal second-moment feature, computed
# from EXACT integer windowed moments (n, Σx, Σy, Σxy, Σx², Σy²); the float
# tail is num / (sqrt(denx) * sqrt(deny)) with the op order mirrored in the
# SQL, so the gate is hash-exact like agg_variance
# ---------------------------------------------------------------------------
def q_expanding_corr(sf_dir: str):
    ts_ds = transcripts_from_events(sf_dir)
    pruned = _prune(ts_ds, ["conv_id", "ts", "_seq", "text", "value"])

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "ts", "_seq"], kind="mergesort").reset_index(drop=True)
        # NULL-masked cents: a NULL value contributes 0 to every x-moment
        # (== SQL SUM's NULL-skip of x, x*y, x*x) while n stays COUNT(*).
        # (An unmasked NaN cast is wrap-immune for the SQUARE moments but
        # NOT for the x*y cross term — its 2^63 residue survives whenever
        # the null row's token count is odd.)
        v = g["value"].to_numpy(dtype="float64")
        x = np.where(np.isnan(v), 0.0, np.rint(v * 100.0)).astype(np.int64)
        low = g["text"].fillna("").str.lower()
        y = (low.str.count(" ").to_numpy(np.int64) + 1)  # ws tokens ('' -> 1)
        d = pd.DataFrame(
            {"x": x, "y": y, "xy": x * y, "x2": x * x, "y2": y * y, "one": np.int64(1)}
        )
        grp = d.groupby(g["conv_id"].to_numpy(), sort=False)
        cums = grp.cumsum()
        conv = g["conv_id"]
        prior = cums.groupby(conv.to_numpy(), sort=False).shift(1)
        n = prior["one"].to_numpy(np.float64)
        sx = prior["x"].to_numpy(np.float64)
        sy = prior["y"].to_numpy(np.float64)
        sxy = prior["xy"].to_numpy(np.float64)
        sx2 = prior["x2"].to_numpy(np.float64)
        sy2 = prior["y2"].to_numpy(np.float64)
        num = n * sxy - sx * sy
        denx = n * sx2 - sx * sx
        deny = n * sy2 - sy * sy
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = num / (np.sqrt(denx) * np.sqrt(deny))
        corr = np.where((n > 1) & (denx > 0) & (deny > 0), corr, np.nan)
        turn_idx = g.groupby("conv_id", sort=False).cumcount().astype("int32")
        return pd.DataFrame(
            {"conv_id": conv, "turn_idx": turn_idx,
             "corr_val_tokens": round_half_away(corr, 6)}
        )

    return map_conv_buckets(pruned, kern, key="conv_id",
                            sort_cols=["conv_id", "ts", "_seq"])


SQL_EXPANDING_CORR = f"""{_T},
b AS (
  SELECT conv_id, turn_idx, ts, _seq,
         CAST(ROUND(value * 100) AS BIGINT) AS x,
         CAST(len(string_split(lower(coalesce(text, '')), ' ')) AS BIGINT) AS y
  FROM t
),
m AS (
  SELECT conv_id, turn_idx,
         CAST(COUNT(*) OVER pw AS DOUBLE) AS n,
         CAST(SUM(x) OVER pw AS DOUBLE) AS sx,
         CAST(SUM(y) OVER pw AS DOUBLE) AS sy,
         CAST(SUM(x * y) OVER pw AS DOUBLE) AS sxy,
         CAST(SUM(x * x) OVER pw AS DOUBLE) AS sx2,
         CAST(SUM(y * y) OVER pw AS DOUBLE) AS sy2
  FROM b
  WINDOW pw AS ({_W} ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
)
SELECT conv_id, turn_idx,
       ROUND(CASE WHEN n > 1 AND (n * sx2 - sx * sx) > 0 AND (n * sy2 - sy * sy) > 0
             THEN (n * sxy - sx * sy)
                  / (sqrt(n * sx2 - sx * sx) * sqrt(n * sy2 - sy * sy))
             END, 6) AS corr_val_tokens
FROM m
"""

QUERIES["w_expanding_corr"] = q_expanding_corr
ORACLES["w_expanding_corr"] = SQL_EXPANDING_CORR


# ---------------------------------------------------------------------------
# gaps-and-islands: consecutive same-role streaks — island index and the
# running streak length at every turn (the "how long has the assistant been
# talking to itself" feature). ALL-INTEGER, hash-exact.
# ---------------------------------------------------------------------------
def q_streak(sf_dir: str):
    """Per turn: ``island`` = 1-based index of the current same-role run
    within the conversation, ``streak_len`` = position within that run.
    Vectorized islands: boundary mask (role change or conversation change)
    -> cumsum island ids -> cumcount within (conv, island)."""
    ts_ds = transcripts_from_events(sf_dir)
    pruned = _prune(ts_ds, ["conv_id", "ts", "_seq", "role"])

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "ts", "_seq"], kind="mergesort").reset_index(drop=True)
        new_conv = ~g["conv_id"].eq(g["conv_id"].shift(1))
        brk = (new_conv | ~g["role"].eq(g["role"].shift(1))).to_numpy()
        island_global = np.cumsum(brk)  # distinct id per run across the bucket
        island = (
            pd.Series(brk).groupby(g["conv_id"].to_numpy(), sort=False).cumsum()
            .to_numpy(np.int64)
        )
        streak = (
            pd.Series(np.ones(len(g), dtype=np.int64))
            .groupby(island_global, sort=False).cumsum().to_numpy(np.int64)
        )
        turn_idx = g.groupby("conv_id", sort=False).cumcount().astype("int32")
        return pd.DataFrame(
            {"conv_id": g["conv_id"], "turn_idx": turn_idx,
             "island": island, "streak_len": streak}
        )

    return map_conv_buckets(pruned, kern, key="conv_id",
                            sort_cols=["conv_id", "ts", "_seq"])


SQL_STREAK = f"""{_T},
g AS (
  SELECT conv_id, turn_idx, ts, _seq,
         CASE WHEN LAG(role) OVER ({_W}) IS DISTINCT FROM role
              THEN 1 ELSE 0 END AS brk
  FROM t
),
i AS (
  SELECT conv_id, turn_idx, ts, _seq,
         CAST(SUM(brk) OVER ({_W}) AS BIGINT) AS island
  FROM g
)
SELECT conv_id, turn_idx, island,
       CAST(ROW_NUMBER() OVER (PARTITION BY conv_id, island ORDER BY ts, _seq)
            AS BIGINT) AS streak_len
FROM i
"""

QUERIES["w_streak"] = q_streak
ORACLES["w_streak"] = SQL_STREAK

# ---------------------------------------------------------------------------
# FORWARD as-of join: the scheduling complement of asof_daily. Each turn is
# stamped with its conversation's value summary at the NEXT day close at or
# after the turn (direction='forward', inclusive) — the "end-of-day outcome"
# label-attachment pattern. Forward matches read the future by construction,
# so this op is for label/annotation attachment, never feature backfill
# (reference J7/W8 generalized the other way; SURVEY §2.6 W8).
# ---------------------------------------------------------------------------
def q_asof_forward(sf_dir: str):
    from nfl_feature_store_ray.state.asof import asof_join

    left, right = _asof_daily_sides(sf_dir, side_col="day_close_value")
    joined = asof_join(
        left, right, key="conv_id", on="ts",
        allow_exact_matches=True, direction="forward",
    )
    return joined.map_batches(
        lambda df: df[["conv_id", "_seq", "day_close_value"]], batch_format="pandas"
    )


SQL_ASOF_FORWARD = f"""{_T},
daily AS (
  SELECT conv_id, date_trunc('day', ts) + INTERVAL 1 DAY AS sts,
         ROUND(SUM(ROUND(value * 100)) / 100.0, 6) AS day_close_value
  FROM t GROUP BY conv_id, date_trunc('day', ts)
)
SELECT t.conv_id, t._seq, d.day_close_value
FROM t ASOF LEFT JOIN daily d ON t.conv_id = d.conv_id AND t.ts <= d.sts
"""

QUERIES["w_asof_forward"] = q_asof_forward
ORACLES["w_asof_forward"] = SQL_ASOF_FORWARD


# ---------------------------------------------------------------------------
# Conversation reassembly: the per-turn-text-equality contract made into a
# gated query — every conversation's turns concatenated in stable
# (ts, _seq) order with an unambiguous separator. Byte-identical output vs
# the SQL string_agg oracle pins BOTH text round-tripping and ordering
# (north rule: "per-turn text equality under stable (conv_id, turn_idx)
# ordering"). Kernel is polars group_by + str.join (native, no Python loop).
# ---------------------------------------------------------------------------
def q_conv_text(sf_dir: str):
    ts_ds = transcripts_from_events(sf_dir)
    pruned = _prune(ts_ds, ["conv_id", "ts", "_seq", "text"])

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        import polars as pl

        lf = (
            pl.from_pandas(g)
            .sort(["conv_id", "ts", "_seq"])
            .group_by("conv_id", maintain_order=True)
            .agg(
                conv_text=pl.col("text").fill_null("").str.join("\x1f"),
                n_turns=pl.len().cast(pl.Int64),
            )
        )
        return lf.to_pandas()

    return map_conv_buckets(pruned, kern, key="conv_id", sort_cols=["conv_id", "ts", "_seq"])


SQL_CONV_TEXT = f"""{_T}
SELECT conv_id,
       string_agg(COALESCE(text, ''), CHR(31) ORDER BY ts, _seq) AS conv_text,
       COUNT(*) AS n_turns
FROM t GROUP BY conv_id
"""

QUERIES["w_conv_text"] = q_conv_text
ORACLES["w_conv_text"] = SQL_CONV_TEXT


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
# Set operations (INTERSECT / EXCEPT) — absent in the reference (SURVEY
# §2.7 O5), added for completeness: conversations active on the corpus's
# first day intersected with / minus those active on the following day.
# Shape: per-batch distinct (conv, which-day) flags pruned to the two days
# -> one conv shuffle -> per-conv boolean algebra. The global first day is
# a bounded partial-min fold, never a driver full read.
# ---------------------------------------------------------------------------
def q_set_ops_convs(sf_dir: str):
    ts = transcripts_from_events(sf_dir)

    day_min = ts.map_batches(
        lambda df: pd.DataFrame({"d": [df["ts"].astype("datetime64[us]").dt.floor("D").min()]}),
        batch_format="pandas",
    ).to_pandas()["d"].min()  # bounded: one row per block
    d1 = pd.Timestamp(day_min)
    d2 = d1 + pd.Timedelta(days=1)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        day = df["ts"].astype("datetime64[us]").dt.floor("D")
        sel = df.loc[day.isin([d1, d2]), ["conv_id"]].assign(on_d1=(day == d1)[day.isin([d1, d2])])
        return sel.drop_duplicates()

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        # a conv appears with on_d1 True (active d1) and/or False (active d2)
        active_d1 = g[g["on_d1"]].groupby("conv_id").size()
        active_d2 = g[~g["on_d1"]].groupby("conv_id").size()
        s1, s2 = set(active_d1.index), set(active_d2.index)
        inter = sorted(s1 & s2)
        exc = sorted(s1 - s2)
        return pd.DataFrame(
            {
                "op": ["intersect"] * len(inter) + ["except"] * len(exc),
                "conv_id": inter + exc,
            }
        )

    partials = ts.map_batches(partial, batch_format="pandas")
    return map_conv_buckets(partials, bucket_fn, key="conv_id",
                            sort_cols=["conv_id"], num_buckets=16)


SQL_SET_OPS_CONVS = f"""{_T},
d0 AS (SELECT MIN(date_trunc('day', ts)) AS d1 FROM t),
a1 AS (SELECT DISTINCT conv_id FROM t, d0 WHERE date_trunc('day', ts) = d1),
a2 AS (SELECT DISTINCT conv_id FROM t, d0 WHERE date_trunc('day', ts) = d1 + INTERVAL 1 DAY)
SELECT 'intersect' AS op, conv_id FROM (SELECT conv_id FROM a1 INTERSECT SELECT conv_id FROM a2)
UNION ALL
SELECT 'except' AS op, conv_id FROM (SELECT conv_id FROM a1 EXCEPT SELECT conv_id FROM a2)
"""

QUERIES["set_ops_convs"] = q_set_ops_convs
ORACLES["set_ops_convs"] = SQL_SET_OPS_CONVS


# ---------------------------------------------------------------------------
# Text normalization with byte-identical parity: lower -> replace every
# non-[a-z0-9 ] CODE POINT with a space -> collapse space runs -> trim.
# Engine uses pyarrow's RE2 kernels; DuckDB's regexp_replace is also RE2,
# so the semantics (including multi-byte code points) match exactly — the
# per-turn text-equality contract exercised through a transform instead of
# a passthrough. Shuffle-free.
# ---------------------------------------------------------------------------
def q_clean_text(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc

    ts = transcripts_from_events(sf_dir)

    def clean(batch: pa.Table) -> pa.Table:
        low = pc.utf8_lower(pc.coalesce(batch["text"], pa.scalar("")))
        repl = pc.replace_substring_regex(low, pattern="[^a-z0-9 ]", replacement=" ")
        collapsed = pc.replace_substring_regex(repl, pattern=" +", replacement=" ")
        return pa.table(
            {
                "conv_id": batch["conv_id"],
                "_seq": batch["_seq"],
                "clean_text": pc.utf8_trim(collapsed, characters=" "),
            }
        )

    return ts.map_batches(clean, batch_format="pyarrow")


SQL_CLEAN_TEXT = f"""{_T}
SELECT conv_id, _seq,
       trim(regexp_replace(regexp_replace(lower(coalesce(text, '')),
                                          '[^a-z0-9 ]', ' ', 'g'),
                           ' +', ' ', 'g'), ' ') AS clean_text
FROM t
"""

QUERIES["clean_text"] = q_clean_text
ORACLES["clean_text"] = SQL_CLEAN_TEXT


# ---------------------------------------------------------------------------
# Expanding distinct count: number of DISTINCT tools the conversation has
# used up to and including each turn. Vectorized first-occurrence flags
# (duplicated()) + per-conv cumsum; SQL mirrors with the ROW_NUMBER()=1
# first-occurrence trick (COUNT(DISTINCT) OVER is unsupported in DuckDB).
# ---------------------------------------------------------------------------
def q_expanding_distinct(sf_dir: str):
    ts_ds = transcripts_from_events(sf_dir)
    pruned = _prune(ts_ds, ["conv_id", "ts", "_seq", "tool"])

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "ts", "_seq"], kind="mergesort").reset_index(drop=True)
        first = (~g.duplicated(["conv_id", "tool"])) & g["tool"].notna()
        n_dist = first.groupby(g["conv_id"].to_numpy(), sort=False).cumsum()
        return pd.DataFrame(
            {
                "conv_id": g["conv_id"],
                "turn_idx": g.groupby("conv_id", sort=False).cumcount().astype("int32"),
                "n_distinct_tools": n_dist.to_numpy(np.int64),
            }
        )

    return map_conv_buckets(pruned, kern, key="conv_id", sort_cols=["conv_id", "ts", "_seq"])


SQL_EXPANDING_DISTINCT = f"""{_T},
f AS (
  SELECT conv_id, turn_idx, ts, _seq,
         CASE WHEN tool IS NOT NULL
                   AND ROW_NUMBER() OVER (PARTITION BY conv_id, tool ORDER BY ts, _seq) = 1
              THEN 1 ELSE 0 END AS first_occ
  FROM t
)
SELECT conv_id, turn_idx,
       CAST(SUM(first_occ) OVER ({_W} ROWS UNBOUNDED PRECEDING) AS BIGINT)
         AS n_distinct_tools
FROM f
"""

QUERIES["w_expanding_distinct"] = q_expanding_distinct
ORACLES["w_expanding_distinct"] = SQL_EXPANDING_DISTINCT


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
# hopping (sliding-step) event-time windows — the generalization of
# w_tumbling to overlapping windows: width 6h, hop 2h, so every turn lands
# in exactly width/hop = 3 windows. The per-batch partial REPLICATES each
# pre-aggregated (conv, window) contribution once per hop offset (x3 on the
# tiny partial rows, not the raw stream), then the same one-shuffle spine
# as w_tumbling merges window totals. Streaming analogue of Flink/Beam
# hopping windows; exact integer cents throughout.
# ---------------------------------------------------------------------------
HOP_S = 2 * 3600
HOP_WIDTH_S = 6 * 3600
_HOP_K = HOP_WIDTH_S // HOP_S  # 3 windows per row


def q_hopping(sf_dir: str):
    ts = transcripts_from_events(sf_dir)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        base = (df["ts"].astype("datetime64[us]").astype("int64")
                // (HOP_S * 1_000_000)).astype("int64")
        v = df["value"].to_numpy(dtype="float64")
        m = ~np.isnan(v)  # NULL-masked cents (r03 ADVICE: NaN->int wraps)
        d = pd.DataFrame(
            {"conv_id": df["conv_id"], "m0": base,
             "vc": np.where(m, np.rint(v * 100.0), 0.0).astype(np.int64),
             "nn": m.astype(np.int64),
             "n": np.int64(1)}
        )
        # pre-aggregate at the finest hop grain FIRST, then replicate the
        # small partial rows per offset k (ships 3x partials, not 3x rows)
        g = d.groupby(["conv_id", "m0"], as_index=False).agg(
            n=("n", "sum"), c=("vc", "sum"), nn=("nn", "sum"))
        reps = []
        for k in range(_HOP_K):
            r = g.copy()
            r["m"] = r["m0"] - k
            reps.append(r)
        out = pd.concat(reps, ignore_index=True)
        return out[["conv_id", "m", "n", "c", "nn"]]

    def final(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby(["conv_id", "m"], as_index=False)[["n", "c", "nn"]].sum()
        cf = np.where(g["nn"].to_numpy() > 0, g["c"].to_numpy(np.float64), np.nan)
        return pd.DataFrame(
            {"conv_id": g["conv_id"],
             "win_start": (g["m"] * HOP_S).astype("int64"),
             "n_turns": g["n"].astype("int64"),
             "sum_value": round_half_away(cf / 100.0, 6)}
        )

    partials = ts.map_batches(partial, batch_format="pandas")
    return map_conv_buckets(
        partials, final, key=["conv_id", "m"], sort_cols=["conv_id", "m"]
    )


SQL_HOPPING = f"""{_T},
r AS (SELECT unnest(range({_HOP_K})) AS k),
d AS (
  SELECT conv_id,
         (CAST(FLOOR(epoch(ts) / {HOP_S}) AS BIGINT) - k) * {HOP_S} AS win_start,
         ROUND(value * 100) AS vc
  FROM t, r
)
SELECT conv_id, win_start, COUNT(*) AS n_turns,
       ROUND(SUM(vc) / 100.0, 6) AS sum_value
FROM d GROUP BY 1, 2
"""

QUERIES["w_hopping"] = q_hopping
ORACLES["w_hopping"] = SQL_HOPPING


# ---------------------------------------------------------------------------
# assistant response latency — per non-assistant turn, seconds until the
# NEXT assistant turn in the same conversation (NULL when none follows):
# the dialogue-quality metric every conversational corpus pipeline reports.
# Forward-looking by design (a LABEL, like w_lead_label — excluded from the
# leakage contract by name). Engine: one REVERSED masked cummin of the
# assistant timestamps per conversation — no per-row loops, no join.
# ---------------------------------------------------------------------------
def q_response_latency(sf_dir: str):
    ts = _prune(transcripts_from_events(sf_dir), ["conv_id", "ts", "_seq", "role"])

    def bucket_fn(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("conv_id", sort=False)
        t_us = df["ts"].astype("datetime64[us]").astype("int64")
        # +inf (not NaN) as the mask filler: pandas cummin emits NaN AT NaN
        # positions instead of carrying the running min through them
        at = t_us.where(df["role"].to_numpy() == "assistant").fillna(np.inf)
        # next assistant ts at or after each row = reversed cummin of the
        # masked series; shift(-1) within the group makes it STRICTLY after
        nxt = (
            at.iloc[::-1].groupby(df["conv_id"].iloc[::-1], sort=False)
            .cummin().iloc[::-1]
        )
        nxt = nxt.groupby(df["conv_id"], sort=False).shift(-1)
        nv = nxt.to_numpy()
        nv = np.where(np.isinf(nv), np.nan, nv)
        lat = (nv - t_us.to_numpy()) / 1e6
        return pd.DataFrame(
            {"conv_id": df["conv_id"],
             "turn_idx": g.cumcount().astype("int32"),
             "role": df["role"],
             "latency_s": round_half_away(lat, 6)}
        )

    return map_conv_buckets(ts, bucket_fn)


# careful: engine divides the µs delta by 1e6 ONCE; the SQL mirrors with
# (epoch_us(next) - epoch_us(ts)) / 1000000.0 — identical single division
SQL_RESPONSE_LATENCY = f"""{_T},
n AS (
  SELECT conv_id, turn_idx, role, epoch_us(ts) AS t_us,
         MIN(CASE WHEN role = 'assistant' THEN epoch_us(ts) END) OVER
           ({_W} ROWS BETWEEN 1 FOLLOWING AND UNBOUNDED FOLLOWING) AS nxt_us
  FROM t
)
SELECT conv_id, turn_idx, role,
       ROUND((nxt_us - t_us) / 1000000.0, 6) AS latency_s
FROM n
"""

QUERIES["w_response_latency"] = q_response_latency
ORACLES["w_response_latency"] = SQL_RESPONSE_LATENCY


# ---------------------------------------------------------------------------
# sequential pattern counts — MATCH_RECOGNIZE reduced to its common fixed
# cases: per conversation, how often does (user -> assistant) adjacency and
# the full (user -> assistant -> tool) trigram occur? Shifted role
# comparisons inside conversation buckets (never across boundaries);
# all-integer output. The dialogue-structure counterpart of
# role_transitions at the per-conversation grain.
# ---------------------------------------------------------------------------
def q_pattern_count(sf_dir: str):
    ts = _prune(transcripts_from_events(sf_dir), ["conv_id", "ts", "_seq", "role"])

    def bucket_fn(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("conv_id", sort=False)
        r = df["role"].to_numpy(object)
        p1 = g["role"].shift(1).to_numpy(object)
        p2 = g["role"].shift(2).to_numpy(object)
        ua = (p1 == "user") & (r == "assistant")
        uat = (p2 == "user") & (p1 == "assistant") & (r == "tool")
        d = pd.DataFrame({"conv_id": df["conv_id"],
                          "n_ua": ua.astype(np.int64),
                          "n_uat": uat.astype(np.int64),
                          "n": np.int64(1)})
        out = d.groupby("conv_id", as_index=False).sum()
        out["n_turns"] = out.pop("n").astype("int64")
        return out[["conv_id", "n_turns", "n_ua", "n_uat"]]

    return map_conv_buckets(ts, bucket_fn)


SQL_PATTERN_COUNT = f"""{_T},
l AS (
  SELECT conv_id, role,
         LAG(role) OVER ({_W}) AS p1,
         LAG(role, 2) OVER ({_W}) AS p2
  FROM t
)
SELECT conv_id, COUNT(*) AS n_turns,
       CAST(COUNT(*) FILTER (WHERE p1 = 'user' AND role = 'assistant') AS BIGINT) AS n_ua,
       CAST(COUNT(*) FILTER (WHERE p2 = 'user' AND p1 = 'assistant' AND role = 'tool')
            AS BIGINT) AS n_uat
FROM l GROUP BY conv_id
"""

QUERIES["w_pattern_count"] = q_pattern_count
ORACLES["w_pattern_count"] = SQL_PATTERN_COUNT


# ---------------------------------------------------------------------------
# consecutive-duplicate compaction — drop turns whose text exactly repeats
# the previous turn's text in the same conversation (keep the first of each
# run): the stream-compaction dedup for stuttering agent loops, complement
# of w_turn_overlap's detector. NULL-safe semantics mirror SQL's
# IS DISTINCT FROM (NULL after NULL is NOT distinct -> dropped).
# ---------------------------------------------------------------------------
def q_dedup_consecutive(sf_dir: str):
    ts = _prune(transcripts_from_events(sf_dir), ["conv_id", "ts", "_seq", "text"])

    def bucket_fn(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("conv_id", sort=False)
        txt = df["text"]
        prev = g["text"].shift(1)
        same = (txt == prev) | (txt.isna() & prev.isna())
        out = df.assign(turn_idx=g.cumcount().astype("int32"))[~same.to_numpy()]
        return out[["conv_id", "turn_idx", "text"]]

    return map_conv_buckets(ts, bucket_fn)


SQL_DEDUP_CONSECUTIVE = f"""{_T},
l AS (
  SELECT conv_id, turn_idx, text, LAG(text) OVER ({_W}) AS prev
  FROM t
)
SELECT conv_id, turn_idx, text
FROM l WHERE text IS DISTINCT FROM prev
"""

QUERIES["dedup_consecutive"] = q_dedup_consecutive
ORACLES["dedup_consecutive"] = SQL_DEDUP_CONSECUTIVE


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
# sessionization machinery (session_stats) and a conditional MIN; µs
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


# ---------------------------------------------------------------------------
# Rolling MODE over a bounded domain: most frequent role in the trailing
# 5-turn window (4 PRECEDING..CURRENT ROW) per conversation — the windowed
# categorical-mode family (A2/A5/A8's deterministic mode, windowed). The
# role domain is exactly {assistant, tool, user}, so the kernel keeps ONE
# rolling count per value (shifted-indicator sums with conversation-
# boundary masking — no sort-within-window, no hash map) and argmax with
# the pinned tie rule (count DESC, role ASC; np.argmax returns the first
# maximum, and the rows are ordered role-ascending). At 100 TB this is the
# right mode shape whenever the domain is bounded.
# ---------------------------------------------------------------------------
ROLLING_MODE_W = 5
_MODE_ROLES = ("assistant", "tool", "user")  # ascending = tie priority


def q_rolling_mode(sf_dir: str):
    ts_ds = transcripts_from_events(sf_dir)
    pruned = _prune(ts_ds, ["conv_id", "ts", "_seq", "role"])

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "ts", "_seq"], kind="mergesort").reset_index(drop=True)
        n = len(g)
        codes = pd.factorize(g["conv_id"])[0].astype(np.int64)
        role = g["role"].to_numpy()
        counts = np.zeros((len(_MODE_ROLES), n), dtype=np.int64)
        for ri, r in enumerate(_MODE_ROLES):
            ind = (role == r).astype(np.int64)
            c = ind.copy()
            for k in range(1, ROLLING_MODE_W):
                if n > k:
                    c[k:] += ind[:-k] * (codes[k:] == codes[:-k])
            counts[ri] = c
        pick = counts.argmax(axis=0)
        turn_idx = g.groupby("conv_id", sort=False).cumcount().astype("int32")
        return pd.DataFrame(
            {"conv_id": g["conv_id"], "turn_idx": turn_idx,
             "mode_role": np.array(_MODE_ROLES, dtype=object)[pick],
             "mode_cnt": counts.max(axis=0)}
        )

    return map_conv_buckets(pruned, kern, key="conv_id",
                            sort_cols=["conv_id", "ts", "_seq"])


SQL_ROLLING_MODE = f"""{_T},
c AS (
  SELECT conv_id, turn_idx,
         SUM(CASE WHEN role = 'assistant' THEN 1 ELSE 0 END) OVER w AS ca,
         SUM(CASE WHEN role = 'tool' THEN 1 ELSE 0 END) OVER w AS ct,
         SUM(CASE WHEN role = 'user' THEN 1 ELSE 0 END) OVER w AS cu
  FROM t
  WINDOW w AS ({_W} ROWS BETWEEN {ROLLING_MODE_W - 1} PRECEDING AND CURRENT ROW)
)
SELECT conv_id, turn_idx,
       CASE WHEN ca >= ct AND ca >= cu THEN 'assistant'
            WHEN ct >= cu THEN 'tool' ELSE 'user' END AS mode_role,
       CAST(GREATEST(ca, ct, cu) AS BIGINT) AS mode_cnt
FROM c
"""

QUERIES["w_rolling_mode"] = q_rolling_mode
ORACLES["w_rolling_mode"] = SQL_ROLLING_MODE


# ---------------------------------------------------------------------------
# NEAREST as-of join — completes the direction family (backward =
# asof_daily, forward = w_asof_forward, toleranced = asof_tolerance).
# Each turn is stamped with its conversation's day summary whose
# availability time is CLOSEST to the turn in either direction, with the
# equal-distance tie pinned to backward inside the bucket kernel
# (state/asof.py) — the "closest checkpoint" annotation-attachment
# pattern. SQL = both-direction ASOF joins + a distance CASE, exactly the
# kernel's pick rule.
# ---------------------------------------------------------------------------
def q_asof_nearest(sf_dir: str):
    from nfl_feature_store_ray.state.asof import asof_join

    left, right = _asof_daily_sides(sf_dir, side_col="near_day_value")
    joined = asof_join(
        left, right, key="conv_id", on="ts",
        allow_exact_matches=True, direction="nearest",
    )
    return joined.map_batches(
        lambda df: df[["conv_id", "_seq", "near_day_value"]], batch_format="pandas"
    )


SQL_ASOF_NEAREST = f"""{_T},
daily AS (
  SELECT conv_id, date_trunc('day', ts) + INTERVAL 1 DAY AS sts,
         ROUND(SUM(ROUND(value * 100)) / 100.0, 6) AS day_value
  FROM t GROUP BY conv_id, date_trunc('day', ts)
)
SELECT t.conv_id, t._seq,
       CASE WHEN b.sts IS NULL THEN f.day_value
            WHEN f.sts IS NULL THEN b.day_value
            WHEN (t.ts - b.sts) <= (f.sts - t.ts) THEN b.day_value
            ELSE f.day_value END AS near_day_value
FROM t
ASOF LEFT JOIN daily b ON t.conv_id = b.conv_id AND t.ts >= b.sts
ASOF LEFT JOIN daily f ON t.conv_id = f.conv_id AND t.ts <= f.sts
"""

QUERIES["asof_nearest"] = q_asof_nearest
ORACLES["asof_nearest"] = SQL_ASOF_NEAREST


# ---------------------------------------------------------------------------
# Late-arrival audit: per conversation, how many events arrived (by _seq,
# the physical ingestion order) with a timestamp BEHIND the running
# event-time maximum, and how far behind at worst — the out-of-orderness
# profile that sizes streaming watermarks (the window kernel's carried
# watermark guard is exactly this bound). Kernel: one vectorized running
# max over arrival order inside the conversation bucket; lateness in
# exact integer MICROseconds (epoch-seconds doubles would round
# differently across engines).
# ---------------------------------------------------------------------------
def q_late_events(sf_dir: str):
    ts_ds = transcripts_from_events(sf_dir)
    pruned = _prune(ts_ds, ["conv_id", "ts", "_seq"])

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "_seq"], kind="mergesort").reset_index(drop=True)
        codes = pd.factorize(g["conv_id"])[0]
        t = g["ts"].astype("datetime64[us]")
        cmax = t.groupby(codes, sort=False).cummax()
        prior = cmax.shift()
        prior[np.concatenate([[True], codes[1:] != codes[:-1]])] = pd.NaT
        late = t < prior
        lateness = ((prior - t).dt.total_seconds() * 1e6).round()
        d = pd.DataFrame({"conv_id": g["conv_id"], "late": late.astype(np.int64),
                          "lus": np.where(late, lateness, np.nan)})
        out = d.groupby("conv_id", as_index=False).agg(
            n_events=("late", "size"), n_late=("late", "sum"),
            max_lateness_us=("lus", "max"),
        )
        out["n_events"] = out["n_events"].astype("int64")
        out["n_late"] = out["n_late"].astype("int64")
        out["max_lateness_us"] = out["max_lateness_us"].fillna(0).astype("int64")
        return out

    return map_conv_buckets(pruned, kern, key="conv_id",
                            sort_cols=["conv_id", "_seq"])


SQL_LATE_EVENTS = f"""{_T},
x AS (
  SELECT conv_id, ts,
         MAX(ts) OVER (PARTITION BY conv_id ORDER BY _seq
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS prior_max
  FROM t
)
SELECT conv_id, COUNT(*) AS n_events,
       CAST(SUM(CASE WHEN ts < prior_max THEN 1 ELSE 0 END) AS BIGINT) AS n_late,
       CAST(COALESCE(MAX(CASE WHEN ts < prior_max
                          THEN date_diff('microsecond', ts, prior_max) END), 0)
            AS BIGINT) AS max_lateness_us
FROM x GROUP BY conv_id
"""

QUERIES["w_late_events"] = q_late_events
ORACLES["w_late_events"] = SQL_LATE_EVENTS


# ---------------------------------------------------------------------------
# GROUPS-mode window frame (peer-group-aware rolling): per turn, the
# cents-exact value sum over the current ts-PEER GROUP and one preceding
# peer group within the conversation — SQL's `GROUPS BETWEEN 1 PRECEDING
# AND CURRENT ROW`, the frame mode that differs from ROWS exactly when
# timestamps tie (every tied row sees its whole peer group). DuckDB has
# not implemented GROUPS mode, so the oracle is the equivalence rewrite
# (DENSE_RANK peer index → per-group sums → LAG) — the engine kernel
# supports the mode natively: one change-flag scan assigns peer indices,
# two grouped transforms build group sums, all vectorized in the same
# one-shuffle conversation bucket.
# ---------------------------------------------------------------------------
def q_groups_frame(sf_dir: str):
    ts_ds = transcripts_from_events(sf_dir)
    pruned = _prune(ts_ds, ["conv_id", "ts", "_seq", "value"])

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "ts", "_seq"], kind="mergesort").reset_index(drop=True)
        codes = pd.factorize(g["conv_id"])[0]
        newc = np.concatenate([[True], codes[1:] != codes[:-1]])
        t = g["ts"].to_numpy()
        newg = newc | np.concatenate([[True], t[1:] != t[:-1]])
        gi = pd.Series(newg.astype(np.int64)).groupby(codes, sort=False).cumsum()
        # NULL-masked cents (r03 ADVICE): an all-NULL peer group's own
        # grp_sum is NULL in SQL (gc NULL propagates through wc), but its
        # contribution to the NEXT group is 0 (COALESCE(LAG(gc), 0) — a
        # masked 0 reproduces that), hence nn per peer group.
        v = g["value"].to_numpy(dtype="float64")
        mnn = ~np.isnan(v)
        xc = np.where(mnn, np.rint(v * 100.0), 0.0).astype(np.int64)
        d = pd.DataFrame({"c": codes, "gi": gi, "xc": xc,
                          "nn": mnn.astype(np.int64)})
        grp = d.groupby(["c", "gi"], sort=False)
        gc = grp["xc"].transform("sum")
        gnn = grp["nn"].transform("sum").to_numpy(np.int64)
        # previous peer group's sum: first-row-of-group lookup shifted one
        firsts = d.loc[newg, ["c", "gi"]].assign(gc=gc[newg].to_numpy())
        firsts["prev"] = firsts.groupby("c", sort=False)["gc"].shift().fillna(0)
        m = d.merge(firsts[["c", "gi", "prev"]], on=["c", "gi"], how="left")
        total = np.where(
            gnn > 0,
            (gc.to_numpy(np.int64) + m["prev"].to_numpy(np.int64)).astype(np.float64),
            np.nan,
        )
        turn_idx = g.groupby("conv_id", sort=False).cumcount().astype("int32")
        return pd.DataFrame(
            {"conv_id": g["conv_id"], "turn_idx": turn_idx,
             "grp_sum": round_half_away(total / 100.0, 6)}
        )

    return map_conv_buckets(pruned, kern, key="conv_id",
                            sort_cols=["conv_id", "ts", "_seq"])


SQL_GROUPS_FRAME = f"""{_T},
g AS (
  SELECT conv_id, turn_idx, ts, value,
         DENSE_RANK() OVER (PARTITION BY conv_id ORDER BY ts) AS gi
  FROM t
),
gs AS (
  SELECT conv_id, gi, SUM(ROUND(value * 100)) AS gc
  FROM g GROUP BY conv_id, gi
),
w AS (
  SELECT conv_id, gi,
         gc + COALESCE(LAG(gc) OVER (PARTITION BY conv_id ORDER BY gi), 0) AS wc
  FROM gs
)
SELECT g.conv_id, g.turn_idx, ROUND(w.wc / 100.0, 6) AS grp_sum
FROM g JOIN w ON g.conv_id = w.conv_id AND g.gi = w.gi
"""

QUERIES["w_groups_frame"] = q_groups_frame
ORACLES["w_groups_frame"] = SQL_GROUPS_FRAME


# ---------------------------------------------------------------------------
# Leave-one-out target encoding per (day, role): each turn's encoding is
# the mean value of all OTHER same-day same-role turns — the classic
# leakage-safe categorical encoder (plain group-mean encoding leaks the
# row's own target; LOO subtracts it: (S - x_i) / (N - 1), NULL for
# singleton groups). Scale shape: the (day, role) stats table is BOUNDED
# (days x 3 roles), so it reduces via per-batch integer-cent partials to
# a tiny driver merge, broadcasts once through the object store, and the
# encode pass is a SHUFFLE-FREE map — the group-stats-join-back pattern
# done without a join.
# ---------------------------------------------------------------------------
def q_target_encode(sf_dir: str):
    import ray as _ray
    from nfl_feature_store_ray.functions.broadcast import cached_object_get

    ts = transcripts_from_events(sf_dir)
    pruned = _prune(ts, ["conv_id", "ts", "_seq", "role", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # NULL-masked cents (r03 ADVICE): sc skips NULL values like SQL SUM
        # while n stays COUNT(*); a NULL row's own encoding goes NaN in the
        # encode pass anyway (sc - NaN), matching the oracle's NULL.
        v = df["value"].to_numpy(dtype="float64")
        m = ~np.isnan(v)
        d = pd.DataFrame(
            {"day": df["ts"].astype("datetime64[us]").dt.floor("D"),
             "role": df["role"],
             "xc": np.where(m, np.rint(v * 100.0), 0.0).astype(np.int64)}
        )
        return d.groupby(["day", "role"], as_index=False).agg(
            sc=("xc", "sum"), n=("xc", "size")
        )

    parts = pruned.map_batches(partial, batch_format="pandas").to_pandas()
    if parts.empty:  # zero-block Dataset loses columns; rebuild the schema
        parts = pd.DataFrame({"day": pd.Series([], dtype="datetime64[us]"),
                              "role": pd.Series([], dtype=object),
                              "sc": pd.Series([], dtype="int64"),
                              "n": pd.Series([], dtype="int64")})
    stats = parts.groupby(["day", "role"], as_index=False).agg(
        sc=("sc", "sum"), n=("n", "sum")
    )
    stats_ref = _ray.put(stats.set_index(["day", "role"]))

    def encode(df: pd.DataFrame) -> pd.DataFrame:
        st = cached_object_get(stats_ref)
        day = df["ts"].astype("datetime64[us]").dt.floor("D")
        key = pd.MultiIndex.from_arrays([day, df["role"]])
        sc = st["sc"].reindex(key).to_numpy(np.float64)
        n = st["n"].reindex(key).to_numpy(np.float64)
        xc = np.rint(df["value"].to_numpy() * 100.0)
        loo = np.where(n > 1,
                       round_half_away((sc - xc) / (100.0 * (n - 1)), 6), np.nan)
        return pd.DataFrame(
            {"conv_id": df["conv_id"], "_seq": df["_seq"],
             "loo_role_day_mean": loo}
        )

    return pruned.map_batches(encode, batch_format="pandas")


SQL_TARGET_ENCODE = f"""{_T},
s AS (
  SELECT date_trunc('day', ts) AS day, role,
         SUM(ROUND(value * 100)) AS sc, COUNT(*) AS n
  FROM t GROUP BY 1, 2
)
SELECT t.conv_id, t._seq,
       CASE WHEN s.n > 1
            THEN ROUND((s.sc - ROUND(t.value * 100)) / (100.0 * (s.n - 1)), 6)
       END AS loo_role_day_mean
FROM t JOIN s ON date_trunc('day', t.ts) = s.day AND t.role = s.role
"""

QUERIES["target_encode"] = q_target_encode
ORACLES["target_encode"] = SQL_TARGET_ENCODE


# ---------------------------------------------------------------------------
# Per-day min-max normalization — the [0, 1] feature scaling within a
# cohort (the complement of z-score standardization): exact integer
# min/max per day, ONE float division mirrored in the SQL. NULL values
# stay NULL; a constant day (max == min) is NULL (SQL NULLIF); all-NULL
# days have NULL bounds.
# ---------------------------------------------------------------------------
def q_minmax_day(sf_dir: str):
    ts = transcripts_from_events(sf_dir)
    pruned = _prune(ts, ["conv_id", "_seq", "ts", "value"])

    def norm(g: pd.DataFrame) -> pd.DataFrame:
        day = g["ts"].astype("datetime64[us]").dt.floor("D")
        v = g["value"].to_numpy(dtype="float64")
        vc = np.rint(v * 100.0)
        dd = pd.DataFrame({"day": day, "vc": vc})
        grp = dd.groupby("day", sort=False)["vc"]
        lo = grp.transform("min").to_numpy()   # pandas min/max skip NaN
        hi = grp.transform("max").to_numpy()
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(hi > lo, (vc - lo) / (hi - lo), np.nan)
        return pd.DataFrame(
            {"conv_id": g["conv_id"], "_seq": g["_seq"],
             "mm_value": round_half_away(out, 6)}
        )

    return map_conv_buckets(
        pruned.map_batches(
            lambda df: df.assign(day=df["ts"].astype("datetime64[us]").dt.floor("D")),
            batch_format="pandas"),
        norm, key="day", sort_cols=["day", "conv_id", "_seq"], num_buckets=32)


SQL_MINMAX_DAY = f"""{_T},
c AS (
  SELECT conv_id, _seq, date_trunc('day', ts) AS day,
         ROUND(value * 100) AS vc
  FROM t
),
s AS (SELECT day, MIN(vc) AS lo, MAX(vc) AS hi FROM c GROUP BY day)
SELECT c.conv_id, c._seq,
       ROUND(CASE WHEN s.hi > s.lo THEN (c.vc - s.lo) / (s.hi - s.lo) END, 6)
         AS mm_value
FROM c JOIN s USING (day)
"""

QUERIES["minmax_day"] = q_minmax_day
ORACLES["minmax_day"] = SQL_MINMAX_DAY


# ---------------------------------------------------------------------------
# Trailing 7-day rolling mean over the DENSE day grid — W2 x W4: the
# reference's weekly trailing form windows generalized to a gap-filled
# calendar (missing days carry the last observed daily total, so a
# conversation quiet for three days still decays its trailing mean the
# way a calendar feature should). Same one-conv-shuffle + in-bucket grid
# as w_densify; the rolling mean is an exact integer cumsum difference
# (never pandas rolling().mean(), whose sliding compensation is not
# reproducible against SQL AVG).
# ---------------------------------------------------------------------------
ROLL_GRID_DAYS = 7


def q_rolling_grid7(sf_dir: str):
    ts = transcripts_from_events(sf_dir)

    def kern(df: pd.DataFrame) -> pd.DataFrame:
        daily = _daily_cents(df)
        span = daily.groupby("conv_id")["day"].agg(lo="min", hi="max")
        g = _dense_day_grid(daily, span["lo"], span["hi"])
        conv = g["conv_id"]
        filled = g["day_c"].groupby(conv, sort=False).ffill().to_numpy()
        m = ~np.isnan(filled)
        vals = np.where(m, filled, 0.0)
        ones = m.astype(np.float64)
        # per-conv trailing-7 sums via cumsum difference (window includes
        # the current day; NULL cells — only possible while the leading
        # days are all-NULL — contribute nothing, like SQL AVG)
        d_ = pd.DataFrame({"v": vals, "n": ones})
        cs = d_.groupby(conv.to_numpy(), sort=False).cumsum()
        lag = cs.groupby(conv.to_numpy(), sort=False).shift(ROLL_GRID_DAYS).fillna(0.0)
        s7 = cs["v"].to_numpy() - lag["v"].to_numpy()
        n7 = cs["n"].to_numpy() - lag["n"].to_numpy()
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(n7 > 0, s7 / (100.0 * n7), np.nan)
        return pd.DataFrame(
            {"conv_id": conv, "day": g["day"].astype("datetime64[us]"),
             "roll7_value": round_half_away(out, 6)}
        )

    return map_conv_buckets(_prune(ts, ["conv_id", "ts", "_seq", "value"]), kern,
                            key="conv_id", sort_cols=["conv_id", "ts", "_seq"])


SQL_ROLLING_GRID7 = f"""{_T},
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
  SELECT conv_id, day,
         LAST_VALUE(day_c IGNORE NULLS)
           OVER (PARTITION BY conv_id ORDER BY day) AS filled_c
  FROM g2
)
SELECT conv_id, day,
       ROUND(SUM(filled_c) OVER w / (100.0 * COUNT(filled_c) OVER w), 6)
         AS roll7_value
FROM filled
WINDOW w AS (PARTITION BY conv_id ORDER BY day
             ROWS BETWEEN {ROLL_GRID_DAYS - 1} PRECEDING AND CURRENT ROW)
"""

QUERIES["w_rolling_grid7"] = q_rolling_grid7
ORACLES["w_rolling_grid7"] = SQL_ROLLING_GRID7


# ---------------------------------------------------------------------------
# Inter-arrival (burstiness) profile per conversation — the cadence
# features beside W7's per-turn gap: gap count, exact mean gap, max gap,
# and how many gaps exceed the session threshold. All integer-microsecond
# arithmetic (sums bounded by span x rows, far inside int64), ONE
# conv-keyed shuffle of 4-int partials: consecutive gaps need adjacent
# rows, so the partial ships each batch's per-conv (sum, max, n, n_long)
# plus its boundary timestamps — but simplest exact shape at this grain
# is the in-bucket pass over whole conversations, which the conv spine
# already provides.
# ---------------------------------------------------------------------------
GAP_LONG_S = SESSION_GAP_S


def q_gap_profile(sf_dir: str):
    ts_ds = transcripts_from_events(sf_dir)
    pruned = _prune(ts_ds, ["conv_id", "ts", "_seq"])

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "ts", "_seq"], kind="mergesort").reset_index(drop=True)
        us = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        codes = pd.factorize(g["conv_id"])[0]
        same = np.concatenate([[False], codes[1:] == codes[:-1]])
        d = pd.DataFrame(
            {"conv_id": g["conv_id"][same],
             "gap_us": (us - np.roll(us, 1))[same]}
        )
        out = d.groupby("conv_id", as_index=False).agg(
            n_gaps=("gap_us", "size"),
            _sum=("gap_us", "sum"),
            _max=("gap_us", "max"),
            n_long=("gap_us", lambda s: int((s > GAP_LONG_S * 1_000_000).sum())),
        )
        res = pd.DataFrame(
            {"conv_id": out["conv_id"],
             "n_gaps": out["n_gaps"].astype("int64"),
             "mean_gap_s": round_half_away(
                 out["_sum"].to_numpy(np.float64)
                 / (1e6 * out["n_gaps"].to_numpy(np.float64)), 6),
             "max_gap_s": round_half_away(out["_max"].to_numpy(np.float64) / 1e6, 6),
             "n_long": out["n_long"].astype("int64")}
        )
        return res

    return map_conv_buckets(pruned, kern, key="conv_id",
                            sort_cols=["conv_id", "ts", "_seq"])


SQL_GAP_PROFILE = f"""{_T},
g AS (
  SELECT conv_id,
         epoch_us(ts) - epoch_us(LAG(ts) OVER ({_W})) AS gap_us
  FROM t
)
SELECT conv_id,
       COUNT(gap_us) AS n_gaps,
       ROUND(SUM(gap_us) / (1e6 * COUNT(gap_us)), 6) AS mean_gap_s,
       ROUND(MAX(gap_us) / 1e6, 6) AS max_gap_s,
       CAST(COUNT(*) FILTER (WHERE gap_us > {GAP_LONG_S * 1_000_000}) AS BIGINT)
         AS n_long
FROM g GROUP BY conv_id
HAVING COUNT(gap_us) > 0
"""

QUERIES["agg_gap_profile"] = q_gap_profile
ORACLES["agg_gap_profile"] = SQL_GAP_PROFILE


# ---------------------------------------------------------------------------
# Forward 30-minute window sum/count — the horizon-label sibling of
# w_sliding_window (a LABEL like w_lead_label / w_response_latency:
# forward-looking by design, excluded from the leakage contract by name).
# Same banded searchsorted + cumsum-difference kernel, mirrored forward;
# NULL-masked prefix sums keep SQL SUM semantics.
# ---------------------------------------------------------------------------
FWD_WIN_S = 30 * 60


def q_forward_sum_30m(sf_dir: str):
    ts_ds = transcripts_from_events(sf_dir)
    pruned = _prune(ts_ds, ["conv_id", "ts", "_seq", "value"])

    def kern(df: pd.DataFrame) -> pd.DataFrame:
        conv = df["conv_id"]
        t_us = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        v = df["value"].to_numpy(dtype="float64")
        vc = np.rint(v * 100.0)  # NaN kept for the self-subtraction
        ca = conv.to_numpy()
        new = np.concatenate([[True], ca[1:] != ca[:-1]])
        ordinal = np.cumsum(new) - 1
        win_us = FWD_WIN_S * 1_000_000
        rel = t_us - t_us.min() if len(t_us) else t_us
        band = np.int64((int(rel.max()) if len(rel) else 0) + win_us + 1)
        assert int(ordinal[-1] if len(ordinal) else 0) * int(band) < (1 << 62), \
            "forward-window band overflow: split the bucket (raise num_buckets)"
        t_adj = ordinal.astype(np.int64) * band + rel
        cum = np.concatenate([[0.0], np.cumsum(np.where(np.isnan(vc), 0.0, vc))])
        lo = np.searchsorted(t_adj, t_adj, side="left")
        hi = np.searchsorted(t_adj, t_adj + win_us, side="right")
        g = df.groupby("conv_id", sort=False).cumcount()
        return pd.DataFrame(
            {"conv_id": conv,
             "turn_idx": g.astype("int32"),
             "n_fwd30": (hi - lo - 1).astype("int64"),
             "fwd30_sum": round_half_away((cum[hi] - cum[lo] - vc) / 100.0, 6)}
        )

    return map_conv_buckets(pruned, kern, key="conv_id",
                            sort_cols=["conv_id", "ts", "_seq"])


SQL_FORWARD_SUM_30M = f"""{_T}
SELECT conv_id, turn_idx,
       COUNT(*) OVER w - 1 AS n_fwd30,
       ROUND((SUM(ROUND(value * 100)) OVER w - ROUND(value * 100)) / 100.0, 6)
         AS fwd30_sum
FROM t
WINDOW w AS (PARTITION BY conv_id ORDER BY ts
             RANGE BETWEEN CURRENT ROW AND INTERVAL {FWD_WIN_S} SECONDS FOLLOWING)
"""

QUERIES["w_forward_sum_30m"] = q_forward_sum_30m
ORACLES["w_forward_sum_30m"] = SQL_FORWARD_SUM_30M


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
