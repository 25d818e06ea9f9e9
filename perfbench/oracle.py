"""DuckDB SQL oracles for the benchmark's outputs.

The SQL restates the engine's documented semantics (window families in
``state.window_engine``, strict backward as-of in ``state.asof``) from
scratch over the generated Parquet; it imports nothing from the program.
It runs in a child process before Ray starts, so DuckDB's memory never
counts toward the driver's peak RSS:

    python3 perfbench/oracle.py WORKLOAD WORK_DIR

reads ``WORK_DIR/events.parquet`` (and ``labels.parquet``, ``meta.json``)
and writes ``WORK_DIR/oracle.parquet`` plus the digests in
``WORK_DIR/oracle.json``.
"""

from __future__ import annotations

import json
import os
import sys

METRICS = ("value", "text_len", "n_tokens")
EWMA_ALPHA = 2.0 / 11.0  # span 10, adjust=False
FORM_WINDOW = 3
COVER_WINDOW = 10
SESSION_GAP_S = 86_400

FEATURE_VALUES = [
    "gap_s", "session_id", "session_turn_idx", "n_prior_user", "n_prior_assistant",
    "n_prior_tool", "turns_since_tool", "secs_since_tool", "roll10_tool_rate",
] + [f"{fam}_{m}" for m in METRICS for fam in ("last", "form", "avg", "ewma", "session_avg")]
FEATURE_KEYS = ["conv_id", "turn_idx"]
FEATURE_COLS = FEATURE_KEYS + FEATURE_VALUES
ASOF_KEYS = ["label_id"]
ASOF_COLS = ["label_id", "conv_id", "ts", "label", "turn_idx"] + FEATURE_VALUES


def features_sql(events: str) -> str:
    """Every window feature the engine emits, one row per turn."""
    w = "PARTITION BY conv_id ORDER BY turn_idx"
    prior = f"{w} ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING"
    ws = "PARTITION BY conv_id, session_id ORDER BY turn_idx"
    sprior = f"{ws} ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING"
    b = 1.0 - EWMA_ALPHA
    ctes, joins, cols = [], [], []
    for m in METRICS:
        # EWMA over the metric's non-null subsequence, closed form
        # y_j = b^j * (x_0 + a * sum_{i=1..j} x_i / b^i); every term is
        # non-negative and j stays below 1 500, so it neither overflows
        # nor cancels.
        ctes.append(f"""e_{m} AS (
  SELECT conv_id, turn_idx, {m} AS x,
         ROW_NUMBER() OVER (PARTITION BY conv_id ORDER BY turn_idx) - 1 AS j
  FROM s WHERE {m} IS NOT NULL
), y_{m} AS (
  SELECT conv_id, turn_idx, POWER({b!r}, j) * SUM(
           CASE WHEN j = 0 THEN x ELSE {EWMA_ALPHA!r} * x END / POWER({b!r}, j)
         ) OVER (PARTITION BY conv_id ORDER BY j ROWS UNBOUNDED PRECEDING) AS y
  FROM e_{m}
), a_{m} AS (
  SELECT conv_id, session_id, COALESCE(SUM(ROUND({m} * 100)), 0) AS total,
         COUNT({m}) AS n,
         arg_max(ROUND({m} * 100), turn_idx) FILTER (WHERE {m} IS NOT NULL) AS lastv
  FROM s GROUP BY conv_id, session_id
), f_{m} AS (
  SELECT conv_id, session_id,
         LAG(lastv) OVER (PARTITION BY conv_id ORDER BY session_id) AS seed,
         CASE WHEN session_id = 0 THEN total / (100.0 * NULLIF(n, 0))
              ELSE (LAG(lastv) OVER (PARTITION BY conv_id ORDER BY session_id) + total)
                   / (100.0 * (1 + n)) END AS fin
  FROM a_{m}
), p_{m} AS (
  SELECT conv_id, session_id, seed AS seed_{m},
         LAG(fin) OVER (PARTITION BY conv_id ORDER BY session_id) AS pfin_{m}
  FROM f_{m}
)""")
        joins.append(
            f"LEFT JOIN (SELECT conv_id, turn_idx, y AS y_{m} FROM y_{m}) USING (conv_id, turn_idx) "
            f"JOIN p_{m} USING (conv_id, session_id)"
        )
        cols.append(f"""
       LAG({m}) OVER ({w}) AS last_{m},
       AVG({m}) OVER ({w} ROWS BETWEEN {FORM_WINDOW} PRECEDING AND 1 PRECEDING) AS form_{m},
       SUM(ROUND({m} * 100)) OVER ({prior})
         / (100.0 * NULLIF(COUNT({m}) OVER ({prior}), 0)) AS avg_{m},
       LAST_VALUE(y_{m} IGNORE NULLS) OVER ({prior}) AS ewma_{m},
       CASE WHEN session_id = 0
              THEN SUM(ROUND({m} * 100)) OVER ({sprior})
                   / (100.0 * NULLIF(COUNT({m}) OVER ({sprior}), 0))
            WHEN COUNT({m}) OVER ({sprior}) > 0
              THEN (seed_{m} + SUM(ROUND({m} * 100)) OVER ({sprior}))
                   / (100.0 * (1 + COUNT({m}) OVER ({sprior})))
            ELSE pfin_{m} END AS session_avg_{m}""")
    return f"""
WITH t AS (
  SELECT CAST(user_id AS VARCHAR) AS conv_id, ts, epoch_us(ts) AS us, event_id,
         CASE WHEN event_type IN ('click', 'view') THEN 'user'
              WHEN event_type IN ('purchase', 'signup') THEN 'assistant'
              ELSE 'tool' END AS role,
         value,
         CAST(length(COALESCE(props, '')) AS BIGINT) AS text_len,
         CAST(CASE WHEN length(COALESCE(props, '')) > 0
                   THEN length(props) - length(replace(props, ' ', '')) + 1
                   ELSE 0 END AS BIGINT) AS n_tokens
  FROM read_parquet('{events}')
), o AS (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY conv_id ORDER BY ts, event_id) - 1 AS turn_idx
  FROM t
), g AS (
  SELECT *, (us - LAG(us) OVER ({w})) / 1e6 AS gap_s FROM o
), s AS (
  SELECT *, SUM(CASE WHEN gap_s > {SESSION_GAP_S} THEN 1 ELSE 0 END)
              OVER ({w} ROWS UNBOUNDED PRECEDING) AS session_id
  FROM g
), {", ".join(ctes)}
SELECT conv_id, ts, turn_idx, gap_s, session_id,
       ROW_NUMBER() OVER ({ws}) - 1 AS session_turn_idx,
       COUNT(CASE WHEN role = 'user' THEN 1 END) OVER ({prior}) AS n_prior_user,
       COUNT(CASE WHEN role = 'assistant' THEN 1 END) OVER ({prior}) AS n_prior_assistant,
       COUNT(CASE WHEN role = 'tool' THEN 1 END) OVER ({prior}) AS n_prior_tool,
       turn_idx - MAX(CASE WHEN role = 'tool' THEN turn_idx END) OVER ({prior})
         AS turns_since_tool,
       (us - MAX(CASE WHEN role = 'tool' THEN us END) OVER ({prior})) / 1e6
         AS secs_since_tool,
       AVG(CASE WHEN role = 'tool' THEN 1.0 ELSE 0.0 END)
         OVER ({w} ROWS BETWEEN {COVER_WINDOW} PRECEDING AND 1 PRECEDING) AS roll10_tool_rate,
       {",".join(cols)}
FROM s {" ".join(joins)}
"""


def asof_sql(labels: str) -> str:
    """Strict backward as-of join of every label onto the feature table
    ``feats``: the latest feature row of the same conversation with
    ``ts`` strictly earlier, or NULLs."""
    right = ", ".join(f"f.{c}" for c in ["turn_idx"] + FEATURE_VALUES)
    return f"""
SELECT l.label_id, l.conv_id, l.ts, l.label, {right}
FROM read_parquet('{labels}') l
ASOF LEFT JOIN feats f ON l.conv_id = f.conv_id AND l.ts > f.ts
"""


def run(workload: str, work: str) -> None:
    import duckdb
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from check import digest

    con = duckdb.connect(config={
        "threads": 1, "memory_limit": "1GB",
        "temp_directory": os.path.join(work, "duckdb_tmp"),
    })
    try:
        feats = con.sql(features_sql(os.path.join(work, "events.parquet"))).arrow()
        if workload == "training_set":
            con.register("feats", feats)
            out = con.sql(asof_sql(os.path.join(work, "labels.parquet"))).arrow()
            digests = [digest(out, ASOF_COLS)]
        else:
            out = feats
            if workload == "refresh":
                with open(os.path.join(work, "meta.json")) as f:
                    cuts = np.asarray(json.load(f)["cuts"], dtype=np.int64)
                us = out.column("ts").cast("int64").to_numpy()
                part = np.searchsorted(cuts, us, side="left")
                digests = [
                    digest(out.filter(pa.array(part == k)), FEATURE_COLS)
                    for k in range(len(cuts))
                ]
            else:
                digests = [digest(out, FEATURE_COLS)]
    finally:
        con.close()
    pq.write_table(out, os.path.join(work, "oracle.parquet"))
    with open(os.path.join(work, "oracle.json"), "w") as f:
        json.dump({"digests": digests}, f)


if __name__ == "__main__":
    run(sys.argv[1], sys.argv[2])
