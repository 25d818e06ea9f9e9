"""Wide metric fan-out — the reference's defining output shape.

The reference's player store is 59 base metrics x 3 window families
(182 cols, `data/feature_store/player/off/regular_season_game/2023.parquet`,
BASELINE.md) and its event store is ~476 cols. This pipeline proves the
rebuild stays columnar and fast at that width: 20 per-turn metrics
(stages.derive.WIDE_METRICS) x (5 base window families + 4 per-phase
families x 2 roles) -> 20*5 + 20*8 = 260 feature columns + session/role/
tool features, in ONE bucket shuffle and one polars kernel pass.

``wide_slice`` is the driver-gated parity query: the engine computes the
FULL wide frame, then a 6-column slice spanning different metrics and
families (lag / rolling / cents-exact expanding / EWMA / two per-phase
columns) is compared against a DuckDB oracle that re-derives the same
metrics in SQL (lateral column aliases) — one slice column per family
kind; each family's full-width correctness is already pinned by the
dedicated w_* oracle queries that share the same kernel code path.
"""

from __future__ import annotations

import pandas as pd

from nfl_feature_store_ray.functions.rounding import round_half_away
from nfl_feature_store_ray.functions.sqlgen import ewma_closed_ctes
from nfl_feature_store_ray.schemas import EWMA_ALPHA
from nfl_feature_store_ray.sources.transcripts import (
    TRANSCRIPTS_FROM_EVENTS_SQL,
    transcripts_from_events,
)
from nfl_feature_store_ray.stages.derive import WIDE_METRICS
from nfl_feature_store_ray.state.window_engine import window_features

WIDE_PHASES = ("user", "assistant")

_T = f"WITH t AS ({TRANSCRIPTS_FROM_EVENTS_SQL})"
_W = "PARTITION BY conv_id ORDER BY ts, _seq"


def wide_features(sf_dir: str):
    """Full wide frame: every WIDE_METRICS column through every window
    family plus per-phase families — 260+ feature columns.

    Both derive stages run INSIDE the bucket tasks (pre_kernel), so the
    one shuffle exchanges only the 7 raw transcript columns — not the
    29-column derived fan-out (~40% less exchange payload)."""
    from nfl_feature_store_ray.stages.derive import _derive_batch, _derive_wide_batch

    ts = transcripts_from_events(sf_dir)
    return window_features(
        ts,
        metrics=WIDE_METRICS,
        assign_turn_idx=True,
        derive=False,
        phases=WIDE_PHASES,
        pre_kernel=lambda tbl: _derive_wide_batch(_derive_batch(tbl)),
    )


_SLICE = [
    "last_n_spaces",          # W1 lag          over an int char-count metric
    "form_avg_tok_len",       # W2 rolling-3    over a 2-dec ratio metric
    "avg_n_e",                # W3 expanding    (cents-exact) int metric
    "ewma_tok_sq",            # W5 EWMA         over a squared int metric
    "last_val_frac_assistant",  # per-phase lag  over a 2-dec metric
    "avg_is_long_user",       # per-phase cents expanding over a 0/1 metric
]


def q_wide_slice(sf_dir: str):
    feats = wide_features(sf_dir)

    def sel(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["conv_id", "turn_idx"] + _SLICE].copy()
        for c in _SLICE:
            out[c] = round_half_away(out[c].astype("float64"), 6)
        return out

    return feats.map_batches(sel, batch_format="pandas")


# DuckDB lateral column aliases let later expressions reference earlier
# ones in the same SELECT — the wide-metric derivation reads like the
# engine's derive stage.
SQL_WIDE_SLICE = f"""{_T},
d AS (
  SELECT conv_id, turn_idx, role, ts, _seq, value,
         length(coalesce(text, '')) AS text_len,
         CASE WHEN text_len > 0
              THEN text_len - length(replace(coalesce(text, ''), ' ', '')) + 1
              ELSE 0 END AS n_tokens,
         text_len - length(replace(coalesce(text, ''), ' ', '')) AS n_spaces,
         text_len - length(replace(coalesce(text, ''), 'e', '')) AS n_e,
         ROUND(CAST(text_len AS DOUBLE) / GREATEST(n_tokens, 1), 2) AS avg_tok_len,
         n_tokens * n_tokens AS tok_sq,
         ROUND(value - FLOOR(value), 2) AS val_frac,
         CASE WHEN text_len > 40 THEN 1 ELSE 0 END AS is_long
  FROM t
),
p AS (
  SELECT *,
         SUM(ROUND(is_long * 100)) OVER pr / (100.0 * COUNT(*) OVER pr) AS incl_avg_is_long,
         ROW_NUMBER() OVER (PARTITION BY conv_id, role ORDER BY ts, _seq) - 1 AS ridx
  FROM d
  WINDOW pr AS (PARTITION BY conv_id, role ORDER BY ts, _seq
                ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
),
{ewma_closed_ctes("p", ["conv_id"], "turn_idx", "tok_sq", "wew",
                  "incl_ewma_tok_sq", EWMA_ALPHA)},
cc AS (
  SELECT p.*, wew.incl_ewma_tok_sq FROM p JOIN wew USING (conv_id, turn_idx)
)
SELECT conv_id, turn_idx,
       ROUND(CAST(LAG(n_spaces) OVER ({_W}) AS DOUBLE), 6) AS last_n_spaces,
       ROUND(AVG(avg_tok_len) OVER ({_W} ROWS BETWEEN 3 PRECEDING AND 1 PRECEDING), 6)
         AS form_avg_tok_len,
       ROUND(SUM(ROUND(n_e * 100)) OVER ({_W} ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
             / (100.0 * COUNT(*) OVER ({_W} ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)),
             6) AS avg_n_e,
       ROUND(LAG(incl_ewma_tok_sq) OVER ({_W}), 6) AS ewma_tok_sq,
       ROUND(LAST_VALUE(CASE WHEN role = 'assistant' THEN val_frac END IGNORE NULLS)
             OVER pw, 6) AS last_val_frac_assistant,
       ROUND(LAST_VALUE(CASE WHEN role = 'user' THEN incl_avg_is_long END IGNORE NULLS)
             OVER pw, 6) AS avg_is_long_user
FROM cc
WINDOW pw AS ({_W} ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
"""

QUERIES = {"wide_slice": q_wide_slice}
ORACLES = {"wide_slice": SQL_WIDE_SLICE}
