"""Per-record parse / scoring queries (reference M1-M3 analogues).

  parse_props     M1/M2: vectorized string parse of an id-ish payload —
                  the reference hex-decodes embedded GSIS ids out of
                  36-char UUIDs (`player_game.py:23-62`); here the
                  transcript `text` (JSON-ish props) yields the embedded
                  integer key, via one pyarrow regex kernel per batch.
  success_points  M3: piecewise-linear per-row scoring UDF
                  (`player_game.py:65-105`) — np.select over vectorized
                  conditions, never a Python row loop.
"""

from __future__ import annotations

import numpy as np
from nfl_feature_store_ray.functions.rounding import round_half_away
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from nfl_feature_store_ray.sources.transcripts import TRANSCRIPTS_FROM_EVENTS_SQL
from nfl_feature_store_ray.sources.transcripts import transcripts_from_events

_T = f"WITH t AS ({TRANSCRIPTS_FROM_EVENTS_SQL})"


def q_parse_props(sf_dir: str):
    ts = transcripts_from_events(sf_dir)

    def parse(batch: pa.Table) -> pa.Table:
        k = pc.extract_regex(batch["text"], pattern=r'"k": (?P<k>\d+)')
        k_str = pc.struct_field(k, "k")
        return pa.table(
            {
                "conv_id": batch["conv_id"],
                "_seq": batch["_seq"],
                "k_value": pc.cast(k_str, pa.int32()),
            }
        )

    return ts.map_batches(parse, batch_format="pyarrow", zero_copy_batch=True)


# NULLIF: DuckDB regexp_extract returns '' (not NULL) on no-match, and
# CAST('' AS INTEGER) raises — the engine's pyarrow extract_regex yields
# NULL for unmatched rows, so the oracle must map '' -> NULL to agree on
# corpora with malformed props (caught by the adversarial events fuzz)
SQL_PARSE_PROPS = f"""{_T}
SELECT conv_id, _seq,
       CAST(NULLIF(regexp_extract(text, '"k": (\\d+)', 1), '') AS INTEGER) AS k_value
FROM t
"""


def q_success_points(sf_dir: str):
    """Piecewise score per turn: graded by value bands, bonus for big
    values, penalty on 'error' tool turns (mirrors the reference's
    down/yards fractions + big-play bonus + turnover penalty shape)."""
    ts = transcripts_from_events(sf_dir)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy(dtype=np.float64)
        is_err = (df["role"] == "tool").to_numpy()
        pts = np.select(
            [v >= 200.0, v >= 100.0, v >= 50.0, v >= 10.0],
            [3.0 + (v - 200.0) / 100.0, 2.0, 1.0, v / 50.0],
            default=0.0,
        )
        pts = np.where(is_err, pts - 2.0, pts)
        return pd.DataFrame(
            {
                "conv_id": df["conv_id"],
                "_seq": df["_seq"],
                "success_points": round_half_away(pts, 6),
            }
        )

    return ts.map_batches(score, batch_format="pandas")


SQL_SUCCESS_POINTS = f"""{_T}
SELECT conv_id, _seq,
       ROUND(
         CASE WHEN value >= 200 THEN 3.0 + (value - 200.0) / 100.0
              WHEN value >= 100 THEN 2.0
              WHEN value >= 50 THEN 1.0
              WHEN value >= 10 THEN value / 50.0
              ELSE 0.0 END
         + CASE WHEN role = 'tool' THEN -2.0 ELSE 0.0 END, 6) AS success_points
FROM t
"""


QUERIES = {
    "parse_props": q_parse_props,
    "success_points": q_success_points,
}

ORACLES = {
    "parse_props": SQL_PARSE_PROPS,
    "success_points": SQL_SUCCESS_POINTS,
}
