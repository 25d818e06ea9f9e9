"""Engine constants.

Window constants mirror the reference semantics verified empirically in
SURVEY.md §0 (probes 1-8):
  - ``FORM_WINDOW = 3``      rolling-mean window of `form_X` features
                             (reference: rolling(3).mean(min_periods=1),
                             shift 1 — NOT the 5 the stale dictionary claims)
  - ``COVER_WINDOW = 10``    rolling window of 0/1-indicator rate features
                             (reference: `rolling_spread_cover`, rolling(10))
  - ``EWMA_SPAN = 10``       recursive EWMA span (alpha = 2/11, adjust=False;
                             reference `ewma_score_offense/defense`)
  - ``SESSION_GAP_S``        inactivity-gap sessionization threshold; the
                             session is the transcript-domain analogue of the
                             reference's season (epoch with expanding-mean
                             carryover seeding, SURVEY §7.0)
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Window-family constants (reference parity, SURVEY.md §2.6)
# ---------------------------------------------------------------------------
FORM_WINDOW = 3
COVER_WINDOW = 10
EWMA_SPAN = 10
EWMA_ALPHA = 2.0 / (EWMA_SPAN + 1)  # pandas ewm(span=10, adjust=False)
SESSION_GAP_S = 86_400  # 24 h inactivity => new session (epoch boundary)
# Input contract (FIXTURES.md F2): metric columns carry at most 2 decimals
# (`value` is generated as 2-decimal; text_len/n_tokens are integers).
# Expanding/whole-history means sum rint(x * QUANT_SCALE) — exact integers
# in float64 — so the sum is order-independent: the distributed result is
# bit-identical to any serial or SQL engine regardless of partitioning,
# and 5e-7 rounding ties resolve identically on both sides.
QUANT_SCALE = 100.0

# Modulus of the PERSISTED bucketed layout (state.manifest.partitioned_commit
# and the with_bucket / map_conv_buckets defaults): a stored layout is
# re-committed and refreshed by this count, so it does not follow the
# cluster. In-flight shuffles (window_features, asof_join) size themselves
# from the cluster instead: 2 x CPUs buckets (stages.bucketize.shuffle_buckets).
# Each bucket must fit in a worker's heap (buckets hold whole conversations,
# never split ones).
DEFAULT_NUM_BUCKETS = 64

# Metrics fanned out through the window families (last_/form_/avg_/ewma_).
# Analogue of the reference's 59-base-metric x 3-window-family fan-out
# (SURVEY §1.1 affix algebra) — generated from this list, never hand-written.
DEFAULT_WINDOW_METRICS = ("value", "text_len", "n_tokens")
