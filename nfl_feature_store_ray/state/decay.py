"""Time-decayed (continuous-time) feature kernel.

The window engine's EWMA decays per ROW (reference W5 semantics); this
kernel decays per SECOND — the other standard trend-feature family
(recency-weighted sums where a 2-day-old turn matters less than a
2-minute-old one regardless of how many turns happened in between):

    y_k = sum_{i < k, conv_i = conv_k} x_i * exp(-(t_k - t_i) / tau)

Strictly-prior (leakage-free by construction). NO SQL oracle: numpy and
DuckDB ``exp`` differ in the last ulp on ~24% of inputs (measured), so a
hash-exact gate is impossible for any float-exp feature; correctness is
pinned instead against an independent O(n^2) pairwise reference at
rtol 1e-12 (tests/test_decay.py) plus the prefix-truncation leakage
property.

Vectorization: O(n x chunk), no per-row or per-conversation Python loop.
Rows arrive sorted by (conv, t); each 64-row chunk computes a masked
lower-triangular pairwise decay matrix (all exponents <= 0, so the only
float hazard is harmless underflow-to-zero), and because of the sort at
most ONE conversation spans any chunk boundary, so cross-chunk state is
a single (conv, value, t) scalar carry — the same bounded-state shape
as the window kernel's per-conversation carry.
"""

from __future__ import annotations

import numpy as np

DECAY_TAU_S = 3600.0  # 1-hour half-ish life (e-folding time)


def time_decayed_sum(
    x: np.ndarray,
    t_sec: np.ndarray,
    conv_codes: np.ndarray,
    tau: float = DECAY_TAU_S,
    chunk: int = 64,
) -> np.ndarray:
    """Strictly-prior exponentially time-decayed sum per conversation over
    a frame sorted by (conv, t, tie). See module docstring."""
    n = len(x)
    y = np.zeros(n, dtype=np.float64)
    carry_conv = -1
    carry_val = 0.0
    carry_t = 0.0
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        T = t_sec[lo:hi]
        X = x[lo:hi]
        C = conv_codes[lo:hi]
        # clamp at 0: the upper triangle (future rows) has positive
        # exponents that tril discards anyway — clamping avoids computing
        # overflowing exps for values that are never used
        D = np.exp(np.minimum(0.0, -(T[:, None] - T[None, :]) / tau))
        D = np.where(C[:, None] == C[None, :], D, 0.0)
        y[lo:hi] = np.tril(D, -1) @ X
        if carry_conv >= 0:
            m = C == carry_conv
            if m.any():
                y[lo:hi][m] += carry_val * np.exp(-(T[m] - carry_t) / tau)
        # inclusive decayed sum at the chunk's last row becomes the carry;
        # the sort guarantees only its conversation continues past the cut
        carry_conv = int(C[-1])
        carry_val = y[hi - 1] + X[-1]
        carry_t = float(T[-1])
    return y


def time_decayed_sum_reference(
    x: np.ndarray, t_sec: np.ndarray, conv_codes: np.ndarray,
    tau: float = DECAY_TAU_S,
) -> np.ndarray:
    """Independent O(n^2) pairwise reference (test oracle)."""
    n = len(x)
    out = np.zeros(n, dtype=np.float64)
    for k in range(n):
        m = (conv_codes[:k] == conv_codes[k])
        out[k] = float(np.sum(x[:k][m] * np.exp(-(t_sec[k] - t_sec[:k][m]) / tau)))
    return out
