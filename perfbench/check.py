"""Output checks: an order-insensitive digest and a tolerant fallback.

A table's digest is its row count plus the wrapping sum of one 64-bit
hash per row, so it ignores row order and block boundaries, and the
digests of disjoint row sets add up to the digest of their union. Numbers
enter the hash rounded to 6 decimal places, after a cast to float64, so
an int32 column equals the same values as int64 or float64.

Rounding can split two results a few ulps apart when they straddle a
rounding tie, so a digest mismatch is settled by ``compare``: a join on
the key columns with ``rtol = 1e-9``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_NULL = np.uint64(0x9E3779B97F4A7C15)
_K1 = np.uint64(0xBF58476D1CE4E5B9)
_K2 = np.uint64(0x94D049BB133111EB)


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer (uint64 arithmetic wraps)."""
    x = x ^ (x >> np.uint64(30))
    x = x * _K1
    x = x ^ (x >> np.uint64(27))
    x = x * _K2
    return x ^ (x >> np.uint64(31))


def _words(col: pa.ChunkedArray) -> np.ndarray:
    t = col.type
    if pa.types.is_dictionary(t):
        col, t = col.cast(t.value_type), t.value_type
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        vals = np.asarray(col.to_pandas(), dtype=object)
        return pd.util.hash_array(vals, categorize=False).astype(np.uint64)
    if pa.types.is_timestamp(t):
        x = col.cast(pa.timestamp("us")).cast(pa.int64())
        return np.where(
            np.asarray(pc.is_null(x)), _NULL, x.fill_null(0).to_numpy().view(np.uint64)
        )
    x = col.cast(pa.float64()).to_numpy(zero_copy_only=False)
    nan = np.isnan(x)
    q = np.rint(np.where(nan, 0.0, x) * 1e6).astype(np.int64).view(np.uint64)
    return np.where(nan, _NULL, q)


def digest(tbl: pa.Table, cols: list[str]) -> tuple[int, int]:
    """(row count, order-insensitive hash) of ``tbl[cols]``."""
    h = np.zeros(tbl.num_rows, np.uint64)
    for i, c in enumerate(cols):
        h = _mix(h ^ _mix(_words(tbl.column(c)) + np.uint64(i + 1)))
    return tbl.num_rows, int(h.sum(dtype=np.uint64))


def compare(got: pa.Table, want: pa.Table, keys: list[str], cols: list[str]) -> str | None:
    """None when ``got`` equals ``want`` on ``cols`` within rtol 1e-9,
    else a one-line description of the first difference."""
    if got.num_rows != want.num_rows:
        return f"row count {got.num_rows} != expected {want.num_rows}"
    g = got.select(cols).to_pandas().sort_values(keys, kind="mergesort").reset_index(drop=True)
    w = want.select(cols).to_pandas().sort_values(keys, kind="mergesort").reset_index(drop=True)
    for c in cols:
        a, b = g[c], w[c]
        if a.dtype.kind in "fiub" and b.dtype.kind in "fiub":
            x, y = a.to_numpy(dtype=float), b.to_numpy(dtype=float)
            bad = ~np.isclose(x, y, rtol=1e-9, atol=1e-9, equal_nan=True)
        else:
            bad = ~((a == b) | (a.isna() & b.isna())).to_numpy()
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            return f"column {c} at {g.loc[i, keys].to_dict()}: {a.iloc[i]!r} != {b.iloc[i]!r}"
    return None
