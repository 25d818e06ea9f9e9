"""Property tests pinning the SQL selection rules the rank kernels
implement: DuckDB NTILE's bucket-size rule (w_ntile_day) and quantile_disc's
rank rule, which w_rolling_median's ceil(0.5 * n) selection follows.
These are the invariants the fixed-scale oracle-parity gate can only sample;
here they're checked across randomized sizes directly vs DuckDB."""

import duckdb
import numpy as np


def _ntile_rule(pos: np.ndarray, n: np.ndarray, b: int) -> np.ndarray:
    """The engine's vectorized NTILE (transcript_queries.q_ntile_day)."""
    base, big = n // b, n % b
    cut = big * (base + 1)
    return (
        np.where(pos < cut, pos // np.maximum(base + 1, 1),
                 big + (pos - cut) // np.maximum(base, 1))
        + 1
    )


def test_ntile_rule_matches_duckdb():
    con = duckdb.connect()
    for n in list(range(1, 26)) + [40, 97]:
        for b in (2, 3, 4, 7):
            d = con.execute(
                f"SELECT NTILE({b}) OVER (ORDER BY v) t FROM range({n}) r(v) ORDER BY v"
            ).df()["t"].to_numpy()
            pos = np.arange(n)
            mine = _ntile_rule(pos, np.full(n, n), b)
            assert (mine == d).all(), (n, b)


def _quantile_disc_rule(n: int, q: float) -> int:
    """The engine's quantile_disc selection (w_rolling_median picks
    rank ceil(0.5 * n)): 0-based index of 1-based rank ceil(q*n)."""
    return max(1, int(np.ceil(q * n))) - 1


def test_quantile_disc_rule_matches_duckdb():
    """rank = ceil(q*n) vs DuckDB over n distinct values. The sweep
    includes the pairs where the interpolation-style floor(q*(n-1)) rule
    picks a DIFFERENT order statistic (n=6 q=0.75 -> rank 5 vs 4); the
    last loop asserts those pairs really are crossings."""
    con = duckdb.connect()
    qs = (0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99)
    for n in list(range(1, 26)) + [40, 97]:
        for q in qs:
            d = con.execute(
                f"SELECT quantile_disc(v, {q}) FROM range({n}) r(v)"
            ).fetchone()[0]
            mine = _quantile_disc_rule(n, q)
            assert mine == d, (n, q, mine, d)
    for n, q in ((4, 0.9), (6, 0.75), (7, 0.75), (13, 0.95)):
        assert _quantile_disc_rule(n, q) != int(np.floor(q * (n - 1))), (n, q)
