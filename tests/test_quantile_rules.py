"""Property test pinning the SQL selection rule the rank kernels
implement: DuckDB quantile_disc's rank rule, which w_rolling_median's
ceil(0.5 * n) selection follows. This is the invariant the fixed-scale
oracle-parity gate can only sample; here it is checked across sizes
directly vs DuckDB."""

import duckdb
import numpy as np


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
