"""Property tests pinning the SQL selection rules the new rank/quantile
kernels implement: DuckDB NTILE's bucket-size rule, quantile_disc's
rank rule and quantile_cont's type-7 interpolation (exact-double at
quartile qs over integer cents).
These are the invariants the sf-fixed driver gate can only sample; here
they're checked across randomized sizes/histograms directly vs DuckDB."""

import duckdb
import numpy as np
import pandas as pd


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
    """The engine's quantile_disc selection (w_quartile_bucket,
    winsorize_day): 0-based index of 1-based rank
    ceil(q*n)."""
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


def test_quantile_cont_quartiles_exact_vs_duckdb():
    """Quartile interpolation over integer cents is EXACT double arithmetic
    on both engines (frac in {0,.25,.5,.75}); equality must be bitwise,
    not allclose — this is what lets percentile_day use a hash gate."""
    rng = np.random.default_rng(42)
    con = duckdb.connect()
    for _ in range(60):
        n = int(rng.integers(1, 80))
        v = np.sort(rng.integers(0, 10001, n)).astype(np.float64)
        con.register("df", pd.DataFrame({"x": v}))
        for q in (0.25, 0.5, 0.75):
            h = q * (n - 1)
            lo = int(np.floor(h))
            hi = int(np.ceil(h))
            mine = (v[lo] + (v[hi] - v[lo]) * (h - lo)) / 100.0
            d = con.execute(f"SELECT quantile_cont(x, {q})/100.0 FROM df").fetchone()[0]
            assert mine == d, (n, q, mine, d)


def test_percentile_day_kernel_matches_numpy():
    """The histogram-walk selection in q_percentile_day == direct numpy
    quantile (linear) on the expanded values."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        vals = np.sort(rng.choice(200, size=rng.integers(1, 12), replace=False)).astype(
            np.float64
        )
        cnts = rng.integers(1, 9, len(vals)).astype(np.int64)
        cum = cnts.cumsum()
        n = int(cum[-1])
        expanded = np.repeat(vals, cnts)
        for q in (0.25, 0.5, 0.75):
            h = q * (n - 1)
            lo = int(np.floor(h))
            vlo = vals[np.searchsorted(cum, lo + 1)]
            vhi = vals[np.searchsorted(cum, int(np.ceil(h)) + 1)]
            mine = vlo + (vhi - vlo) * (h - lo)
            ref = np.quantile(expanded, q, method="linear")
            np.testing.assert_allclose(mine, ref, rtol=0, atol=1e-12)
