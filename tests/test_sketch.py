"""DDSketch quantile-sketch quality gates.

The sketch has no SQL oracle (approximate by construction), so these tests
pin what the gate can't: the relative-error guarantee vs the EXACT
quantiles, exact merge-invariance (distributed partials == one single-pass
sketch), and determinism across runs.
"""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

from nfl_feature_store_ray.pipelines.transcript_queries import (
    DD_ALPHA,
    DD_QUANTILES,
    dd_partials,
    dd_quantiles_from_buckets,
    q_sketch_quantiles,
)

SF = "/root/testdata/sf0.001"


def _exact_disc(v: np.ndarray, q: float) -> float:
    """Engine's quantile_disc selection rule: 1-based rank = ceil(q*n)."""
    s = np.sort(v)
    return float(s[max(1, int(np.ceil(q * len(s)))) - 1])


def test_sketch_relative_error_bound():
    est = q_sketch_quantiles(SF)
    v = pq.read_table(f"{SF}/events.parquet", columns=["value"])["value"].to_numpy()
    for _, row in est.iterrows():
        exact = _exact_disc(v, row["q"])
        if exact > 0:
            # DDSketch guarantee: |est - x| / x <= alpha (midpoint estimator);
            # tiny slack for the discrete-rank vs bucket-boundary mismatch
            assert abs(row["est"] - exact) / exact <= DD_ALPHA * 1.05 + 1e-12, row

    assert (est["n"] == len(v)).all()


def test_sketch_merge_invariance():
    """Distributed batch partials merged by summation must equal ONE
    single-pass sketch over the whole column — the mergeability property
    that makes the sketch shuffle-free at any partitioning."""
    dist = q_sketch_quantiles(SF)
    v = pq.read_table(f"{SF}/events.parquet", columns=["value"])["value"].to_numpy(
        zero_copy_only=False
    )
    one = dd_partials(v.astype(np.float64))
    ref = dd_quantiles_from_buckets(
        one["bucket"].to_numpy(np.int64), one["cnt"].to_numpy(np.int64), DD_QUANTILES
    )
    pd.testing.assert_frame_equal(dist.reset_index(drop=True), ref)


def test_sketch_handles_nonpositive_and_nan():
    v = np.array([0.0, -3.5, np.nan, 1.0, 100.0])
    p = dd_partials(v)
    assert p["cnt"].sum() == 5
    sentinel = np.iinfo(np.int64).min
    assert int(p.loc[p["bucket"] == sentinel, "cnt"].iloc[0]) == 3
    est = dd_quantiles_from_buckets(
        p["bucket"].to_numpy(np.int64), p["cnt"].to_numpy(np.int64), (0.25, 0.9)
    )
    assert est.loc[est["q"] == 0.25, "est"].iloc[0] == 0.0  # sentinel region
    assert abs(est.loc[est["q"] == 0.9, "est"].iloc[0] - 100.0) / 100.0 <= DD_ALPHA


# ---------------------------------------------------------------------------
# Count-Min sketch
# ---------------------------------------------------------------------------
def test_cms_overestimates_and_bounds():
    """est >= true for every probe; min-over-rows error stays within the
    expected-bound ballpark on a skewed corpus."""
    import numpy as np
    import pandas as pd

    from nfl_feature_store_ray.pipelines.text_analysis import (
        CMS_W, _cms_rows, cms_estimate,
    )

    rng = np.random.default_rng(3)
    vocab = np.array([f"tok{i}" for i in range(5000)], dtype=object)
    counts = (rng.zipf(1.3, 5000).astype(np.int64) % 1000) + 1
    table = _cms_rows(vocab, counts).groupby(["d", "w"], as_index=False)["cnt"].sum()
    probes = vocab[:200]
    est = cms_estimate(table, probes)
    true = counts[:200]
    assert (est >= true).all()
    n_total = int(counts.sum())
    # min over 4 rows: allow 8x the single-row expectation as headroom
    assert (est - true).max() <= 8 * n_total / CMS_W


def test_cms_merge_invariance():
    """Summing per-chunk sparse partials == sketching the whole stream:
    the mergeability contract that makes the op shuffle-free."""
    import numpy as np
    import pandas as pd

    from nfl_feature_store_ray.pipelines.text_analysis import _cms_rows, cms_estimate

    rng = np.random.default_rng(11)
    vocab = np.array([f"w{i}" for i in range(800)], dtype=object)
    counts = rng.integers(1, 50, 800).astype(np.int64)
    whole = _cms_rows(vocab, counts)
    parts = []
    for lo in range(0, 800, 97):  # uneven chunks
        sl = slice(lo, min(lo + 97, 800))
        parts.append(_cms_rows(vocab[sl], counts[sl]))
    merged = pd.concat(parts).groupby(["d", "w"], as_index=False)["cnt"].sum()
    whole_m = whole.groupby(["d", "w"], as_index=False)["cnt"].sum()
    probes = vocab[::7]
    assert (cms_estimate(merged, probes) == cms_estimate(whole_m, probes)).all()


def test_cms_query_deterministic(ray_session):
    import pandas as pd

    from nfl_feature_store_ray.pipelines.text_analysis import q_sketch_cms

    a = q_sketch_cms("/root/testdata/sf0.001")
    b = q_sketch_cms("/root/testdata/sf0.001")
    pd.testing.assert_frame_equal(a, b)
    # every stopword's estimate must be >= its exact corpus count
    import duckdb

    true = duckdb.sql("""
      SELECT tok, COUNT(*) AS c FROM (
        SELECT unnest(string_split(lower(text), ' ')) AS tok
        FROM '/root/testdata/sf0.001/documents.parquet' WHERE text IS NOT NULL
      ) GROUP BY tok
    """).df().set_index("tok")["c"]
    for _, r in a.iterrows():
        assert r["est"] >= int(true.get(r["tok"], 0))
