"""Pipeline registry — the rebuild's analogue of the reference's
``FEATURE_STORE_METAS`` plugin surface
(`/root/reference/feature_store_runner.py:7-28`): a flat dict of named
pipelines, each a callable ``(sf_dir) -> Dataset | DataFrame | Table``,
paired with a DuckDB oracle SQL string where the semantics are
SQL-expressible (driver correctness gate)."""

from __future__ import annotations

# imports are strict: a broken pipeline module must FAIL the registry
# (and hence `__ray_entry__.queries()`), not silently shrink the query set
# to a smaller all-green one
from nfl_feature_store_ray.pipelines import (
    agg_queries,
    join_queries,
    parse_queries,
    resume_queries,
    transcript_queries,
    wide,
)


def all_queries():
    queries, oracles = {}, {}
    for m in (transcript_queries, agg_queries, join_queries,
              parse_queries, wide, resume_queries):
        queries.update(m.QUERIES)
        oracles.update(m.ORACLES)
    return dict(sorted(queries.items())), oracles
