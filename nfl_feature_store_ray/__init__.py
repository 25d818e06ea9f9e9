"""nfl_feature_store_ray — a Ray-Data-native point-in-time feature engine.

Brand-new engine with the query/data-processing capabilities of
theedgepredictor/nfl-feature-store (reference, read-only at
/root/reference), re-expressed Ray-Data-first over multi-turn transcript
Parquet tables: windowed features (lag / rolling / expanding-with-
carryover / EWMA), sessionization, as-of joins and backfill, partitioned
ingest with incremental refresh, rank-within-bucket and pump-style
conditional aggregations.

Never calls ``ray.init``/``ray.shutdown`` — sessions are owned by the
caller (the application, perfbench, or the pytest fixture).
"""

__version__ = "0.1.0"
