"""Feature-store runner — the reference's orchestrator, rebuilt.

The reference's `feature_store_runner.py:7-55` iterates a
``FEATURE_STORE_METAS`` registry, rebuilds whole multi-season frames in
RAM, and rewrites whole season files; staleness is discovered by scanning
output files, and output values provably depend on the run window
(SURVEY §0 probe 5, §3.1).

This runner keeps the registry shape (a list of named store builders) but
replaces the execution model: each store is a lazy Ray Dataset pipeline,
materialized as hash-partitioned parquet with per-partition lineage
manifests (atomic commit). A rerun recomputes fingerprints and SKIPS
up-to-date partitions — incremental upsert that is a pure function of the
input, not of the run window.

CLI:
    python -m nfl_feature_store_ray.runner --sf-dir /root/testdata/sf0.001 \
        --out /tmp/feature_store [--stores turn_window_features,conv_career]
"""

from __future__ import annotations

import argparse
import json
import os
import time


def _turn_window_features(sf_dir: str):
    from nfl_feature_store_ray.sources.transcripts import transcripts_from_events
    from nfl_feature_store_ray.state.window_engine import window_features

    return window_features(
        transcripts_from_events(sf_dir),
        metrics=("value", "text_len", "n_tokens"),
        assign_turn_idx=True,
    )


def _conv_career(sf_dir: str):
    from nfl_feature_store_ray.pipelines.join_queries import q_agg_career

    return q_agg_career(sf_dir)


def _event_day_pivot(sf_dir: str):
    from nfl_feature_store_ray.pipelines.join_queries import q_pivot_roles

    return q_pivot_roles(sf_dir)


def _turn_window_features_wide(sf_dir: str):
    # the reference's defining wide shape (player store: 182 cols) — 300
    # feature columns through the same engine + manifest machinery
    from nfl_feature_store_ray.pipelines.wide import wide_features

    return wide_features(sf_dir)


# store name -> builder; every store partitions by conv_id, and each commit
# fingerprints every column, so a value change without a key change still
# invalidates its partition
FEATURE_STORE_METAS = {
    "turn_window_features": _turn_window_features,
    "conv_career": _conv_career,
    "event_day_pivot": _event_day_pivot,
    "turn_window_features_wide": _turn_window_features_wide,
}


def run_stores(sf_dir: str, out_root: str, stores: list[str] | None = None,
               num_buckets: int = 16) -> list[dict]:
    """Materialize each selected store; returns one summary dict per store."""
    from nfl_feature_store_ray.state.manifest import write_partitioned

    results = []
    for name, builder in FEATURE_STORE_METAS.items():
        if stores and name not in stores:
            continue
        t0 = time.perf_counter()
        ds = builder(sf_dir)
        out_dir = os.path.join(out_root, name)
        man = write_partitioned(ds, out_dir, num_buckets=num_buckets)
        results.append(
            {
                "store": name,
                "out": out_dir,
                "partitions": int(len(man)),
                "skipped": int(man["skipped"].sum()),
                "rows": int(man["rows_out"].sum()),
                "seconds": round(time.perf_counter() - t0, 3),
            }
        )
    return results


def main(argv: list[str] | None = None) -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    p.add_argument("--out", required=True)
    p.add_argument("--stores", default=None, help="comma-separated store names")
    p.add_argument("--num-buckets", type=int, default=16)
    p.add_argument("--num-cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", "8")))
    args = p.parse_args(argv)

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        ray.init(
            address="local", num_cpus=args.num_cpus, include_dashboard=False,
            ignore_reinit_error=True, logging_level="ERROR",
        )
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
    try:
        stores = args.stores.split(",") if args.stores else None
        for summary in run_stores(args.sf_dir, args.out, stores, args.num_buckets):
            print(json.dumps(summary))
    finally:
        if owns_session:
            ray.shutdown()


if __name__ == "__main__":
    main()
