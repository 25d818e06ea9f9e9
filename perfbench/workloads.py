"""The three workloads: inputs, one-time store preparation, one job.

Each workload drives the program through its public API only. A job
runs from building the Dataset to consuming (or committing) its last
output row; the output is kept and checked against the oracle's digest
after the clock stops.

- ``backfill``: raw events -> ``transcripts_from_events`` ->
  ``window_features`` over an unpartitioned, shuffled input. The bucket
  shuffle and the polars kernel do the work; nothing is written.
- ``training_set``: ``asof_join(labels, features)`` against a feature
  store written at set-up. Wide rows (~40 columns) cross the shuffle; the
  window kernel does no work.
- ``refresh``: append rounds on a partitioned store.
  ``ingest_partitioned_with_transform`` then ``window_features_incremental``
  per round, on state restored from a set-up snapshot at the start of
  each pass over the rounds. Manifests, atomic writes and pickled state;
  the polars kernel is bypassed.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import check
import gen
import layers
from oracle import ASOF_COLS, ASOF_KEYS, FEATURE_COLS, FEATURE_KEYS, METRICS

# Sizes for one core; a job stays in the low seconds so a run holds several.
BACKFILL_TURNS = 150_000
TRAINING_TURNS = 30_000
TRAINING_LABELS = 6_000
REFRESH_TURNS = 60_000
REFRESH_SHARES = [0.92, 0.94, 0.96, 0.98, 1.00]  # set-up prefix, then 2 % rounds


@dataclass
class Job:
    seconds: float
    rows: int
    error: str | None = None
    write_bytes: int = 0
    layer: dict = field(default_factory=dict)


def consume(ds) -> list[pa.Table]:
    return list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))


def _concat(tables: list[pa.Table]) -> pa.Table:
    tables = [t for t in tables if t.num_rows]
    return pa.concat_tables(tables, promote_options="permissive") if tables else None


class Workload:
    name = ""
    pass_len = 1  # a run ends on a whole pass, so every run times the same jobs
    keys: list[str] = []
    cols: list[str] = []

    def __init__(self, work: str, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.expected: list[tuple[int, int]] = []
        self.setup_error: str | None = None

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def load_oracle(self) -> None:
        with open(self.path("oracle.json")) as f:
            self.expected = [tuple(d) for d in json.load(f)["digests"]]

    def verify(self, tables: list[pa.Table], want: tuple[int, int], rows=None) -> str | None:
        """None when the output matches the oracle rows ``rows`` (a mask
        over ``oracle.parquet``; all rows when None)."""
        got = _concat(tables)
        if got is None:
            return None if want[0] == 0 else f"no output rows, expected {want[0]}"
        if check.digest(got, self.cols) == tuple(want):
            return None
        oracle = pq.read_table(self.path("oracle.parquet"))
        if rows is not None:
            oracle = oracle.filter(pa.array(rows))
        return check.compare(got, oracle, self.keys, self.cols)

    # overridden -------------------------------------------------------
    def inputs(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Store preparation and warm-up inside a fresh Ray session."""
        raise NotImplementedError

    def job(self, tracer=None) -> Job:
        raise NotImplementedError


class Backfill(Workload):
    name = "backfill"
    keys, cols = FEATURE_KEYS, FEATURE_COLS

    def inputs(self) -> None:
        pq.write_table(gen.events(self.seed, BACKFILL_TURNS), self.path("events.parquet"))

    def _dataset(self, src):
        from nfl_feature_store_ray.state import window_features

        return window_features(src, metrics=METRICS, assign_turn_idx=True)

    def prepare(self) -> None:
        self.setup_error = self.job().error  # warm-up job

    def job(self, tracer=None) -> Job:
        from nfl_feature_store_ray.sources import transcripts_from_events

        if tracer is None:
            t0 = time.perf_counter()
            out = consume(self._dataset(transcripts_from_events(self.work)))
            secs = time.perf_counter() - t0
            return Job(secs, sum(t.num_rows for t in out), self.verify(out, self.expected[0]))

        from nfl_feature_store_ray.stages.bucketize import with_bucket
        from nfl_feature_store_ray.stages.derive import derive_turn_columns

        t0 = time.perf_counter()
        with tracer.span("sources"):
            src = transcripts_from_events(self.work).materialize()
        with tracer.span("stages.derive"):
            derive_turn_columns(src).materialize()
        with tracer.span("stages.bucketize.hash"):
            sizes = layers.bucket_sizes(with_bucket(src).materialize())
        with tracer.span("state.window_engine"):
            ds = self._dataset(src)
            out = consume(ds)
        secs = time.perf_counter() - t0
        ops = layers.operator_stats(ds)
        layer = {
            "sources.rows": src.count(),
            "stages.bucketize.bucket_skew": layers.skew(sizes),
            "state.window_kernel_pl.busy_s": ops.get("state.window_kernel_pl", {}).get("busy_s", 0.0),
            # map_groups calls the kernel once per non-empty bucket
            "state.window_kernel_pl.calls": int((sizes > 0).sum()),
        }
        layer.update(_common_layer(tracer, ops))
        return Job(secs, sum(t.num_rows for t in out), self.verify(out, self.expected[0]),
                   layer=layer)


class TrainingSet(Workload):
    name = "training_set"
    keys, cols = ASOF_KEYS, ASOF_COLS

    def inputs(self) -> None:
        ev = gen.events(self.seed, TRAINING_TURNS)
        pq.write_table(ev, self.path("events.parquet"))
        pq.write_table(gen.labels(self.seed, ev, TRAINING_LABELS), self.path("labels.parquet"))

    def prepare(self) -> None:
        from nfl_feature_store_ray.sources import transcripts_from_events
        from nfl_feature_store_ray.state import window_features

        shutil.rmtree(self.path("store"), ignore_errors=True)
        window_features(
            transcripts_from_events(self.work), metrics=METRICS, assign_turn_idx=True
        ).write_parquet(self.path("store"))
        self.setup_error = self.job().error  # warm-up job

    def job(self, tracer=None) -> Job:
        import ray.data
        from nfl_feature_store_ray.state import asof_join

        if tracer is None:
            t0 = time.perf_counter()
            out = consume(asof_join(
                ray.data.read_parquet(self.path("labels.parquet")),
                ray.data.read_parquet(self.path("store")),
            ))
            secs = time.perf_counter() - t0
            return Job(secs, sum(t.num_rows for t in out), self.verify(out, self.expected[0]))

        from nfl_feature_store_ray.stages.bucketize import with_bucket

        t0 = time.perf_counter()
        with tracer.span("sources"):
            left = ray.data.read_parquet(self.path("labels.parquet")).materialize()
            right = ray.data.read_parquet(self.path("store")).materialize()
        with tracer.span("stages.bucketize.hash"):
            sizes = layers.bucket_sizes(
                with_bucket(left).materialize(), with_bucket(right).materialize()
            )
        with tracer.span("state.asof"):
            ds = asof_join(left, right)
            out = consume(ds)
        secs = time.perf_counter() - t0
        ops = layers.operator_stats(ds)
        got = _concat(out)
        unmatched = got.column("turn_idx").null_count if got is not None else 0
        layer = {
            "sources.rows": left.count() + right.count(),
            "stages.bucketize.bucket_skew": layers.skew(sizes),
            "state.asof.merge_s": ops.get("state.asof", {}).get("busy_s", 0.0),
            "state.asof.match_ratio": 1.0 - unmatched / max(1, left.count()),
        }
        layer.update(_common_layer(tracer, ops))
        return Job(secs, sum(t.num_rows for t in out), self.verify(out, self.expected[0]),
                   layer=layer)


class Refresh(Workload):
    name = "refresh"
    pass_len = len(REFRESH_SHARES) - 1
    keys, cols = FEATURE_KEYS, FEATURE_COLS

    def __init__(self, work: str, seed: int) -> None:
        super().__init__(work, seed)
        self.parts, self.state = self.path("store", "parts"), self.path("store", "state")
        self.saved = self.path("saved")
        self.slice = None

    def inputs(self) -> None:
        ev = gen.events(self.seed, REFRESH_TURNS)
        pq.write_table(ev, self.path("events.parquet"))
        cuts = gen.time_cutoffs(ev, REFRESH_SHARES)
        part = gen.slice_of(ev, cuts)
        # the grown table as the upstream producer leaves it before round k
        for k in range(len(cuts)):
            os.makedirs(self.path(f"in_{k}"), exist_ok=True)
            pq.write_table(ev.filter(pa.array(part <= k)), self.path(f"in_{k}", "events.parquet"))
        with open(self.path("meta.json"), "w") as f:
            json.dump({"cuts": [int(c) for c in cuts]}, f)

    def load_oracle(self) -> None:
        super().load_oracle()
        us = pq.read_table(self.path("oracle.parquet"), columns=["ts"]).column("ts")
        with open(self.path("meta.json")) as f:
            cuts = np.asarray(json.load(f)["cuts"], dtype=np.int64)
        self.slice = np.searchsorted(cuts, us.cast(pa.int64()).to_numpy(), side="left")

    def _ingest(self, k: int):
        from nfl_feature_store_ray.pipelines.partitioned import (
            ingest_partitioned_with_transform,
            sort_partition,
        )
        from nfl_feature_store_ray.sources import transcripts_from_events

        return ingest_partitioned_with_transform(
            transcripts_from_events(self.path(f"in_{k}")), self.parts, transform=sort_partition
        )

    def _incremental(self):
        from nfl_feature_store_ray.state.incremental import window_features_incremental

        return window_features_incremental(self.parts, self.state, metrics=METRICS)

    def prepare(self) -> None:
        for d in (self.path("store"), self.saved):
            shutil.rmtree(d, ignore_errors=True)
        self._ingest(0)
        out = consume(self._incremental())
        self.setup_error = self.verify(out, self.expected[0], self.slice == 0)
        shutil.copytree(self.path("store"), self.saved)
        self.round = len(REFRESH_SHARES)  # the first job restores the snapshot

    def _restore(self) -> None:
        shutil.rmtree(self.path("store"))
        shutil.copytree(self.saved, self.path("store"))
        self.round = 1

    def _mark(self) -> int:
        marker = self.path("marker")
        with open(marker, "w"):
            pass
        return os.stat(marker).st_mtime_ns

    def job(self, tracer=None) -> Job:
        if self.round >= len(REFRESH_SHARES):
            self._restore()
        k = self.round
        self.round += 1
        before = layers.manifests(self.parts)
        since = self._mark()
        if tracer is None:
            t0 = time.perf_counter()
            self._ingest(k)
            out = consume(self._incremental())
            secs = time.perf_counter() - t0
            layer = {}
        else:
            secs, out, layer = self._traced(k, tracer)
        after = layers.manifests(self.parts)
        rewritten = [m for m in after.values() if m["mtime_ns"] >= since]
        changed = [n for n, m in after.items()
                   if n not in before or before[n]["rows_in"] != m["rows_in"]]
        written = layers.bytes_written_since([self.parts, self.state], since)
        if tracer is not None:
            scanned = sum(m["rows_in"] for m in after.values())
            delta = sum(t.num_rows for t in out)
            layer.update({
                "state.manifest.partitions_rewritten": len(rewritten),
                "state.manifest.partitions_skipped": len(after) - len(rewritten),
                "state.manifest.rewrite_ratio": len(rewritten) / max(1, len(changed)),
                "state.manifest.write_s": sum(m["seconds"] for m in rewritten),
                "state.incremental.rows_scanned": scanned,
                "state.incremental.delta_rows": delta,
                "state.incremental.useful_ratio": delta / max(1, scanned),
                "state.incremental.state_mb": layers.state_bytes(self.state) / 1e6,
                "store.write_mb": written / 1e6,
            })
        error = self.verify(out, self.expected[k], self.slice == k)
        return Job(secs, sum(t.num_rows for t in out), error, written, layer)

    def _traced(self, k: int, tracer):
        from nfl_feature_store_ray.pipelines.partitioned import sort_partition
        from nfl_feature_store_ray.sources import transcripts_from_events
        from nfl_feature_store_ray.stages.bucketize import BUCKET_COL, with_bucket
        from nfl_feature_store_ray.state.manifest import group_fingerprint, partitioned_commit

        t0 = time.perf_counter()
        with tracer.span("sources"):
            src = transcripts_from_events(self.path(f"in_{k}")).materialize()
        with tracer.span("stages.bucketize.hash"):
            bucketed = with_bucket(src).materialize()
            sizes = layers.bucket_sizes(bucketed)
        frame = bucketed.to_pandas()
        with tracer.span("state.manifest.fingerprint"):
            for _, g in frame.groupby(BUCKET_COL, sort=False):
                g = g.drop(columns=[BUCKET_COL])
                group_fingerprint(g, list(g.columns))
        # the lazy commit stage ingest_partitioned_with_transform wraps; an
        # append never vacates a bucket, so the wrapper's prune is a no-op
        with tracer.span("state.manifest"):
            ds = partitioned_commit(src, self.parts, transform=sort_partition)
            ds.to_pandas()
        ops = layers.operator_stats(ds)
        with tracer.span("state.incremental"):
            inc = self._incremental()
            out = consume(inc)
        secs = time.perf_counter() - t0
        inc_ops = layers.operator_stats(inc)
        ops["driver"]["blocked_s"] += inc_ops["driver"]["blocked_s"]
        layer = {
            "sources.rows": src.count(),
            "stages.bucketize.bucket_skew": layers.skew(sizes),
            "state.manifest.fingerprint_s": tracer.seconds("state.manifest.fingerprint", tracer.job),
            "state.incremental.busy_s": tracer.seconds("state.incremental", tracer.job),
        }
        layer.update(_common_layer(tracer, ops))
        return secs, out, layer


def _common_layer(tracer, ops: dict) -> dict:
    shuffle = ops.get("stages.bucketize.shuffle", {})
    return {
        "sources.busy_s": tracer.seconds("sources", tracer.job),
        "stages.derive.busy_s": tracer.seconds("stages.derive", tracer.job),
        "stages.bucketize.hash_s": tracer.seconds("stages.bucketize.hash", tracer.job),
        "stages.bucketize.shuffle_s": shuffle.get("busy_s", 0.0),
        "stages.bucketize.shuffle_rows": shuffle.get("rows", 0),
        "stages.bucketize.shuffle_mb": shuffle.get("bytes", 0) / 1e6,
        "stages.bucketize.spilled_mb": ops.get("spilled_bytes", 0) / 1e6,
        "driver.iter_blocked_s": ops["driver"]["blocked_s"],
    }


WORKLOADS = {w.name: w for w in (Backfill, TrainingSet, Refresh)}
