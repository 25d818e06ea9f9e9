"""Feature-store benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload backfill --seed 1 --seconds 20 --trace 0

Run from the repository root. The run generates the workload's input
from ``--seed``, computes the DuckDB oracle in a child process, then sets
up the store in a fresh Ray session (``num_cpus`` = 1) twice
and keeps the second session. It then runs jobs in a closed loop with
one client for ``--seconds`` seconds, checks every job's output against
the oracle and prints one JSON object as the last line of stdout.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates an
untraced job with a traced one and reports the per-layer metrics (medians
over the traced jobs) and the tracing overhead. Spans go to
``.perfbench/traces/``. Scratch data lives in ``.perfbench/`` and is
removed at exit. See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPS = 2
# One Ray CPU, one Arrow and one polars thread, whatever the host offers: the
# workloads are sized for one core, and on a shared host extra parallelism
# measures the scheduler rather than the program
NUM_CPUS = 1
# Ray gives its raylet 30 s to register; on a loaded host it sometimes
# misses that, so a failed start is torn down and tried again
START_ATTEMPTS = 3
UNIX_SOCKET_MAX = 107  # AF_UNIX path limit Ray checks for its socket files
RAY_SOCKET_TAIL = len("/session_2026-01-01_00-00-00_000000_4194304/sockets/plasma_store")

END_TO_END = {
    "setup_s": "s", "rows_per_s": "1/s", "job_p50_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "sources.busy_s": "s", "sources.rows": "count",
    "stages.derive.busy_s": "s",
    "stages.bucketize.hash_s": "s", "stages.bucketize.shuffle_s": "s",
    "stages.bucketize.shuffle_rows": "count", "stages.bucketize.shuffle_mb": "MB",
    "stages.bucketize.bucket_skew": "ratio", "stages.bucketize.spilled_mb": "MB",
    "state.window_kernel_pl.busy_s": "s", "state.window_kernel_pl.calls": "count",
    "state.asof.merge_s": "s", "state.asof.match_ratio": "ratio",
    "state.manifest.partitions_rewritten": "count",
    "state.manifest.partitions_skipped": "count",
    "state.manifest.rewrite_ratio": "ratio",
    "state.manifest.fingerprint_s": "s", "state.manifest.write_s": "s",
    "state.incremental.rows_scanned": "count", "state.incremental.delta_rows": "count",
    "state.incremental.useful_ratio": "ratio", "state.incremental.state_mb": "MB",
    "state.incremental.busy_s": "s",
    "store.write_mb": "MB",
    "driver.iter_blocked_s": "s",
    "trace.overhead_s": "s",
}


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def ray_temp_dir(scratch: str) -> str | None:
    """Ray's session directory inside the checkout, or None when the
    checkout path is too long for Ray's socket files."""
    path = os.path.join(scratch, "ray")
    return path if len(path) + RAY_SOCKET_TAIL <= UNIX_SOCKET_MAX else None


def start_ray(temp_dir: str | None) -> None:
    import logging

    import ray
    import ray.data

    root = temp_dir or "/tmp/ray"  # Ray's own default, not $TMPDIR
    for attempt in range(1, START_ATTEMPTS + 1):
        before = set(glob.glob(os.path.join(root, "session_2*")))
        try:
            ray.init(
                address="local",  # never attach to a cluster someone else started
                num_cpus=NUM_CPUS,
                include_dashboard=False,
                log_to_driver=False,
                logging_level="ERROR",
                object_store_memory=512 << 20,
                _temp_dir=root,
            )
            break
        except Exception as e:
            log(f"Ray start {attempt}/{START_ATTEMPTS} failed: {type(e).__name__}: {e}")
            stop_ray(grace=0)
            if temp_dir is None:  # the half-started session Ray left in /tmp
                for d in set(glob.glob(os.path.join(root, "session_2*"))) - before:
                    shutil.rmtree(d, ignore_errors=True)
            if attempt == START_ATTEMPTS:
                raise
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident memory of the driver plus every Ray worker process
    (VmHWM from /proc, since psutil is not available)."""
    kb = _vm_hwm_kb(os.getpid())
    for pid in layers.descendants():
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read()
        except OSError:
            continue
        if b"default_worker.py" in cmd:
            kb += _vm_hwm_kb(pid)
    return kb / 1024.0


def stop_ray(grace: float = 30) -> None:
    """Shut Ray down and wait until every process it started has ended,
    killing what is left after ``grace`` seconds. A session directory Ray
    had to put outside the checkout is removed."""
    import ray

    pids = layers.descendants()
    node = ray._private.worker._global_node
    session = node.get_session_dir_path() if node is not None else None
    try:
        ray.shutdown()
    finally:
        if not _wait_gone(pids, grace):
            for p in pids:
                try:
                    os.kill(p, signal.SIGKILL)
                except OSError:
                    pass
            _wait_gone(pids, 10)
        if session and not session.startswith(ROOT + os.sep):
            latest = os.path.join(os.path.dirname(session), "session_latest")
            if os.path.realpath(latest) == os.path.realpath(session):
                os.unlink(latest)
            shutil.rmtree(session, ignore_errors=True)


def _wait_gone(pids: list[int], seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if not [p for p in pids if os.path.exists(f"/proc/{p}") and not _zombie(p)]:
            return True
        time.sleep(0.1)
    return False


def _zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run still unwinds, so Ray's processes are stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    # the program under test lives next to this directory
    if not os.path.isdir(os.path.join(ROOT, "nfl_feature_store_ray")):
        log(f"no nfl_feature_store_ray package under {ROOT}; run from a checkout")
        return 2
    sys.path.insert(0, ROOT)
    # before pyarrow and polars size their thread pools
    os.environ["OMP_NUM_THREADS"] = os.environ["POLARS_MAX_THREADS"] = str(NUM_CPUS)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    import nfl_feature_store_ray  # noqa: F401  (fails fast on a broken checkout)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2

    scratch = os.path.join(ROOT, ".perfbench")
    work = os.path.join(scratch, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(os.path.join(work, "tmp"))
    # library temp files (ours, the oracle's, Ray workers') stay in the checkout
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    tempfile.tempdir = None
    temp_dir = ray_temp_dir(scratch)
    if temp_dir is None:
        log("checkout path too long for Ray's sockets; Ray uses /tmp/ray")
    try:
        return run(args, WORKLOADS[args.workload](work, args.seed), temp_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if temp_dir is not None:
            shutil.rmtree(temp_dir, ignore_errors=True)


def run(args, wl, temp_dir: str | None) -> int:
    import ray

    from workloads import Job

    t0 = time.perf_counter()
    wl.inputs()
    gen_s = time.perf_counter() - t0
    subprocess.run(
        [sys.executable, os.path.join(HERE, "oracle.py"), wl.name, wl.work], check=True
    )
    wl.load_oracle()

    tracer = layers.Tracer() if args.trace else None
    jobs, traced, plain = [], [], []
    try:
        reps = []
        for i in range(SETUP_REPS):
            t0 = time.perf_counter()
            start_ray(temp_dir)
            wl.prepare()
            reps.append(time.perf_counter() - t0)
            if wl.setup_error:
                break
            if i < SETUP_REPS - 1:
                stop_ray()
        setup_s = gen_s + statistics.median(reps)
        log(f"set-up {', '.join(f'{r:.2f}' for r in reps)} s (+{gen_s:.2f} s input generation)")

        start = time.perf_counter()
        while (time.perf_counter() - start < args.seconds or len(jobs) % wl.pass_len
               or not jobs or (tracer is not None and not traced)):
            use_trace = tracer is not None and len(jobs) % 2 == 1
            if tracer is not None:
                tracer.job = len(jobs)
            try:
                job = wl.job(tracer if use_trace else None)
            except Exception as e:  # a failing job is counted, not fatal
                job = Job(0.0, 0, f"{type(e).__name__}: {e}")
            if job.error:
                log(f"job {len(jobs)} failed: {job.error}")
            jobs.append(job)
            (traced if use_trace else plain).append(job)
        rss = peak_rss_mb()
    finally:
        if ray.is_initialized():
            stop_ray()

    attempted = len(jobs)
    failed = sum(1 for j in jobs if j.error)
    ok = [j for j in plain if not j.error] or plain
    e2e = {
        "setup_s": setup_s,
        "rows_per_s": statistics.median(j.rows / j.seconds if j.seconds > 0 else 0.0 for j in ok),
        "job_p50_s": statistics.median(j.seconds for j in ok),
        "peak_rss_mb": rss,
    }
    write_mb = statistics.median(j.write_bytes for j in plain) / 1e6
    log(
        f"{wl.name} seed={args.seed}: {len(plain)} untraced jobs; "
        + ", ".join(f"{k}={v:.4f} {END_TO_END[k]}" for k, v in e2e.items())
        + f", write_mb={write_mb:.4f} MB, error_rate={failed / attempted:.4f}"
        + f"; job seconds {[round(j.seconds, 3) for j in plain]}"
    )
    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    else:
        good = [j for j in traced if not j.error]
        metrics = {}
        for k, unit in PER_LAYER.items():
            vals = [j.layer.get(k, 0.0) for j in good] or [0.0]
            metrics[k] = {"value": statistics.median(vals), "unit": unit}
        if good:
            metrics["trace.overhead_s"]["value"] = (
                statistics.median(j.seconds for j in good) - e2e["job_p50_s"]
            )
        path = os.path.join(ROOT, ".perfbench", "traces", f"{wl.name}-s{args.seed}.json")
        tracer.dump(path)
        log(f"spans written to {path}")

    print(json.dumps({
        "correct": failed == 0 and wl.setup_error is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
