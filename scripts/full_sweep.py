"""Driver-emulation full sweep: every queries() entry vs its oracle_sql()
at a given sf_dir (default sf0.01), with the driver's semantics — row
count, sorted column set, dtype-KIND equality on numerics, and an
order-insensitive value compare at 6dp. A query without an oracle
fails. Runs on a one-CPU Ray session, the benchmark's setting, so a job
that needs a second CPU to make progress hangs here instead of hiding.
Prints one line per query and a final tally.
Usage: python scripts/full_sweep.py [sf_dir], from any working
directory: the driver and Ray's workers both import this checkout's
package.
"""
import sys
import warnings
from pathlib import Path

warnings.filterwarnings("ignore")
ROOT = str(Path(__file__).resolve().parents[1])  # this checkout
sys.path.insert(0, ROOT)

import duckdb
import numpy as np
import pandas as pd
import ray

TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def main(sf_dir: str) -> int:
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR",
                 runtime_env={"env_vars": {"PYTHONPATH": ROOT}})
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import __ray_entry__ as e

    q, o = e.queries(), e.oracle_sql()
    n_pass = n_fail = 0
    for name in q:
        try:
            sql = o[name]
            r = q[name](sf_dir)
            r = r.to_pandas() if not isinstance(r, pd.DataFrame) else r
            con = duckdb.connect()
            for t in TABLES:
                con.execute(
                    f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')"
                )
            s = con.execute(sql).df()
            assert len(r) == len(s), f"rows {len(r)} != {len(s)}"
            cols = sorted(r.columns)
            assert cols == sorted(s.columns), "columns"
            rr, ss = r[cols].copy(), s[cols].copy()
            for c in cols:
                rk = "i" if rr[c].dtype.kind in "iu" else rr[c].dtype.kind
                sk = "i" if ss[c].dtype.kind in "iu" else ss[c].dtype.kind
                if {rk, sk} <= {"i", "f", "b"}:
                    assert rk == sk, f"dtype-kind {c}: {rr[c].dtype} vs {ss[c].dtype}"
                if rr[c].dtype.kind in "fc" or ss[c].dtype.kind in "fc":
                    rr[c] = rr[c].astype(float).round(6)
                    ss[c] = ss[c].astype(float).round(6)
                if rr[c].dtype.kind == "M":
                    rr[c] = rr[c].astype("datetime64[us]")
                if ss[c].dtype.kind == "M":
                    ss[c] = ss[c].astype("datetime64[us]")
            a = np.sort(rr.astype(str).agg("|".join, axis=1).to_numpy())
            b = np.sort(ss.astype(str).agg("|".join, axis=1).to_numpy())
            assert (a == b).all(), "values"
            n_pass += 1
            print(f"PASS      {name}: {len(r)} rows")
        except Exception as ex:
            n_fail += 1
            print(f"FAIL      {name}: {type(ex).__name__} {str(ex)[:140]}")
    print(f"\n{n_pass} exact, {n_fail} FAILED of {len(q)} at {sf_dir}")
    ray.shutdown()
    return 1 if n_fail else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"))
