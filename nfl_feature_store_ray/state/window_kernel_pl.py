"""The window kernel — every point-in-time window family, in polars.

This module is the ONE implementation of the window families; the batch
engine (``window_engine.window_features``), the streaming job, one task
per partition block (``pipelines.partitioned.window_features_streaming``),
the incremental refresh (``state.incremental``) and the chained sub-range
path (``state.skew``) all call ``kernel_arrow``. Families (SURVEY §2.6,
reference probes 1-6, transplanted to the transcript domain §7.0):

  W1 ``last_X``        lag-1 over the entity's ordered turns
  W2 ``form_X``        rolling-FORM_WINDOW mean, min_periods=1, shifted 1
  W3 ``session_avg_X`` per-session expanding mean SEEDED with the entity's
                       final raw value of the prior session, shifted 1;
                       session-start row carries the prior session's final
                       expanding value; first session unseeded, first-ever
                       row null (ref probe 3, season carryover chain)
  W5 ``ewma_X``        recursive EWMA alpha=2/(span+1), adjust=False,
                       shifted 1
  W6 ``roll10_tool_rate`` rolling-COVER_WINDOW mean of the tool indicator,
                       shifted 1
  W7 ``gap_s``         seconds since previous turn
  plus ``avg_X``       whole-conversation expanding mean shifted 1,
  sessionization       inactivity-gap epoch splits (gap > SESSION_GAP_S),
  role counts, tool lags and the per-phase (role-split) families.

"Shifted" always means: the feature row at turn k sees ONLY turns with
(ts, tie) strictly earlier — the zero-temporal-leakage contract, enforced
by tests/test_leakage.py.

Null contract: metric NULLs get SQL aggregate semantics — every family
computes over the NON-NULL values in its frame and yields NULL when the
frame holds none; ``last_X`` stays raw LAG; EWMA runs over the non-null
subsequence; session seeds take the last non-null raw value.

Carried state. ``kernel_arrow(..., carry=table)`` continues every
conversation from a per-conversation carry table (``empty_carry`` starts
one) and returns the updated carry with the features. The carry holds the
turn count and last ts (the watermark), the session id and turn counter,
the role counts, the last tool position and ts, a tail of
max(FORM_WINDOW, COVER_WINDOW) rows of the tool flag and each metric, and
per metric the exact cents sum, non-null count, EWMA register and the
open session's sum / count / last value / seed / previous final — plus the
same registers per phase. The tail rows re-enter the batch as "ghost" rows
in front of each carried conversation, so the rolling families and the
EWMA recursion run through the same polars expressions as an unsplit
batch; the unbounded families add the carried registers. Every family is
therefore bit-identical to the unsplit kernel at any split point except
the rolling means (``form_*``), whose sliding sums start from the carried
tail (rtol 1e-9). A batch that starts before a conversation's carried
watermark raises ``ValueError``.

Thread cap: POLARS_MAX_THREADS=1 is pinned before the first polars import
in each Ray worker so many workers don't each spawn a full thread pool.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from nfl_feature_store_ray.schemas import (
    COVER_WINDOW,
    EWMA_SPAN,
    FORM_WINDOW,
    QUANT_SCALE,
    SESSION_GAP_S,
)

_ROLES = ("user", "assistant", "tool")
_PHASE_FAMS = ("last", "form", "avg", "ewma")
_TAIL = max(FORM_WINDOW, COVER_WINDOW)


def _pl():
    os.environ.setdefault("POLARS_MAX_THREADS", "1")
    import polars as pl

    return pl


def feature_columns(metrics: tuple[str, ...], phases: tuple[str, ...] = ()) -> list[str]:
    """Key columns plus every window feature, in the streaming output order."""
    cols = [
        "conv_id", "ts", "turn_idx", "gap_s", "session_id", "session_turn_idx",
        "n_prior_user", "n_prior_assistant", "n_prior_tool",
        "turns_since_tool", "secs_since_tool", "roll10_tool_rate",
    ]
    for m in metrics:
        cols += [f"{f}_{m}" for f in ("last", "form", "avg", "ewma", "session_avg")]
        for p in phases:
            cols += [f"{f}_{m}_{p}" for f in _PHASE_FAMS]
    return cols


def _carry_schema(metrics: tuple[str, ...], phases: tuple[str, ...]) -> pa.Schema:
    f64, tail = pa.float64(), pa.large_list(pa.float64())
    fields = [
        ("conv_id", pa.large_string()), ("turns", pa.int64()),
        ("last_ts", pa.timestamp("us")), ("session_id", pa.int32()),
        ("session_turns", pa.int32()),
        *[(f"n_{r}", pa.int64()) for r in _ROLES],
        ("tool_pos", pa.int64()), ("tool_ts", pa.timestamp("us")),
        ("tail_tool", pa.large_list(pa.int8())),
    ]
    for m in metrics:
        fields += [(f"tail_{m}", tail)] + [
            (f"{k}_{m}", f64)
            for k in ("sum", "cnt", "ewma", "ssum", "scnt", "slast", "seed", "pfinal")
        ]
        for p in phases:
            fields += [(f"tail_{m}_{p}", tail)] + [
                (f"{k}_{m}_{p}", f64)
                for k in ("sum", "cnt", "ewma", *(f"prev_{f}" for f in _PHASE_FAMS))
            ]
    return pa.schema(fields)


def empty_carry(metrics: tuple[str, ...] = ("value",), phases: tuple[str, ...] = ()) -> pa.Table:
    """The carry of a run that has seen no rows yet."""
    return _carry_schema(metrics, phases).empty_table()


def kernel_arrow(
    tbl,
    metrics: tuple[str, ...] = ("value",),
    session_gap_s: int = SESSION_GAP_S,
    assign_turn_idx: bool = False,
    sort: bool = True,
    tie_col: str | None = None,
    phases: tuple[str, ...] = (),
    carry: pa.Table | None = None,
):
    """Arrow-in/Arrow-out window kernel (zero-copy into polars).

    ``sort=True`` sorts by (conv_id, ts, tie) inside polars; with
    ``sort=False`` the caller guarantees that order. Without ``carry``
    every conversation starts at its first row and the features table is
    returned. With ``carry`` (from ``empty_carry`` or an earlier call)
    each conversation continues from its carried state and the result is
    ``(features, carry_out)``; ``carry_out`` holds every conversation of
    ``carry`` and of ``tbl``."""
    pl = _pl()
    lf = pl.from_arrow(tbl)
    if sort:
        tie = tie_col or next((t for t in ("turn_idx", "_seq") if t in lf.columns), None)
        keys = ["conv_id", "ts"] + ([tie] if tie else [])
        lf = lf.sort(keys)
    if "turn_idx" in lf.columns and not assign_turn_idx:
        # engine invariant (FIXTURES.md F1): (conv_id, turn_idx) unique
        n_dup = lf.select(pl.struct(["conv_id", "turn_idx"]).is_duplicated().sum()).item()
        if n_dup:
            raise ValueError(f"duplicate (conv_id, turn_idx) rows in input: {n_dup}")
    if carry is None:
        return _apply_window_exprs(
            pl, lf, metrics, session_gap_s, assign_turn_idx, phases
        ).to_arrow()

    schema = _carry_schema(metrics, phases)
    if carry.schema.names != schema.names:
        raise ValueError(
            "carry columns do not match the kernel's metrics/phases "
            f"(metrics={metrics}, phases={phases})"
        )
    if lf.height == 0:
        return kernel_arrow(tbl, metrics, session_gap_s, assign_turn_idx, False,
                            tie_col, phases), carry
    # only the batch's conversations enter polars; the rest pass through
    in_batch = pc.is_in(carry["conv_id"], value_set=lf["conv_id"].unique().to_arrow())
    frame = _with_ghosts(pl, lf, pl.from_arrow(carry.filter(in_batch)), metrics, phases)
    out, new = _apply_window_exprs(
        pl, frame, metrics, session_gap_s, assign_turn_idx, phases, carried=True
    )
    late = out.filter(pl.col("_late"))
    if late.height:
        conv, ts = late["conv_id"][0], late["ts"][0]
        wm = carry.filter(pc.equal(carry["conv_id"], conv))["last_ts"][0]
        raise ValueError(
            f"watermark violation for conv {conv}: batch starts at {ts} before watermark {wm}"
        )
    # the no-carry column set: input columns, then the new features
    frame_cols = set(frame.collect_schema().names())
    keep = lf.columns + [
        c for c in out.columns if c not in frame_cols and not c.startswith("_")
    ]
    feats = out.filter(pl.col("_g") == 0).select(keep)
    carry = pa.concat_tables([
        carry.filter(pc.invert(in_batch)), new.select(schema.names).to_arrow().cast(schema),
    ])
    return feats.to_arrow(), carry


def _with_ghosts(pl, lf, hit, metrics, phases):
    """The batch (lazy) with each carried conversation's tail rows in front
    of it (``_g`` = 1 conversation tail, 2 phase tail, 0 the batch's own
    rows) and the carried registers joined on as ``_r_*`` columns."""
    c = pl.col
    dtypes = lf.schema
    last_in_conv = (c("conv_id") != c("conv_id").shift(-1)).fill_null(True)

    def ghosts(kind, role, tails, ewmas):
        with_tool = kind == 1  # the conversation tail also carries tool flags
        g = (
            hit.lazy()
            .filter(c(tails[0] if kind == 2 else "tail_tool").list.len() > 0)
            .select(
                "conv_id",
                c("last_ts").cast(dtypes["ts"]).alias("ts"),
                *[c(t).alias(m) for t, m in zip(tails, metrics)],
                *[c(e).alias(f"_ge_{m}") for e, m in zip(ewmas, metrics)],
                *([c("tail_tool").alias("is_tool")] if with_tool else []),
            )
            .explode([*metrics] + (["is_tool"] if with_tool else []), empty_as_null=False)
        )
        return g.with_columns(
            *[c(m).cast(dtypes[m]) for m in metrics],
            # the EWMA register seeds the recursion from the LAST tail row
            *[pl.when(last_in_conv).then(c(f"_ge_{m}")).alias(f"_ge_{m}") for m in metrics],
            *[pl.lit(0).cast(dtypes[f"is_{ro}"]).alias(f"is_{ro}") for ro in ("user", "assistant")],
            (c("is_tool") if with_tool else pl.lit(0)).cast(dtypes["is_tool"]).alias("is_tool"),
            pl.lit(role, pl.String).alias("role"),
            pl.lit(kind, pl.Int8).alias("_g"),
        )

    parts = [
        ghosts(2, p, [f"tail_{m}_{p}" for m in metrics], [f"ewma_{m}_{p}" for m in metrics])
        for p in (phases if metrics else ())
    ]
    parts.append(ghosts(1, None, [f"tail_{m}" for m in metrics], [f"ewma_{m}" for m in metrics]))

    regs = hit.select(
        "conv_id",
        (c("turns") - c("tail_tool").list.len()).alias("_r_off"),
        c("tool_ts").cast(dtypes["ts"]).alias("_r_tool_ts"),
        *[c(k).alias(f"_r_{k}") for k in hit.columns
          if k not in ("conv_id", "turns", "last_ts", "tool_ts") and not k.startswith("tail_")],
    )
    zero = [k for k in regs.columns if k == "_r_off" or k.startswith(
        ("_r_session", "_r_n_", "_r_sum_", "_r_cnt_", "_r_ssum_", "_r_scnt_"))]
    return (
        pl.concat([*parts, lf.lazy().with_columns(pl.lit(0, pl.Int8).alias("_g"))],
                  how="diagonal")
        .sort("conv_id", maintain_order=True)
        .join(regs.lazy(), on="conv_id", how="left", maintain_order="left")
        .with_columns(*[c(k).fill_null(0) for k in zero], (c("_g") == 2).alias("_ph"))
    )


def _apply_window_exprs(
    pl,
    lf,
    metrics,
    session_gap_s,
    assign_turn_idx,
    phases=(),
    carried=False,
):
    """Every window family over one frame sorted by (conv_id, ts, tie).

    ``carried`` frames come from ``_with_ghosts`` as a LazyFrame: ghost
    rows are masked out of every count and sum, the registers are added,
    and the function collects ``(frame, carry_out)`` together, with the
    helper columns still on."""
    c = pl.col
    conv = c("conv_id")
    real = c("_g") == 0

    def r(name):
        return c(f"_r_{name}")

    # phase-tail ghosts sit in their own partition for the conversation-
    # level windows, so only conversation-tail ghosts precede the rows
    over = {"partition_by": ["conv_id", "_ph"] if carried and phases else "conv_id"}
    pos = conv.cum_count().over(**over) - 1
    exprs = [
        (c("ts") - c("ts").shift(1)).dt.total_microseconds().truediv(1e6)
        .over(**over)
        .alias("gap_s"),
    ]
    if carried:
        pos = pos + r("off")
        exprs.append(pos.alias("_pos"))
    if assign_turn_idx:
        exprs.append(pos.cast(pl.Int32).alias("turn_idx"))
    lf = lf.with_columns(exprs)
    if carried:
        pos = c("_pos")

    sess = (c("gap_s") > session_gap_s).fill_null(False).cast(pl.Int32).cum_sum().over(**over)
    if carried:
        lf = lf.with_columns(
            (sess + r("session_id")).alias("session_id"),
            # a batch row earlier than its conversation's carried last ts
            (real & (c("gap_s") < 0) & (c("_g").shift(1).over(**over) == 1)).alias("_late"),
        )
    else:
        lf = lf.with_columns(sess.alias("session_id"))
    if carried:
        sti = (
            real.cast(pl.Int32).cum_sum().over("conv_id", "session_id") - 1
            + pl.when(c("session_id") == r("session_id")).then(r("session_turns")).otherwise(0)
        )
    else:
        sti = conv.cum_count().over("conv_id", "session_id") - 1
    lf = lf.with_columns(sti.cast(pl.Int32).alias("session_turn_idx"))

    role_exprs = []
    for ro in _ROLES:
        oh = c(f"is_{ro}").cast(pl.Int64)
        if carried:
            oh = oh * real.cast(pl.Int64)
        n_prior = (oh.cum_sum() - oh).over(**over)
        role_exprs.append((n_prior + r(f"n_{ro}") if carried else n_prior).alias(f"n_prior_{ro}"))
    it = c("is_tool").cast(pl.Int64)
    is_tool = (it == 1) & real if carried else it == 1
    turn_pos = pos.cast(pl.Float64)
    prev_tool_pos = pl.when(is_tool).then(turn_pos).otherwise(None).shift(1).forward_fill().over(**over)
    prev_tool_ts = pl.when(is_tool).then(c("ts")).otherwise(None).shift(1).forward_fill().over(**over)
    if carried:
        prev_tool_pos = prev_tool_pos.fill_null(r("tool_pos").cast(pl.Float64))
        prev_tool_ts = prev_tool_ts.fill_null(r("tool_ts"))
    role_exprs += [
        (turn_pos - prev_tool_pos).alias("turns_since_tool"),
        ((c("ts") - prev_tool_ts).dt.total_microseconds() / 1e6).alias("secs_since_tool"),
        it.cast(pl.Float64)
        .shift(1)
        .rolling_mean(COVER_WINDOW, min_samples=1)
        .over(**over)
        .alias("roll10_tool_rate"),
    ]
    lf = lf.with_columns(role_exprs)

    # exact scaled-integer metric columns (schemas.QUANT_SCALE): expanding
    # sums over rint(x*scale) are order-independent (integers are exact in
    # float64 < 2^53) -> bit-identical to the cents-exact SQL oracles and
    # across any split point. NULL-value semantics: sums run on ZERO-FILLED
    # cents plus a separate non-null counter; rolling_mean natively skips
    # nulls (== SQL AVG); EWMA runs over the non-null subsequence
    # (ignore_nulls=True) with the carried value forward-filled at null
    # rows. Ghost rows hold no cents and count as no value.
    def cents(m):
        return (c(m).cast(pl.Float64) * QUANT_SCALE).round(0)

    def masked(e, other):
        return pl.when(real).then(e).otherwise(other) if carried else e

    lf = lf.with_columns(
        [masked(cents(m), None).alias(f"_c_{m}") for m in metrics]
        + [masked(cents(m).fill_null(0.0), 0.0).alias(f"_c0_{m}") for m in metrics]
        + [masked(c(m).is_not_null().cast(pl.Float64), 0.0).alias(f"_nn_{m}") for m in metrics]
    )
    if carried:
        # the EWMA register rides on the last conversation-tail ghost row
        lf = lf.with_columns(
            pl.when(real).then(c(m).cast(pl.Float64)).otherwise(c(f"_ge_{m}"))
            .ewm_mean(span=EWMA_SPAN, adjust=False, ignore_nulls=True)
            .forward_fill().over(**over).alias(f"_ew_{m}")
            for m in metrics
        )

    metric_exprs = []
    open_sess = c("session_id") == r("session_id")
    for m in metrics:
        x = c(m).cast(pl.Float64)
        xc0 = c(f"_c0_{m}")
        nnf = c(f"_nn_{m}")
        cntp = nnf.cum_sum() - nnf  # strictly-prior non-null count
        if carried:
            cnt = cntp.over(**over) + r(f"cnt_{m}")
            avg = pl.when(cnt > 0).then(
                (r(f"sum_{m}") + (xc0.cum_sum() - xc0).over(**over)) / (QUANT_SCALE * cnt)
            )
            ewma = c(f"_ew_{m}").shift(1).over(**over)
            scs = (xc0.cum_sum() - xc0).over("conv_id", "session_id") + pl.when(
                open_sess).then(r(f"ssum_{m}")).otherwise(0.0)
            scnt = (nnf.cum_sum() - nnf).over("conv_id", "session_id") + pl.when(
                open_sess).then(r(f"scnt_{m}")).otherwise(0.0)
        else:
            avg = pl.when(cntp.over(**over) > 0).then(
                ((xc0.cum_sum() - xc0) / (QUANT_SCALE * cntp)).over(**over)
            )
            ewma = (
                x.ewm_mean(span=EWMA_SPAN, adjust=False, ignore_nulls=True)
                .forward_fill().shift(1).over(**over)
            )
            # in-session prior sum / count for the seeded expanding family
            scs = (xc0.cum_sum() - xc0).over("conv_id", "session_id")
            scnt = (nnf.cum_sum() - nnf).over("conv_id", "session_id")
        metric_exprs += [
            x.shift(1).over(**over).alias(f"last_{m}"),
            x.shift(1).rolling_mean(FORM_WINDOW, min_samples=1).over(**over).alias(f"form_{m}"),
            avg.otherwise(None).alias(f"avg_{m}"),
            ewma.alias(f"ewma_{m}"),
            scs.alias(f"_cs_{m}"),
            scnt.alias(f"_cnt_{m}"),
        ]
    lf = lf.with_columns(metric_exprs)

    # --- session-seeded expanding (W3): per-session aggregate + carryover --
    # A carried conversation's first session in the frame is its OPEN
    # session: its totals include the carried sums and its seed and
    # previous final come from the carry instead of the prior session.
    agg = lf.group_by(["conv_id", "session_id"], maintain_order=True).agg(
        [c(f"_c_{m}").sum().fill_null(0.0).alias(f"_total_{m}") for m in metrics]
        + [c(f"_c_{m}").count().alias(f"_n_{m}") for m in metrics]
        # seed = last NON-NULL raw value of the session (null if none)
        + [c(f"_c_{m}").drop_nulls().last().alias(f"_last_{m}") for m in metrics]
        + ([r(k).first().alias(f"_r_{k}") for k in ["session_id"] + [
            f"{k}_{m}" for m in metrics for k in ("ssum", "scnt", "slast", "seed", "pfinal")]]
           if carried else [])
    )
    if carried:
        agg = agg.with_columns(
            [(c(f"_total_{m}") + pl.when(open_sess).then(r(f"ssum_{m}")).otherwise(0.0))
             for m in metrics]
            + [(c(f"_n_{m}") + pl.when(open_sess).then(r(f"scnt_{m}")).otherwise(0.0))
               for m in metrics]
            + [pl.when(open_sess).then(c(f"_last_{m}").fill_null(r(f"slast_{m}")))
               .otherwise(c(f"_last_{m}")).alias(f"_last_{m}") for m in metrics]
        )
    seed_exprs = []
    for m in metrics:
        seed = c(f"_last_{m}").shift(1).over("conv_id")
        if carried:
            seed = pl.when(open_sess).then(r(f"seed_{m}")).otherwise(seed)
        # an unseeded session with no non-null value has no final (NULL,
        # as SQL's NULLIF(n, 0)), never 0 / 0
        final = (
            pl.when(c("session_id") == 0)
            .then(pl.when(c(f"_n_{m}") > 0).then(c(f"_total_{m}") / (QUANT_SCALE * c(f"_n_{m}"))))
            .otherwise((seed + c(f"_total_{m}")) / (QUANT_SCALE * (1.0 + c(f"_n_{m}"))))
        )
        prevfinal = final.shift(1).over("conv_id")
        if carried:
            prevfinal = pl.when(open_sess).then(r(f"pfinal_{m}")).otherwise(prevfinal)
        seed_exprs += [seed.alias(f"_seed_{m}"), prevfinal.alias(f"_prevfinal_{m}")]
    agg = agg.with_columns(seed_exprs)
    lf = lf.join(
        agg.select(["conv_id", "session_id"]
                   + [f"_seed_{m}" for m in metrics]
                   + [f"_prevfinal_{m}" for m in metrics]),
        on=["conv_id", "session_id"], how="left",
        # the carried plan is lazy, where only an explicit order is kept
        **({"maintain_order": "left"} if carried else {}),
    )

    sess_exprs = []
    for m in metrics:
        sess_exprs.append(
            pl.when(c("session_id") == 0)
            .then(
                pl.when(c(f"_cnt_{m}") > 0)
                .then(c(f"_cs_{m}") / (QUANT_SCALE * c(f"_cnt_{m}")))
                .otherwise(None)
            )
            .otherwise(
                pl.when(c(f"_cnt_{m}") > 0)
                .then(
                    (c(f"_seed_{m}") + c(f"_cs_{m}"))
                    / (QUANT_SCALE * (1.0 + c(f"_cnt_{m}")))
                )
                .otherwise(c(f"_prevfinal_{m}"))
            )
            .alias(f"session_avg_{m}")
        )
    lf = lf.with_columns(sess_exprs)

    # --- per-phase (role-split) families: inclusive per-(conv, role)
    # aggregates, then "value at the last strictly-prior phase row". The
    # propagation is a per-phase segmented cummax + O(n) gathers instead of
    # one when/shift/ffill window op per output column — at 20 metrics x 2
    # phases that's 160 window ops avoided (measured ~2x kernel speedup).
    if phases:
        pr = {"partition_by": ["conv_id", "role"]}

        def by_role(name):
            """The carried register of the row's own phase."""
            e = pl.lit(0.0)
            for p in phases:
                e = pl.when(c("role") == p).then(r(f"{name}_{p}")).otherwise(e)
            return e

        incl_exprs = []
        for m in metrics:
            x = c(m).cast(pl.Float64)
            xc0 = masked((x * QUANT_SCALE).round(0).fill_null(0.0), 0.0)
            nnf = masked(x.is_not_null().cast(pl.Float64), 0.0)
            icnt = nnf.cum_sum()  # inclusive NON-NULL count
            if carried:
                cnt = icnt.over(**pr) + by_role(f"cnt_{m}")
                iavg = pl.when(cnt > 0).then(
                    (by_role(f"sum_{m}") + xc0.cum_sum().over(**pr)) / (QUANT_SCALE * cnt))
                ew_in = pl.when(real).then(x).otherwise(c(f"_ge_{m}"))
            else:
                iavg = pl.when(icnt.over(**pr) > 0).then(
                    (xc0.cum_sum() / (QUANT_SCALE * icnt)).over(**pr))
                ew_in = x
            incl_exprs += [
                iavg.otherwise(None).alias(f"_iavg_{m}"),
                x.rolling_mean(FORM_WINDOW, min_samples=1).over(**pr).alias(f"_iform_{m}"),
                ew_in.ewm_mean(span=EWMA_SPAN, adjust=False, ignore_nulls=True)
                .forward_fill().over(**pr).alias(f"_iewma_{m}"),
            ]
        lf = lf.with_columns(incl_exprs)
        if carried:  # a lazy plan so far: the propagation below needs rows
            lf, agg = pl.collect_all([lf, agg])

        n = lf.height
        rows = np.arange(n, dtype=np.int64)
        new_conv = (
            (c("conv_id") != c("conv_id").shift(1)).fill_null(True)
        )
        seg = lf.select(new_conv.cum_sum().alias("s"))["s"].to_numpy().astype(np.int64) - 1
        role_arr = lf["role"].to_numpy()
        is_real = lf["_g"].to_numpy() == 0 if carried else True

        def _last_prior(vmask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """(valid, safe-index) of the last vmask row STRICTLY before
            each row within its conv segment — encode (segment, row+1) so
            one cummax restarts per conv (later segments dominate)."""
            enc = seg * (n + 2) + np.where(vmask, rows + 1, 0)
            cm = np.maximum.accumulate(enc)
            lpi_incl = cm % (n + 2) - 1
            lpi = np.empty(n, dtype=np.int64)
            if n:  # empty blocks still need the full phase-column schema
                lpi[1:] = lpi_incl[:-1]
                lpi[0] = -1
                lpi[np.flatnonzero(seg[1:] != seg[:-1]) + 1] = -1
            return lpi >= 0, np.maximum(lpi, 0)

        phase_cols = {}
        for p in phases:
            mask = (role_arr == p) & is_real
            valid, safe = _last_prior(mask)
            for m in metrics:
                for fam, col in (
                    ("last", m), ("form", f"_iform_{m}"),
                    ("avg", f"_iavg_{m}"), ("ewma", f"_iewma_{m}"),
                ):
                    arr = lf[col].to_numpy().astype(np.float64)
                    # before the frame's first phase row: the carried value
                    prior = (lf[f"_r_prev_{fam}_{m}_{p}"].to_numpy().astype(np.float64)
                             if carried else np.nan)
                    if np.isnan(arr[mask]).any():
                        # NULL-value semantics: propagation skips a NULL
                        # aggregate at a phase row (SQL LAST_VALUE(CASE..)
                        # IGNORE NULLS) — slow path only when this column
                        # actually has NULLs at phase rows
                        v2, s2 = _last_prior(mask & ~np.isnan(arr))
                        phase_cols[f"{fam}_{m}_{p}"] = np.where(v2, arr[s2], prior)
                    else:
                        phase_cols[f"{fam}_{m}_{p}"] = np.where(valid, arr[safe], prior)
        # numpy marks "no value" as NaN: hand it back to polars as NULL
        lf = lf.hstack(pl.DataFrame(phase_cols, nan_to_null=True))
        if not carried:
            lf = lf.drop([f"_{fam}_{m}" for m in metrics for fam in ("iavg", "iform", "iewma")])

    if carried:
        return pl.collect_all([lf.lazy(), _carry_out(pl, lf.lazy(), agg.lazy(), metrics, phases)])
    drop = [f"_{p}_{m}" for m in metrics
            for p in ("c", "c0", "nn", "cs", "cnt", "seed", "prevfinal")]
    return lf.drop(drop)


def _carry_out(pl, lf, agg, metrics, phases):
    """Per-conversation carry after the frame: counters at the last real
    row, tails over the ghost-plus-real rows, registers folded forward."""
    c = pl.col
    real = c("_g") == 0
    conv_rows = c("_g") != 2
    tool = real & (c("is_tool").cast(pl.Int64) == 1)

    def last_real(col):
        return c(col).filter(real).last()

    def reg(name):
        return c(f"_r_{name}").first()

    def last_value(col, rows, name):
        """last non-null value of ``col`` over ``rows``, else the carry's"""
        return c(col).cast(pl.Float64).filter(rows).fill_nan(None).drop_nulls().last().fill_null(reg(name))

    exprs = [
        (last_real("_pos") + 1).alias("turns"),
        last_real("ts").alias("last_ts"),
        last_real("session_id").alias("session_id"),
        (last_real("session_turn_idx") + 1).alias("session_turns"),
        *[(last_real(f"n_prior_{ro}") + last_real(f"is_{ro}")).alias(f"n_{ro}") for ro in _ROLES],
        c("_pos").filter(tool).last().fill_null(reg("tool_pos")).alias("tool_pos"),
        c("ts").filter(tool).last().fill_null(reg("tool_ts")).alias("tool_ts"),
        c("is_tool").cast(pl.Int8).filter(conv_rows).tail(_TAIL).alias("tail_tool"),
    ]
    for m in metrics:
        exprs += [
            c(m).cast(pl.Float64).filter(conv_rows).tail(_TAIL).alias(f"tail_{m}"),
            (reg(f"sum_{m}") + c(f"_c0_{m}").sum()).alias(f"sum_{m}"),
            (reg(f"cnt_{m}") + c(f"_nn_{m}").sum()).alias(f"cnt_{m}"),
            c(f"_ew_{m}").filter(conv_rows).last().alias(f"ewma_{m}"),
        ]
        for p in phases:
            in_p = c("role") == p
            exprs += [
                c(m).cast(pl.Float64).filter(in_p).tail(FORM_WINDOW).alias(f"tail_{m}_{p}"),
                (reg(f"sum_{m}_{p}") + c(f"_c0_{m}").filter(in_p).sum()).alias(f"sum_{m}_{p}"),
                (reg(f"cnt_{m}_{p}") + c(f"_nn_{m}").filter(in_p).sum()).alias(f"cnt_{m}_{p}"),
                c(f"_iewma_{m}").filter(in_p).last().alias(f"ewma_{m}_{p}"),
            ] + [
                last_value(col, real & in_p, f"prev_{fam}_{m}_{p}").alias(f"prev_{fam}_{m}_{p}")
                for fam, col in (("last", m), ("form", f"_iform_{m}"),
                                 ("avg", f"_iavg_{m}"), ("ewma", f"_iewma_{m}"))
            ]
    new = lf.group_by("conv_id", maintain_order=True).agg(exprs)
    # the open session's registers: the conversation's last session row
    sess = agg.group_by("conv_id", maintain_order=True).agg(
        [c(f"_total_{m}").last().alias(f"ssum_{m}") for m in metrics]
        + [c(f"_n_{m}").last().cast(pl.Float64).alias(f"scnt_{m}") for m in metrics]
        + [c(f"_last_{m}").last().alias(f"slast_{m}") for m in metrics]
        + [c(f"_seed_{m}").last().alias(f"seed_{m}") for m in metrics]
        + [c(f"_prevfinal_{m}").last().alias(f"pfinal_{m}") for m in metrics]
    )
    return new.join(sess, on="conv_id", how="left", maintain_order="left")
