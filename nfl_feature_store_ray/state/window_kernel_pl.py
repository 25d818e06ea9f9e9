"""The window kernel — every point-in-time window family, in polars.

This module is the ONE implementation of the window families; the batch
engine (``window_engine.window_features``), the streaming job, one task
per partition block (``pipelines.partitioned.window_features_streaming``),
the incremental refresh (``state.incremental``) and the chained sub-range
path (``state.skew``) all call ``kernel_arrow``. Families (SURVEY §2.6,
reference probes 1-6, transplanted to the transcript domain §7.0):

  W1 ``last_X``        lag-1 over the entity's ordered turns
  W2 ``form_X``        rolling-FORM_WINDOW mean, min_periods=1, shifted 1
                       (integer-cent window sum / non-null count)
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
subsequence; session seeds take the last non-null raw value. A NaN
metric value counts as NULL.

One plan. Each call builds one lazy polars plan over the frame sorted by
(conv_id, ts, tie) and collects it once. Every conversation-level family
is a whole-frame scan that restarts at segment starts, keyed on row
indices rather than a regrouping ``.over()``: prior sums are Int64
cumulative sums of cents and counts minus their value at the segment's
(or session's) first row, lags are shifts masked at segment starts, and
"last prior tool / phase / non-null row" is a forward-filled row index
gathered from. Only the EWMA recursion (per conversation) and the
per-phase aggregates (a (conv, role) run is not contiguous) keep
``.over()``.

Carried state. ``kernel_arrow(..., carry=table)`` continues every
conversation from a per-conversation carry table (``empty_carry`` starts
one) and returns the updated carry with the features. The carry holds the
turn count and last ts (the watermark), the session id and turn counter,
the role counts, the last tool position and ts, a tail of
max(FORM_WINDOW, COVER_WINDOW) rows of the tool flag and each metric, and
per metric the exact cents sum, non-null count, EWMA register and the
open session's sum / count / last value / seed / previous final — plus the
same registers per phase. The tail rows re-enter the batch as "ghost" rows
in front of each carried conversation, so the rolling windows (integer-
cent sums, ``form_*`` included) and the EWMA recursion run through the
same expressions as an unsplit batch; the expanding families start at the
first batch row and add the carried registers. Without a carry the
registers are literal zeros and the plan has no ghost rows. Every family
is therefore bit-identical to the unsplit kernel at any split point, and
to a call over any other set of conversations. A batch that starts before
a conversation's carried watermark raises ``ValueError``.

Thread cap: POLARS_MAX_THREADS=1 is pinned before the first polars import
in each Ray worker so many workers don't each spawn a full thread pool.
"""

from __future__ import annotations

import os

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


def _features(metrics, phases, assign_turn_idx) -> list[str]:
    """The features the kernel appends to its input, in their order."""
    return [
        "gap_s", *(["turn_idx"] if assign_turn_idx else []), "session_id", "session_turn_idx",
        *[f"n_prior_{ro}" for ro in _ROLES],
        "turns_since_tool", "secs_since_tool", "roll10_tool_rate",
        *[f"{f}_{m}" for m in metrics for f in ("last", "form", "avg", "ewma")],
        *[f"session_avg_{m}" for m in metrics],
        *[f"{f}_{m}_{p}" for p in phases for m in metrics for f in _PHASE_FAMS],
    ]


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
    df = pl.from_arrow(tbl)
    if sort:
        tie = tie_col or next((t for t in ("turn_idx", "_seq") if t in df.columns), None)
        df = df.sort(["conv_id", "ts"] + ([tie] if tie else []))
    if "turn_idx" in df.columns and not assign_turn_idx:
        # engine invariant (FIXTURES.md F1): (conv_id, turn_idx) unique
        n_dup = df.select(pl.struct(["conv_id", "turn_idx"]).is_duplicated().sum()).item()
        if n_dup:
            raise ValueError(f"duplicate (conv_id, turn_idx) rows in input: {n_dup}")
    cols = df.columns + [
        f for f in _features(metrics, phases, assign_turn_idx) if f not in df.columns
    ]
    if carry is None:
        plan = _window_plan(pl, df.lazy(), metrics, session_gap_s, assign_turn_idx, phases)
        return plan.select(cols).collect().to_arrow()

    schema = _carry_schema(metrics, phases)
    if carry.schema.names != schema.names:
        raise ValueError(
            "carry columns do not match the kernel's metrics/phases "
            f"(metrics={metrics}, phases={phases})"
        )
    if df.height == 0:
        return kernel_arrow(tbl, metrics, session_gap_s, assign_turn_idx, False,
                            tie_col, phases), carry
    # only the batch's conversations enter polars; the rest pass through
    in_batch = pc.is_in(carry["conv_id"], value_set=df["conv_id"].unique().to_arrow())
    frame = _with_ghosts(pl, df, pl.from_arrow(carry.filter(in_batch)), metrics, phases)
    out = _window_plan(
        pl, frame, metrics, session_gap_s, assign_turn_idx, phases, ghosts=True
    ).collect()
    real = pl.col("_g") == 0
    # a batch row earlier than its conversation's carried last ts
    late = out.filter(real & (pl.col("gap_s") < 0) & (pl.col("_g").shift(1) == 1))
    if late.height:
        conv, ts = late["conv_id"][0], late["ts"][0]
        wm = carry.filter(pc.equal(carry["conv_id"], conv))["last_ts"][0]
        raise ValueError(
            f"watermark violation for conv {conv}: batch starts at {ts} before watermark {wm}"
        )
    carry = pa.concat_tables([
        carry.filter(pc.invert(in_batch)),
        _carry_out(pl, out, metrics, phases).select(schema.names).to_arrow().cast(schema),
    ])
    return out.filter(real).select(cols).to_arrow(), carry


def _with_ghosts(pl, df, hit, metrics, phases):
    """The batch (lazy) with each carried conversation's tail rows in front
    of it (``_g`` = 2 phase tail, 1 conversation tail, 0 the batch's own
    rows; ``_ph`` puts the phase tails in a segment of their own) and the
    carried registers joined on as ``_r_*`` columns."""
    c = pl.col
    dtypes = df.schema
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

    # counters and cents sums enter the plan as Int64 (0 for a conversation
    # the carry has not seen); the other registers stay null there
    counters = [k for k in hit.columns if k.startswith(
        ("turns", "session", "n_", "sum_", "cnt_", "ssum_", "scnt_"))]
    regs = hit.select(
        "conv_id",
        c("tail_tool").list.len().cast(pl.Int64).alias("_r_ng"),
        c("tool_ts").cast(dtypes["ts"]).alias("_r_tool_ts"),
        *[c(k).cast(pl.Int64).alias(f"_r_{k}") for k in counters],
        *[c(k).alias(f"_r_{k}") for k in hit.columns if k.startswith(
            ("tool_pos", "slast_", "seed_", "pfinal_", "prev_"))],
    )
    return (
        pl.concat([*parts, df.lazy().with_columns(pl.lit(0, pl.Int8).alias("_g"))],
                  how="diagonal")
        .sort("conv_id", maintain_order=True)
        .join(regs.lazy(), on="conv_id", how="left", maintain_order="left")
        .with_columns(*[c(f"_r_{k}").fill_null(0) for k in ["ng", *counters]],
                      (c("_g") == 2).alias("_ph"))
    )


def _window_plan(pl, lf, metrics, session_gap_s, assign_turn_idx, phases, ghosts=False):
    """Every window family over one lazy frame sorted by (conv_id, ts, tie).

    Each family is a whole-frame scan that restarts at segment starts
    (a new conversation): an Int64 cumulative sum minus its value at a
    start row, a shift masked at the start, or a gather at the last
    qualifying row before the row. The start rows are row indices: ``_cs``
    the segment's first row, ``_rs`` its first batch row, ``_ss`` the
    session's first row and ``_es`` the session's first batch row.

    ``ghosts`` frames come from ``_with_ghosts``: the carried tail rows
    lead their segment, so the rolling windows and the EWMA recursion run
    through them, while the expanding families start at ``_rs`` and add
    the carried ``_r_*`` registers. Without ghosts every register is the
    literal state of a conversation not seen before."""
    c = pl.col
    i64, f64 = pl.Int64, pl.Float64
    i = c("_i")
    new = c("conv_id") != c("conv_id").shift(1)
    if ghosts:
        new = new | (c("_ph") != c("_ph").shift(1))

    def r(name, fresh=0):
        return c(f"_r_{name}") if ghosts else pl.lit(fresh)

    def opened(name, other=None):
        """the carried register ``name`` in the session the carry left open"""
        return pl.when(c("_open")).then(r(name, other)).otherwise(other)

    def lag(e):
        return pl.when(c("_new")).then(None).otherwise(e.shift(1))

    def latest(flag):
        """index of the last row up to this one where ``flag`` holds"""
        return pl.when(flag).then(i).forward_fill()

    def prior(flag):
        """index of the last row before this one where ``flag`` holds"""
        return pl.when(flag).then(i).shift(1).forward_fill()

    def excl(e):
        """exclusive whole-frame cumulative sum"""
        return e.cum_sum() - e

    def since(name, start):
        """sum over [start, row) from the exclusive cum-sum column ``name``"""
        return c(name) - c(name).gather(c(start))

    def window(name, w):
        """sum over the ``w`` rows before the row in its segment"""
        back = pl.when(c("_q") >= w).then(c(name).shift(w)).otherwise(c(name).gather(c("_cs")))
        return c(name) - back

    def x(m):
        return c(f"_x_{m}")

    def cents(m):
        return (x(m) * QUANT_SCALE).round(0)

    def c0(m):
        """Int64 cents, 0 at NULL"""
        return cents(m).cast(i64).fill_null(0)

    def nn(m):
        return x(m).is_not_null().cast(i64)

    gap = (c("ts") - c("ts").shift(1)).dt.total_microseconds() / 1e6
    lf = lf.with_columns(
        pl.int_range(pl.len(), dtype=i64).alias("_i"), new.fill_null(True).alias("_new"),
        # a NaN metric value counts as NULL
        *[c(m).cast(f64).fill_nan(None).alias(f"_x_{m}") for m in metrics],
    ).with_columns(
        latest(c("_new")).alias("_cs"),
        c("_new").cum_sum().alias("_seg"),
        pl.when(c("_new")).then(None).otherwise(gap).alias("gap_s"),
    )
    brk = (c("gap_s") > session_gap_s).fill_null(False)
    lf = lf.with_columns(
        (c("_cs") + r("ng")).alias("_rs"),
        (i - c("_cs")).alias("_q"),
        latest(c("_new") | brk).alias("_ss"),
        brk.cast(i64).cum_sum().alias("_brk"),
        prior(c("is_tool") == 1).alias("_tool"),
        *[excl(c(f"is_{ro}").cast(i64)).alias(f"_e_{ro}") for ro in _ROLES],
        *[excl(c0(m)).alias(f"_ec_{m}") for m in metrics],
        *[excl(nn(m)).alias(f"_en_{m}") for m in metrics],
        *[latest(x(m).is_not_null()).alias(f"_nn_{m}") for m in metrics],
        *[(pl.when(c("_g") == 0).then(x(m)).otherwise(c(f"_ge_{m}")) if ghosts else x(m))
          .ewm_mean(span=EWMA_SPAN, adjust=False, ignore_nulls=True)
          .forward_fill().over("_seg").alias(f"_ew_{m}") for m in metrics],
    )
    pos = i - c("_rs") + r("turns")
    lf = lf.with_columns(
        pos.alias("_pos"),
        *([pos.cast(pl.Int32).alias("turn_idx")] if assign_turn_idx else []),
        (c("_brk") - c("_brk").gather(c("_cs")) + r("session_id")).cast(pl.Int32)
        .alias("session_id"),
        pl.max_horizontal("_ss", "_rs").alias("_es"),
        (c("_ss") == c("_cs")).alias("_open"),
    )

    # the session-seeded family (W3) per metric: in-session sums before
    # the row (_ps, _pn) and through it (_tot, _n), the last non-null
    # cents through it (_last); a session's seed and previous final are
    # the previous session's registers at its last row, _ss - 1
    has_tool = c("_tool") >= c("_rs")
    lf = lf.with_columns(
        (i - c("_es") + opened("session_turns", 0)).cast(pl.Int32).alias("session_turn_idx"),
        *[(since(f"_e_{ro}", "_rs") + r(f"n_{ro}")).alias(f"n_prior_{ro}") for ro in _ROLES],
        pl.when(has_tool).then(i - c("_tool")).otherwise(c("_pos") - r("tool_pos", None))
        .cast(f64).alias("turns_since_tool"),
        ((c("ts") - pl.when(has_tool).then(c("ts").gather(c("_tool")))
          .otherwise(r("tool_ts", None))).dt.total_microseconds() / 1e6)
        .alias("secs_since_tool"),
        pl.when(c("_q") > 0).then(window("_e_tool", COVER_WINDOW)
                                  / pl.min_horizontal(c("_q"), COVER_WINDOW))
        .alias("roll10_tool_rate"),
        *[(since(f"_ec_{m}", "_es") + opened(f"ssum_{m}", 0)).alias(f"_ps_{m}")
          for m in metrics],
        *[(since(f"_en_{m}", "_es") + opened(f"scnt_{m}", 0)).alias(f"_pn_{m}")
          for m in metrics],
        *[pl.when(c(f"_nn_{m}") >= c("_es")).then(cents(m).gather(c(f"_nn_{m}")))
          .otherwise(opened(f"slast_{m}")).alias(f"_last_{m}") for m in metrics],
    )
    prev_sess = c("_ss") - 1
    lf = lf.with_columns(
        *[(c(f"_ps_{m}") + c0(m)).alias(f"_tot_{m}") for m in metrics],
        *[(c(f"_pn_{m}") + nn(m)).alias(f"_n_{m}") for m in metrics],
        *[pl.when(c("_open")).then(r(f"seed_{m}", None))
          .otherwise(c(f"_last_{m}").gather(prev_sess)).alias(f"_seed_{m}")
          for m in metrics],
    )
    first_sess = c("session_id") == 0

    def sess_mean(m, total, n):
        """the first session's plain mean, a later one's seeded mean"""
        total, n = c(f"_{total}_{m}"), c(f"_{n}_{m}")
        return (
            pl.when(first_sess).then(pl.when(n > 0).then(total / (QUANT_SCALE * n)))
            .otherwise((c(f"_seed_{m}") + total) / (QUANT_SCALE * (1 + n)))
        )

    lf = lf.with_columns(sess_mean(m, "tot", "n").alias(f"_final_{m}") for m in metrics)
    lf = lf.with_columns(
        pl.when(c("_open")).then(r(f"pfinal_{m}", None))
        .otherwise(c(f"_final_{m}").gather(prev_sess)).alias(f"_pfinal_{m}")
        for m in metrics
    )

    metric_exprs = []
    for m in metrics:
        nw = window(f"_en_{m}", FORM_WINDOW)
        n = since(f"_en_{m}", "_rs") + r(f"cnt_{m}")
        metric_exprs += [
            lag(x(m)).alias(f"last_{m}"),
            pl.when(nw > 0).then(window(f"_ec_{m}", FORM_WINDOW) / (QUANT_SCALE * nw))
            .alias(f"form_{m}"),
            pl.when(n > 0).then((since(f"_ec_{m}", "_rs") + r(f"sum_{m}")) / (QUANT_SCALE * n))
            .alias(f"avg_{m}"),
            lag(c(f"_ew_{m}")).alias(f"ewma_{m}"),
        ]
    metric_exprs += [
        pl.when(c(f"_pn_{m}") > 0).then(sess_mean(m, "ps", "pn"))
        .otherwise(pl.when(~first_sess).then(c(f"_pfinal_{m}")))
        .alias(f"session_avg_{m}")
        for m in metrics
    ]
    lf = lf.with_columns(metric_exprs)
    if not phases:
        return lf

    # per-phase (role-split) families: inclusive aggregates over each
    # (conv, role) run, which is not contiguous, then the value at the
    # row's last strictly-prior phase row whose aggregate is not null
    pr = ["conv_id", "role"]
    real = c("_g") == 0

    def by_role(name):
        """the carried register of the row's own phase"""
        e = pl.lit(0)
        for p in phases:
            e = pl.when(c("role") == p).then(r(f"{name}_{p}")).otherwise(e)
        return e

    def masked(e):
        return pl.when(real).then(e).otherwise(0) if ghosts else e

    incl = []
    for m in metrics:
        cnt = masked(nn(m)).cum_sum() + by_role(f"cnt_{m}")
        sw = c0(m).rolling_sum(FORM_WINDOW, min_samples=1)
        nw = nn(m).rolling_sum(FORM_WINDOW, min_samples=1)
        ew_in = pl.when(real).then(x(m)).otherwise(c(f"_ge_{m}")) if ghosts else x(m)
        incl += [
            pl.when(cnt > 0).then((masked(c0(m)).cum_sum() + by_role(f"sum_{m}"))
                                  / (QUANT_SCALE * cnt)).over(pr).alias(f"_iavg_{m}"),
            pl.when(nw > 0).then(sw / (QUANT_SCALE * nw)).over(pr).alias(f"_iform_{m}"),
            ew_in.ewm_mean(span=EWMA_SPAN, adjust=False, ignore_nulls=True)
            .forward_fill().over(pr).alias(f"_iewma_{m}"),
        ]
    lf = lf.with_columns(incl)
    prop = []
    for p in phases:
        for m in metrics:
            for fam, col in (("last", x(m)), ("form", c(f"_iform_{m}")),
                             ("avg", c(f"_iavg_{m}")), ("ewma", c(f"_iewma_{m}"))):
                at = prior((c("role") == p) & col.is_not_null())
                prop.append(
                    pl.when(at >= c("_rs")).then(col.gather(at))
                    .otherwise(r(f"prev_{fam}_{m}_{p}", None)).alias(f"{fam}_{m}_{p}")
                )
    return lf.with_columns(prop)


def _carry_out(pl, out, metrics, phases):
    """Per-conversation carry after the collected frame: counters and the
    session registers at the last batch row, tails over the ghost-plus-
    batch rows, the other registers folded forward."""
    c = pl.col
    real = c("_g") == 0
    conv_rows = c("_g") != 2
    tool = real & (c("is_tool") == 1)

    def last_real(col):
        return c(col).filter(real).last()

    def reg(name):
        return c(f"_r_{name}").first()

    def x(m):
        return c(f"_x_{m}")

    def cents(m, rows):
        return (x(m) * QUANT_SCALE).round(0).cast(pl.Int64).filter(rows).sum()

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
            x(m).filter(conv_rows).tail(_TAIL).alias(f"tail_{m}"),
            (reg(f"sum_{m}") + cents(m, real)).alias(f"sum_{m}"),
            (reg(f"cnt_{m}") + x(m).filter(real).count()).alias(f"cnt_{m}"),
            c(f"_ew_{m}").filter(conv_rows).last().alias(f"ewma_{m}"),
            *[last_real(f"_{k}_{m}").alias(f"{s}_{m}") for k, s in (
                ("tot", "ssum"), ("n", "scnt"), ("last", "slast"), ("seed", "seed"),
                ("pfinal", "pfinal"))],
        ]
        for p in phases:
            in_p = c("role") == p
            exprs += [
                x(m).filter(in_p).tail(FORM_WINDOW).alias(f"tail_{m}_{p}"),
                (reg(f"sum_{m}_{p}") + cents(m, real & in_p)).alias(f"sum_{m}_{p}"),
                (reg(f"cnt_{m}_{p}") + x(m).filter(real & in_p).count()).alias(f"cnt_{m}_{p}"),
                c(f"_iewma_{m}").filter(in_p).last().alias(f"ewma_{m}_{p}"),
            ] + [
                # the last non-null value over the batch's phase rows, else
                # the carried one
                col.filter(real & in_p).drop_nulls().last()
                .fill_null(reg(f"prev_{fam}_{m}_{p}")).alias(f"prev_{fam}_{m}_{p}")
                for fam, col in (("last", x(m)), ("form", c(f"_iform_{m}")),
                                 ("avg", c(f"_iavg_{m}")), ("ewma", c(f"_iewma_{m}")))
            ]
    return out.group_by("conv_id", maintain_order=True).agg(exprs)
