"""Seeded, vectorized input generator for the benchmark.

Everything is a pure function of the seed and the size arguments: the
same seed gives byte-identical tables. No per-row Python loops — strings
come from a seeded pool indexed by numpy, so a million turns take well
under a second.

``events`` has the schema ``sources.transcripts_from_events`` reads:
``event_id int64, ts timestamp[us], user_id int64, event_type string,
value double, props string``. One ``user_id`` is one conversation.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

SESSION_GAP_S = 86_400  # must match schemas.SESSION_GAP_S (inactivity split)
T0_US = 1_700_000_000_000_000
SPAN_US = 30 * 86_400 * 1_000_000  # conversation start times spread over 30 days
SHAPE_SEED = 0  # seeds the conversation sizes and text pool, the same for every --seed
MAX_TURNS = 1_500  # clip of the zipf sizes: bounds the hottest conversation
LONG_GAP_SHARE = 0.04  # share of inter-turn gaps above SESSION_GAP_S
NULL_VALUE_SHARE = 0.02  # share of NULL `value`
EXACT_LABEL_SHARE = 0.05  # labels stamped exactly at a turn: strictness probe
EARLY_LABEL_SHARE = 0.10  # labels before the conversation's first turn

_EVENT_TYPES = np.array(["click", "view", "purchase", "signup", "error"])
_EVENT_P = [0.25, 0.25, 0.15, 0.15, 0.20]
_WORDS = np.array([
    "the", "fast", "key", "order", "sort", "table", "scan", "merge", "part",
    "window", "small", "hash", "join", "stream", "data", "group", "filter",
    "row", "batch", "value", "naïve", "été", "会话",
])


def _text_pool(rng: np.random.Generator, n: int = 4096) -> pa.Array:
    """``n`` strings of 0-11 words (index 0 is the empty string)."""
    nw = rng.integers(0, 12, n)
    nw[0] = 0
    words = _WORDS[rng.integers(0, len(_WORDS), int(nw.sum()))]
    ends = np.cumsum(nw)
    return pa.array(
        [" ".join(words[e - k : e]) for k, e in zip(nw.tolist(), ends.tolist())],
        pa.string(),
    )


def _sizes(rng: np.random.Generator, n_turns: int) -> np.ndarray:
    """Clipped-zipf conversation sizes summing to exactly ``n_turns``."""
    out, total = [], 0
    while total < n_turns:
        s = np.clip(rng.zipf(1.7, 4096) * 4, 1, MAX_TURNS)
        out.append(s)
        total += int(s.sum())
    sizes = np.concatenate(out)
    cs = np.cumsum(sizes)
    k = int(np.searchsorted(cs, n_turns))
    sizes = sizes[: k + 1].copy()
    sizes[-1] -= int(cs[k]) - n_turns
    return sizes[sizes > 0].astype(np.int64)


def events(seed: int, n_turns: int) -> pa.Table:
    """``n_turns`` events in a physically shuffled row order.

    The table is a snapshot: conversations start uniformly over SPAN_US
    and the ``n_turns`` earliest turns are kept, so conversations still
    running at the snapshot are cut short and the newest turns spread over
    many conversations, as a live store's would.

    ``event_id`` increases with ``ts`` inside a conversation (it is the
    engine's tie-break) and every inter-turn gap is at least one second,
    so no two turns of one conversation share a timestamp.
    """
    rng = np.random.default_rng(seed)
    # The size multiset and the text pool are the workload's shape and do
    # not follow the seed: a heavy zipf tail would otherwise change the
    # work per seed.
    sizes = _sizes(np.random.default_rng(SHAPE_SEED), 2 * n_turns)
    n_all = int(sizes.sum())
    n_conv = len(sizes)
    conv = np.repeat(np.arange(n_conv), sizes)
    first = np.concatenate([[0], np.cumsum(sizes)[:-1]])

    long_gap = rng.random(n_all) < LONG_GAP_SHARE
    gaps = np.where(
        long_gap,
        rng.integers((SESSION_GAP_S + 1) * 10**6, 3 * SESSION_GAP_S * 10**6, n_all),
        rng.integers(10**6, 600 * 10**6, n_all),
    )
    gaps[first] = 0
    cs = np.cumsum(gaps)
    start = T0_US + rng.integers(0, SPAN_US, n_conv)
    ts = start[conv] + cs - cs[first][conv]
    keep = np.sort(np.argpartition(ts, n_turns - 1)[:n_turns])
    conv, ts = conv[keep], ts[keep]

    user_id = rng.permutation(n_conv).astype(np.int64) * 7 + 1000
    etype = rng.choice(len(_EVENT_TYPES), n_turns, p=_EVENT_P)
    value = np.rint(rng.random(n_turns) * 20_000) / 100.0
    null_value = rng.random(n_turns) < NULL_VALUE_SHARE
    props = _text_pool(np.random.default_rng(SHAPE_SEED)).take(pa.array(rng.integers(0, 4096, n_turns)))

    tbl = pa.table({
        "event_id": pa.array(keep.astype(np.int64)),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array(user_id[conv]),
        "event_type": pa.array(_EVENT_TYPES[etype]),
        "value": pa.array(value, mask=null_value),
        "props": props,
    })
    return tbl.take(pa.array(rng.permutation(n_turns)))


def time_cutoffs(ev: pa.Table, shares: list[float]) -> np.ndarray:
    """Timestamps (µs) splitting ``ev`` into time prefixes of the given
    row shares; a turn belongs to prefix ``i`` when ``ts <= cut[i]``."""
    ts = np.sort(ev.column("ts").cast(pa.int64()).to_numpy())
    idx = np.clip((np.asarray(shares) * len(ts)).astype(np.int64) - 1, 0, len(ts) - 1)
    return ts[idx]


def slice_of(ev: pa.Table, cuts: np.ndarray) -> np.ndarray:
    """Index of the first prefix each row of ``ev`` belongs to."""
    return np.searchsorted(cuts, ev.column("ts").cast(pa.int64()).to_numpy(), side="left")


def labels(seed: int, ev: pa.Table, n_labels: int) -> pa.Table:
    """Label table for the as-of join: ``label_id, conv_id, ts, label``.

    Most labels fall inside a conversation's lifetime; EARLY_LABEL_SHARE
    fall before its first turn (they must stay unmatched) and
    EXACT_LABEL_SHARE sit exactly on a turn (a strict join must not match
    that turn).
    """
    rng = np.random.default_rng([seed, 1])
    uid = ev.column("user_id").to_numpy()
    ts = ev.column("ts").cast(pa.int64()).to_numpy()
    order = np.lexsort((ts, uid))
    uid, ts = uid[order], ts[order]
    starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
    ends = np.r_[starts[1:], len(uid)] - 1

    pick = rng.integers(0, len(starts), n_labels)
    lo, hi = ts[starts[pick]], ts[ends[pick]]
    lts = lo + (rng.random(n_labels) * (hi - lo + 3_600 * 10**6)).astype(np.int64)
    kind = rng.random(n_labels)
    early = kind < EARLY_LABEL_SHARE
    lts[early] = lo[early] - rng.integers(10**6, 3_600 * 10**6, int(early.sum()))
    exact = (kind >= EARLY_LABEL_SHARE) & (kind < EARLY_LABEL_SHARE + EXACT_LABEL_SHARE)
    row = starts[pick] + (rng.random(n_labels) * (ends[pick] - starts[pick] + 1)).astype(np.int64)
    lts[exact] = ts[row[exact]]

    return pa.table({
        "label_id": pa.array(np.arange(n_labels, dtype=np.int64)),
        "conv_id": pa.array(uid[starts[pick]]).cast(pa.string()),
        "ts": pa.array(lts, pa.timestamp("us")),
        "label": pa.array(np.rint(rng.random(n_labels) * 100) / 100.0),
    })
