"""Transcript table sources.

Two deterministic producers of the engine's primary input table
(conv_id string, turn_idx int32, role string, text string, tool string,
ts timestamp[us]; BASELINE.json ``input_hint``):

1. ``transcripts_from_events(sf_dir)`` — derives a transcript table from the
   driver-generated ``events`` table (`/root/testdata/sf*/events.parquet`).
   The mapping is purely columnar and reproducible in ANSI SQL, so every
   downstream query has a DuckDB oracle over the same parquet:

       conv_id  = CAST(user_id AS VARCHAR)
       role     = click/view -> 'user', purchase/signup -> 'assistant',
                  error -> 'tool'
       tool     = event_type when role = 'tool' else NULL
       text     = props
       ts       = ts
       value    = value                    (carried as the numeric metric)
       turn_idx = ROW_NUMBER() OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id) - 1

   ``turn_idx`` needs a per-conversation sort, which the window engine
   performs anyway on its bucket spine — so this source only does the
   stateless columnar mapping via ``map_batches`` and leaves ``event_id``
   in place as the deterministic tie-break (`_seq` column); the bucketed
   stage assigns ``turn_idx``.

2. ``generate_transcripts(...)`` — fully synthetic, seeded generator
   implementing the FIXTURES.md F1 contract (zipf conversation sizes for
   skew, engineered edge cases: single-turn conv, huge mid-stream gap,
   multi-byte/empty text, out-of-order physical layout).

Reference analogue: the pump's source S1 + id-decode M1/M2
(`/root/reference/src/pumps/player_game.py:23-62,695`) — entity/time keys
normalized at the read before any aggregation.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from nfl_feature_store_ray.schemas import SESSION_GAP_S
from nfl_feature_store_ray.sources.readers import read_table

# event_type -> role mapping (must match the oracle SQL CASE expression).
_USER_TYPES = ("click", "view")
_ASSISTANT_TYPES = ("purchase", "signup")

TRANSCRIPTS_FROM_EVENTS_SQL = """
    SELECT CAST(user_id AS VARCHAR) AS conv_id,
           CAST(ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id) - 1 AS INTEGER) AS turn_idx,
           CASE WHEN event_type IN ('click', 'view') THEN 'user'
                WHEN event_type IN ('purchase', 'signup') THEN 'assistant'
                ELSE 'tool' END AS role,
           props AS text,
           CASE WHEN event_type NOT IN ('click', 'view', 'purchase', 'signup')
                THEN event_type END AS tool,
           ts,
           value,
           event_id AS _seq
    FROM events
"""


def _events_to_transcript_batch(batch: pa.Table) -> pa.Table:
    """Columnar events -> transcript mapping (no ordering work)."""
    conv_id = pc.cast(batch["user_id"], pa.string())
    et = batch["event_type"]
    is_user = pc.is_in(et, value_set=pa.array(_USER_TYPES))
    is_assistant = pc.is_in(et, value_set=pa.array(_ASSISTANT_TYPES))
    role = pc.if_else(
        is_user,
        pa.scalar("user"),
        pc.if_else(is_assistant, pa.scalar("assistant"), pa.scalar("tool")),
    )
    # the null side is an ARRAY, not a null scalar: if_else(mask, null
    # scalar, strings) builds invalid offsets when the strings are a
    # slice with a non-zero offset (as Ray hands out for multi-file reads)
    tool = pc.if_else(
        pc.or_(is_user, is_assistant), pa.nulls(len(et), pa.string()), pc.cast(et, pa.string())
    )
    return pa.table(
        {
            "conv_id": conv_id,
            "role": role,
            "text": batch["props"],
            "tool": tool,
            "ts": batch["ts"],
            "value": batch["value"],
            "_seq": batch["event_id"],
        }
    )


def transcripts_from_events(sf_dir: str) -> ray.data.Dataset:
    """Transcript dataset derived from ``{sf_dir}/events.parquet`` (a
    file or a directory of files).

    ``turn_idx`` is NOT yet assigned (the window engine's bucketed sort
    assigns it from (ts, _seq)); all other columns are final. The read
    (``read_table``) makes one block per file, so the columnar mapping
    fuses with it, and with a following exchange's map side, into one
    task per file; on a cluster with more CPUs than files each file is
    split to occupy them.
    """
    events = read_table(
        sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type", "value", "props"]
    )
    return events.map_batches(_events_to_transcript_batch, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Synthetic generator (FIXTURES.md F1)
# ---------------------------------------------------------------------------

_WORDS = [
    "the", "fast", "key", "order", "sort", "table", "scan", "merge", "part",
    "window", "small", "hash", "join", "stream", "data", "group", "filter",
    "row", "batch", "value", "naïve", "été", "会话",  # multi-byte
]
_TOOLS = ["search", "python", "browser", "calculator"]


def generate_transcripts(
    n_convs: int = 200,
    mean_turns: int = 50,
    seed: int = 7,
) -> pa.Table:
    """Deterministic synthetic transcript table (Arrow).

    Engineered per FIXTURES.md F1: zipf-ish conversation sizes (a few hot
    conversations), inter-turn gaps drawn from a mixture so some exceed the
    sessionization threshold, single-turn conversations, empty and
    multi-byte text, and a SHUFFLED physical row order (the engine must
    sort, not assume order).
    """
    rng = np.random.default_rng(seed)
    # zipf sizes clipped: median ~ mean_turns/2, hot convs ~ 30x median
    sizes = np.minimum((rng.zipf(1.5, n_convs) * max(1, mean_turns // 5)), mean_turns * 30)
    sizes = np.maximum(sizes, 1).astype(np.int64)
    sizes[0] = 1  # guaranteed single-turn conversation
    if n_convs > 1:
        sizes[1] = mean_turns * 30  # guaranteed hot conversation

    conv_ids, turn_idx, roles, texts, tools, ts_us, values = [], [], [], [], [], [], []
    for c in range(n_convs):
        n = int(sizes[c])
        cid = f"conv_{c:05d}"
        # gap mixture: mostly short, some > session threshold
        gaps = np.where(
            rng.random(n) < 0.12,
            rng.integers(SESSION_GAP_S + 1, SESSION_GAP_S * 3, n),
            rng.integers(1, 600, n),
        ).astype(np.int64)
        gaps[0] = 0
        t0 = 1_700_000_000_000_000 + int(rng.integers(0, 10**9))
        t = t0 + np.cumsum(gaps * 1_000_000)
        role_draw = rng.random(n)
        for i in range(n):
            conv_ids.append(cid)
            turn_idx.append(i)
            r = "user" if role_draw[i] < 0.45 else ("assistant" if role_draw[i] < 0.85 else "tool")
            roles.append(r)
            tools.append(_TOOLS[int(rng.integers(len(_TOOLS)))] if r == "tool" else None)
            nw = int(rng.integers(0, 12))  # 0 => empty string
            texts.append(" ".join(_WORDS[int(j)] for j in rng.integers(0, len(_WORDS), nw)))
            ts_us.append(int(t[i]))
            values.append(float(np.round(rng.random() * 100, 2)))

    tbl = pa.table(
        {
            "conv_id": pa.array(conv_ids, pa.string()),
            "turn_idx": pa.array(turn_idx, pa.int32()),
            "role": pa.array(roles, pa.string()),
            "text": pa.array(texts, pa.string()),
            "tool": pa.array(tools, pa.string()),
            "ts": pa.array(ts_us, pa.timestamp("us")),
            "value": pa.array(values, pa.float64()),
        }
    )
    # shuffled physical layout — engine must sort, not assume order
    perm = rng.permutation(tbl.num_rows)
    return tbl.take(pa.array(perm))
