"""Per-turn derived columns — stateless, vectorized, zero-copy Arrow.

Reference analogue: the derived per-game scalar metrics family (SURVEY §2.2
M9, `/root/reference/src/pumps/player_game.py:153-157,417-447,538-548`) and
the role/phase one-hot pivot (`_offense`/`_defense` affix algebra). As in the
reference (SURVEY §0 probe 8), derived scalars are computed BEFORE windowing
(avg-of-ratio, not ratio-of-avg).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data


def _derive_batch(batch: pa.Table) -> pa.Table:
    text = batch["text"]
    role = batch["role"]
    out = batch
    out = out.append_column("text_len", pc.cast(pc.utf8_length(pc.coalesce(text, "")), pa.int64()))
    # whitespace token count: count_substring of ' ' + 1 on non-empty strings
    nonempty = pc.greater(pc.utf8_length(pc.coalesce(text, "")), 0)
    spaces = pc.count_substring(pc.coalesce(text, ""), " ")
    n_tokens = pc.if_else(nonempty, pc.add(spaces, 1), pa.scalar(0, pa.int32()))
    out = out.append_column("n_tokens", pc.cast(n_tokens, pa.int64()))
    for r in ("user", "assistant", "tool"):
        out = out.append_column(f"is_{r}", pc.cast(pc.equal(role, r), pa.int8()))
    out = out.append_column("has_tool", pc.cast(pc.is_valid(batch["tool"]), pa.int8()))
    return out


def derive_turn_columns(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Append text_len / n_tokens / role one-hots / has_tool columns."""
    return ds.map_batches(_derive_batch, batch_format="pyarrow", zero_copy_batch=True)


# --- wide metric fan-out ----------------------------------------------------
# The reference's defining output is a WIDE store: 59 base metrics x 3
# window families (182-col player store, BASELINE.md). These 17 extra
# per-turn metrics (on top of value/text_len/n_tokens) give the rebuild a
# 20-metric fan-out; every one is an integer or 2-decimal value so the
# cents-exact window kernels stay order-independent, and every one has an
# exact SQL equivalent (the ``d`` CTE of pipelines.wide.SQL_WIDE_SLICE).

WIDE_METRICS = (
    "value", "text_len", "n_tokens", "n_spaces",
    "n_a", "n_e", "n_i", "n_o", "n_u", "n_s", "n_t",
    "n_vowels", "avg_tok_len", "value_half", "val_floor", "val_frac",
    "val_cents_mod10", "tok_sq", "len_mod7", "is_long",
)


def _derive_wide_batch(batch: pa.Table) -> pa.Table:
    import numpy as np

    from nfl_feature_store_ray.functions.rounding import round_half_away

    text = pc.coalesce(batch["text"], "")
    out = batch

    def count(ch: str):
        return pc.cast(pc.count_substring(text, ch), pa.int64())

    counts = {c: count(c) for c in ("a", "e", "i", "o", "u", "s", "t")}
    out = out.append_column("n_spaces", count(" "))
    for c, arr in counts.items():
        out = out.append_column(f"n_{c}", arr)
    n_vowels = counts["a"]
    for c in ("e", "i", "o", "u"):
        n_vowels = pc.add(n_vowels, counts[c])
    out = out.append_column("n_vowels", n_vowels)

    tl = out["text_len"].to_numpy(zero_copy_only=False).astype("float64")
    nt = out["n_tokens"].to_numpy(zero_copy_only=False).astype("float64")
    v = out["value"].to_numpy(zero_copy_only=False).astype("float64")
    out = out.append_column(
        "avg_tok_len", pa.array(round_half_away(tl / np.maximum(nt, 1.0), 2))
    )
    # a NULL or NaN value yields NULL in every value-derived column
    # (to_numpy reads NULL as NaN; zero-fill so the int cast sees no NaN)
    bad = np.isnan(v)
    v = np.where(bad, 0.0, v)
    vf = np.floor(v)
    for name, col in (
        ("value_half", round_half_away(v / 2.0, 2)),
        ("val_floor", vf),
        ("val_frac", round_half_away(v - vf, 2)),
        ("val_cents_mod10", np.rint(v * 100.0).astype("int64") % 10),
    ):
        out = out.append_column(name, pa.array(col, mask=bad))
    out = out.append_column("tok_sq", pc.multiply(out["n_tokens"], out["n_tokens"]))
    out = out.append_column(
        "len_mod7", pa.array((tl.astype("int64") % 7).astype("int64"))
    )
    out = out.append_column("is_long", pa.array((tl > 40).astype("int64")))
    return out
