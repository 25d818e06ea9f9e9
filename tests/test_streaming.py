"""Carried window kernel == unsplit window kernel, for every batch split.

The carry (raw tails + registers + watermark) must produce the same
features whether a conversation arrives in one batch, in tiny 3-row
slices, or row by row: bit-identical on every family except the rolling
means (form_*), which start their sliding sums from the carried tail."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from nfl_feature_store_ray.sources.transcripts import generate_transcripts
from nfl_feature_store_ray.state.window_kernel_pl import empty_carry, kernel_arrow

METRICS = ("value", "text_len")


def _sorted_frame() -> pd.DataFrame:
    df = (
        generate_transcripts(n_convs=25, mean_turns=15, seed=19)
        .to_pandas()
        .sort_values(["conv_id", "ts", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )
    df["text_len"] = df["text"].str.len().astype("float64")
    for r in ("user", "assistant", "tool"):
        df[f"is_{r}"] = (df["role"] == r).astype("int8")
    return df


def _arrow(df: pd.DataFrame) -> pa.Table:
    return pa.Table.from_pandas(df, preserve_index=False)


def _kernel(df: pd.DataFrame, **kw) -> pd.DataFrame:
    return kernel_arrow(_arrow(df), metrics=METRICS, **kw).to_pandas()


def _carried(df: pd.DataFrame, batch_size: int, **kw):
    """(features, carry) of the kernel fed ``df`` in ordered batches."""
    carry = empty_carry(METRICS, kw.get("phases", ()))
    outs = []
    for i in range(0, len(df), batch_size):
        out, carry = kernel_arrow(_arrow(df.iloc[i:i + batch_size]), metrics=METRICS,
                                  carry=carry, **kw)
        outs.append(out.to_pandas())
    return pd.concat(outs, ignore_index=True), carry


def _assert_split_equal(got: pd.DataFrame, ref: pd.DataFrame, where: str):
    """Exact on every column but the rolling means (rtol 1e-9)."""
    assert list(got.columns) == list(ref.columns)
    assert len(got) == len(ref)
    for c in ref.columns:
        if ref[c].dtype.kind not in "fciu":
            assert (got[c].astype(str) == ref[c].astype(str)).all(), f"{c} {where}"
            continue
        a = got[c].to_numpy(dtype="float64")
        b = ref[c].to_numpy(dtype="float64")
        if c.startswith("form_"):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12, equal_nan=True,
                                       err_msg=f"{c} {where}")
        else:
            assert ((a == b) | (np.isnan(a) & np.isnan(b))).all(), f"{c} not exact {where}"


@pytest.mark.parametrize("batch_size", [1, 3, 17, 10_000])
def test_streaming_matches_batch(batch_size):
    df = _sorted_frame()
    got, _ = _carried(df, batch_size)
    _assert_split_equal(got, _kernel(df), f"at batch_size={batch_size}")


def test_watermark_violation_rejected():
    df = _sorted_frame()
    _, carry = _carried(df, 10_000)
    with pytest.raises(ValueError, match="watermark"):
        # replayed past data: ts before watermark
        kernel_arrow(_arrow(df.head(5)), metrics=METRICS, carry=carry)


def test_state_is_bounded():
    """Hot-conversation memory: the carry per conversation is
    O(tail + registers), independent of conversation length."""
    df = _sorted_frame()
    _, carry = _carried(df, 64, phases=("user",))
    assert carry.num_rows == df["conv_id"].nunique()
    for c in carry.column_names:
        if c.startswith("tail_"):
            lens = carry[c].combine_chunks().value_lengths().to_numpy()
            assert lens.max() <= (3 if c.endswith("_user") else 10), c


@pytest.mark.parametrize("batch_size", [1, 7, 10_000])
def test_streaming_phase_windows_match_batch(batch_size):
    """Per-phase families carry across batch splits: exact on last/avg/
    ewma, rtol 1e-9 on the rolling form."""
    phases = ("user", "assistant")
    df = _sorted_frame()
    got, _ = _carried(df, batch_size, phases=phases)
    _assert_split_equal(got, _kernel(df, phases=phases), f"at batch_size={batch_size}")


def test_empty_batch_schema_matches_nonempty_order():
    """A zero-row batch must emit the exact column ORDER of non-empty
    batches and leave the carry as it was."""
    phases = ("user", "assistant")
    df = _sorted_frame()
    nonempty, carry = kernel_arrow(_arrow(df), metrics=METRICS, phases=phases,
                                   carry=empty_carry(METRICS, phases))
    empty, after = kernel_arrow(_arrow(df.iloc[0:0]), metrics=METRICS, phases=phases,
                                carry=carry)
    assert empty.column_names == nonempty.column_names
    assert empty.num_rows == 0
    assert after.equals(carry)


def test_carry_rejects_changed_metrics_or_phases():
    """A carry built for one metric/phase set cannot continue another."""
    df = _sorted_frame()
    _, carry = _carried(df.head(50), 50)
    for kw in ({"metrics": ("value",)}, {"metrics": METRICS, "phases": ("user",)}):
        with pytest.raises(ValueError, match="carry columns"):
            kernel_arrow(_arrow(df.iloc[50:60]), carry=carry, **kw)


def test_duplicate_turn_idx_rejected_with_carry():
    df = _sorted_frame()
    dup = pd.concat([df.head(5), df.head(5).tail(1)], ignore_index=True)
    with pytest.raises(ValueError, match="duplicate"):
        kernel_arrow(_arrow(dup), metrics=METRICS, carry=empty_carry(METRICS))
