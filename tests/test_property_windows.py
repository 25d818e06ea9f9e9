"""Property-based parity: random transcript shapes (incl. ts ties, session
gaps, single-turn convs, NULL values) — the window kernel must match the
naive oracle, batch by batch with a carry as well as in one call, and a
carry handed across any cut point must reproduce the unsplit kernel."""

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from nfl_feature_store_ray.state.window_kernel_pl import empty_carry, kernel_arrow
from tests.oracle import assert_feature_parity, oracle_windows

ROLES = ["user", "assistant", "tool"]


@st.composite
def transcript_frames(draw, nulls: bool = False):
    n_convs = draw(st.integers(1, 5))
    rows = []
    base = pd.Timestamp("2024-01-01")
    for ci in range(n_convs):
        n = draw(st.integers(1, 25))
        # gaps in seconds; occasionally 0 (ts tie) or > session threshold
        gaps = draw(
            st.lists(
                st.sampled_from([0, 1, 30, 600, 90_000, 200_000]),
                min_size=n, max_size=n,
            )
        )
        t = base
        for i in range(n):
            t = t + pd.Timedelta(seconds=int(gaps[i]) if i > 0 else 0)
            value = float(draw(st.integers(0, 100)))
            if nulls and draw(st.integers(0, 5)) == 0:
                value = None
            rows.append(
                {
                    "conv_id": f"c{ci}",
                    "turn_idx": np.int32(i),
                    "role": draw(st.sampled_from(ROLES)),
                    "text": "x" * draw(st.integers(0, 5)),
                    "tool": None,
                    "ts": t,
                    "value": value,
                }
            )
    return pd.DataFrame(rows)


def _prep(df: pd.DataFrame) -> pd.DataFrame:
    df = df.sort_values(["conv_id", "ts", "turn_idx"], kind="mergesort").reset_index(drop=True)
    df["text_len"] = df["text"].str.len().astype("float64")
    df["value"] = df["value"].astype("float64")
    for r in ROLES:
        df[f"is_{r}"] = (df["role"] == r).astype("int8")
    return df


def _arrow(df: pd.DataFrame) -> pa.Table:
    return pa.Table.from_pandas(df, preserve_index=False)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(transcript_frames())
def test_kernels_match_oracle(raw):
    df = _prep(raw)
    orc = oracle_windows(raw.copy().assign(text_len=raw["text"].str.len()), metrics=("value",))

    whole = kernel_arrow(_arrow(df), metrics=("value",)).to_pandas()
    assert_feature_parity(whole, orc)

    carry, outs = empty_carry(("value",)), []
    for i in range(0, len(df), 7):
        out, carry = kernel_arrow(_arrow(df.iloc[i : i + 7]), metrics=("value",), carry=carry)
        outs.append(out.to_pandas())
    assert_feature_parity(pd.concat(outs, ignore_index=True), orc)


PHASES = ("user", "assistant")
METRICS = ("value", "text_len")


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """``==`` with NaN equal to NaN."""
    return bool(((a == b) | (np.isnan(a) & np.isnan(b))).all())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(transcript_frames(nulls=True), st.data())
def test_carry_across_cut_equals_whole(raw, data):
    """kernel(prefix) -> carry -> kernel(suffix) == kernel(whole), with
    NULL values, session gaps, ts ties and phases, cut anywhere: exact
    on the cents-exact families, counts, sessions, tool lags and EWMA;
    rtol 1e-9 on the rolling means and gap_s."""
    df = _prep(raw)
    # one random cut point per conversation (0 = all in the suffix)
    convs = sorted(df["conv_id"].unique())
    cuts = dict(zip(convs, data.draw(
        st.lists(st.integers(0, 25), min_size=len(convs), max_size=len(convs)), label="cuts")))
    in_head = (df.groupby("conv_id").cumcount() < df["conv_id"].map(cuts)).to_numpy()
    kw = {"metrics": METRICS, "phases": PHASES}
    whole = (
        kernel_arrow(_arrow(df), **kw).to_pandas()
        .sort_values(["conv_id", "turn_idx"], kind="mergesort").reset_index(drop=True)
    )
    head, carry = kernel_arrow(_arrow(df[in_head]), carry=empty_carry(**kw), **kw)
    tail, _ = kernel_arrow(_arrow(df[~in_head]), carry=carry, **kw)
    got = (
        pd.concat([head.to_pandas(), tail.to_pandas()], ignore_index=True)
        .sort_values(["conv_id", "turn_idx"], kind="mergesort").reset_index(drop=True)
    )

    assert list(got.columns) == list(whole.columns) and len(got) == len(whole)
    for c in whole.columns:
        if whole[c].dtype.kind not in "fciu":
            assert (got[c].astype(str) == whole[c].astype(str)).all(), c
            continue
        a, b = got[c].to_numpy(dtype=float), whole[c].to_numpy(dtype=float)
        if c.startswith("form_") or c == "gap_s":
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=0, equal_nan=True, err_msg=c)
        else:
            assert _same(a, b), f"{c} differs after cuts at {cuts}"
