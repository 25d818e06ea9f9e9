"""Property tests: the polars-vectorized text kernels must agree with the
plain-Python references on arbitrary (incl. unicode / whitespace-weird)
inputs."""

import numpy as np
from hypothesis import given, settings, strategies as st

from nfl_feature_store_ray.functions import textfuncs as tf

texts_st = st.lists(
    st.one_of(
        st.none(),
        st.text(max_size=60),
        st.text(alphabet=" abcde", max_size=40),  # space-heavy
    ),
    min_size=0, max_size=20,
)


@settings(max_examples=60, deadline=None)
@given(texts=texts_st, k=st.integers(min_value=2, max_value=5))
def test_shingle_flat_matches_shingle_set(texts, k):
    counts, flat = tf.shingle_flat(texts, k=k)
    assert len(counts) == len(texts)
    i = 0
    for t, c in zip(texts, counts):
        got = sorted(flat[i : i + c]); i += c
        want = sorted(tf.shingle_set(t or "", k))
        assert got == want, (t, k)
    assert i == len(flat)


@settings(max_examples=60, deadline=None)
@given(texts=texts_st)
def test_token_flat_matches_token_split(texts):
    counts, flat = tf.token_flat(texts)
    i = 0
    for t, c in zip(texts, counts):
        got = list(flat[i : i + c]); i += c
        assert got == tf.token_split((t or "").lower()), t
    assert i == len(flat)


def _fingerprints(texts):
    counts, flat = tf.token_flat(texts)
    return tf.rolling_fingerprint_from_flat(flat, counts)


@settings(max_examples=60, deadline=None)
@given(texts=texts_st, cut=st.integers(min_value=0, max_value=20))
def test_rolling_fingerprint_matches_horner_and_split(texts, cut):
    """Each fingerprint is the Horner hash of the text's token hashes mod
    2^61-1, and fingerprinting any two-way split of the batch gives the
    same values: identical token sequences fingerprint identically in
    every batch."""
    fp = _fingerprints(texts)
    assert fp.dtype == np.int64 and len(fp) == len(texts)
    for t, got in zip(texts, fp):
        acc = 0
        for h in tf.hash61_array(tf.token_split((t or "").lower())).tolist():
            acc = (acc * 1_000_003 + h) % (2**61 - 1)
        assert got == acc, t
    cut = min(cut, len(texts))
    split = np.concatenate([_fingerprints(texts[:cut]), _fingerprints(texts[cut:])])
    assert (split == fp).all()
