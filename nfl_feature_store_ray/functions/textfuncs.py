"""Deterministic text kernels: shingling, tokenizing, rolling
fingerprints and language-ID markers.

Token hashes are seeded/deterministic (pandas' SipHash C kernel with a
fixed 16-byte key, reduced mod the Mersenne prime 2^61-1) so every
pipeline is reproducible across runs, processes, and cluster sizes.
Shingles and tokens are built batch-wise in polars and hashed in one C
pass per batch (hash_str_array) — no per-token Python hashing.
"""

from __future__ import annotations


import numpy as np

_MERSENNE61 = (1 << 61) - 1


def token_split(text: str) -> list[str]:
    """Whitespace split matching DuckDB ``string_split(text, ' ')``."""
    return (text or "").split(" ")


def shingle_set(text: str, k: int = 3) -> set[str]:
    """Distinct k-word shingles of the lowercased space-split token stream."""
    w = (text or "").lower().split(" ")
    if len(w) < k:
        return set()
    return {" ".join(w[i : i + k]) for i in range(len(w) - k + 1)}


def shingle_flat(texts, k: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Batch shingle builder, fully vectorized in polars (VERDICT r2 #6:
    replaces the per-doc Python set comprehensions).

    Returns ``(counts, flat)``: ``counts[d]`` distinct k-gram shingles for
    document d, ``flat`` the concatenated per-doc shingle strings (grouped
    by doc, arbitrary order within a doc — callers hash or sort anyway).
    Same semantics as ``shingle_set`` per doc: lowercase, split on ' ',
    DISTINCT k-grams, empty set when the doc has < k tokens.

    NOTE: Polars 2.0 will flip ``str.split``'s ``empty_as_null`` default
    (deprecation warning on 1.42; the kwarg does not exist yet so it
    cannot be pinned here). The required semantics — '' splits to ['']
    like Python's ``''.split(' ')`` — are pinned by
    tests/test_textfuncs_property.py against the Python reference, which
    will fail loudly on a polars upgrade that changes behavior.
    """
    import os

    os.environ.setdefault("POLARS_MAX_THREADS", "1")
    import polars as pl

    n = len(texts)
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.empty(0, dtype=object)
    df = pl.DataFrame(
        {"t": pl.Series(values=list(texts), dtype=pl.Utf8)}
    ).with_row_index("d")
    shift_cols = [f"w{i}" for i in range(1, k)]
    e = (
        df.with_columns(
            pl.col("t").fill_null("").str.to_lowercase().str.split(" ").alias("w")
        )
        .select("d", "w")
        .explode("w")
        .with_columns(
            *[pl.col("w").shift(-i).over("d").alias(f"w{i}") for i in range(1, k)]
        )
        .drop_nulls(shift_cols)
        .select(
            "d",
            sh=pl.concat_str([pl.col("w")] + [pl.col(c) for c in shift_cols],
                             separator=" "),
        )
        .unique()
        .sort("d")
    )
    d_ix = e["d"].to_numpy().astype(np.int64)
    counts = np.bincount(d_ix, minlength=n).astype(np.int64)
    return counts, e["sh"].to_numpy()




def token_flat(texts, lower: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Batch whitespace tokenizer, vectorized in polars: returns
    ``(counts, flat)`` where ``counts[d]`` is doc d's token count and
    ``flat`` the concatenated tokens IN ORDER (matching
    ``token_split(text.lower())`` per doc: '' -> one empty token)."""
    import os

    os.environ.setdefault("POLARS_MAX_THREADS", "1")
    import polars as pl

    n = len(texts)
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.empty(0, dtype=object)
    t = pl.Series("t", list(texts), dtype=pl.Utf8).fill_null("")
    if lower:
        t = t.str.to_lowercase()
    e = (
        pl.DataFrame({"t": t})
        .with_row_index("d")
        .with_columns(pl.col("t").str.split(" ").alias("w"))
        .select("d", "w")
        .explode("w")
    )
    d_ix = e["d"].to_numpy().astype(np.int64)
    counts = np.bincount(d_ix, minlength=n).astype(np.int64)
    return counts, e["w"].to_numpy()


_HASH_KEY16 = "nfl_fs_text_16b!"  # pd.util.hash_array key: EXACTLY 16 bytes


def hash_str_array(strings: list[str] | np.ndarray) -> np.ndarray:
    """Vectorized stable 64-bit hash of a string array (pandas SipHash C
    kernel, fixed key — deterministic across runs/processes/machines).

    One C pass over the whole batch — replaces the round-1 per-string
    hashlib.blake2b calls (the measured hashing hot spot).
    """
    import pandas as pd

    if len(strings) == 0:
        return np.empty(0, dtype=np.uint64)
    return pd.util.hash_array(
        np.asarray(strings, dtype=object), hash_key=_HASH_KEY16, categorize=False
    )


def mod61(h: np.ndarray) -> np.ndarray:
    return (h % np.uint64(_MERSENNE61)).astype(np.int64)


def hash61_array(strings: list[str] | np.ndarray) -> np.ndarray:
    return mod61(hash_str_array(strings))


def rolling_fingerprint_from_flat(
    flat_tokens: np.ndarray, counts: np.ndarray, base: int = 1_000_003
) -> np.ndarray:
    """Rolling fingerprints from a concatenated token array: tokens hashed
    in ONE vectorized pass, then a cheap integer Horner per document (the
    per-token hashlib call was the cost, not the modular arithmetic)."""
    h = hash61_array(flat_tokens).tolist()
    out = np.empty(len(counts), dtype=np.int64)
    i = 0
    for d, c in enumerate(counts):
        acc = 0
        for t in h[i : i + int(c)]:
            acc = (acc * base + t) % _MERSENNE61
        out[d] = acc
        i += int(c)
    return out


# --- language-ID marker lists (deterministic heuristic; SQL-mirrored) ------
LANG_MARKERS = {
    "de": ("der", "die", "das", "und", "nicht", "ist"),
    "en": ("the", "a", "of", "and", "to", "is"),
    "es": ("el", "la", "de", "que", "los", "es"),
    "fr": ("le", "la", "les", "des", "est", "une"),
    "zh": ("的", "是", "了", "在", "我", "不"),
}
LANGS = tuple(sorted(LANG_MARKERS))  # de, en, es, fr, zh — tie-break order


