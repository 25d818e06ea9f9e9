"""Text-analysis operators over ``documents``: token stats and counts,
language-ID (marker-token heuristic), document fingerprinting, key-hash
sampling, token-count quantiles and histogram, quality flags and a
Count-Min frequency sketch.

Stateless per-batch transforms; lang-ID runs as an actor pool (marker
sets compiled once per actor, `__init__`), matching the "stateful setup
once per actor" pattern. Oracles mirror the arithmetic in DuckDB list
lambdas where expressible.
"""

from __future__ import annotations

import numpy as np
from nfl_feature_store_ray.functions.rounding import round_half_away
import pandas as pd

from nfl_feature_store_ray.functions import textfuncs as tf
from nfl_feature_store_ray.sources.readers import read_table

_STOPWORDS = ("the", "a", "of", "and", "to", "in", "is", "it")


def q_text_stats(sf_dir: str):
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def stats(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized: one explode of the lowercased token lists, then C-path
        # groupbys on the doc index — no per-document Python comprehensions.
        # ''.str.split(' ') == [''] — one empty token, matching the oracle's
        # string_split('', ' ') (NOT zero tokens); None stays token-free.
        df = df.reset_index(drop=True)
        text = df["text"]
        # NULL text -> NULL stats, exactly like the oracle's length(NULL) /
        # string_split(lower(NULL)) (a non-null doc always has >= 1 token,
        # so reindex introduces NaN only for null-text rows)
        n_chars = text.str.len()
        low = text.str.lower().str.split(" ")
        tok = low.explode().dropna()
        grp = tok.groupby(level=0)
        idx = df.index
        n_tokens = grp.size().reindex(idx)
        stop = tok.isin(_STOPWORDS).groupby(level=0).sum().reindex(idx)
        uniq = grp.nunique().reindex(idx)
        avg_tok = tok.str.len().groupby(level=0).mean().reindex(idx)
        nt = n_tokens.to_numpy(dtype="float64")
        with np.errstate(invalid="ignore", divide="ignore"):
            stop_ratio = np.where(nt > 0, stop.to_numpy(dtype="float64") / nt, np.nan)
            uniq_ratio = np.where(nt > 0, uniq.to_numpy(dtype="float64") / nt, np.nan)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_chars": n_chars,
                "n_tokens": n_tokens,
                "stop_ratio": round_half_away(stop_ratio, 6),
                "uniq_ratio": round_half_away(uniq_ratio, 6),
                "avg_token_len": round_half_away(avg_tok.to_numpy(dtype="float64"), 6),
            }
        )

    return docs.map_batches(stats, batch_format="pandas")


_SW = ", ".join(f"'{w}'" for w in _STOPWORDS)

SQL_TEXT_STATS = f"""
WITH ws AS (
  SELECT doc_id, length(text) AS n_chars, string_split(lower(text), ' ') AS w
  FROM documents
)
SELECT doc_id, n_chars,
       len(w) AS n_tokens,
       ROUND(len(list_filter(w, x -> x IN ({_SW}))) / CAST(len(w) AS DOUBLE), 6) AS stop_ratio,
       ROUND(len(list_distinct(w)) / CAST(len(w) AS DOUBLE), 6) AS uniq_ratio,
       ROUND(list_sum(list_transform(w, x -> length(x))) / CAST(len(w) AS DOUBLE), 6)
         AS avg_token_len
FROM ws
"""


class LangId:
    """Actor-pool language-ID stage (marker sets prepared once per actor)."""

    def __init__(self):
        self.markers = {k: frozenset(v) for k, v in tf.LANG_MARKERS.items()}

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        # one explode of the token lists, then an isin + C-path groupby per
        # language — no per-token Python loops
        df = df.reset_index(drop=True)
        tok = df["text"].str.lower().str.split(" ").explode().dropna()
        out = {"doc_id": df["doc_id"]}
        scores = {}
        for lang, mk in self.markers.items():
            sc = (
                tok.isin(mk).groupby(level=0).sum()
                .reindex(df.index, fill_value=0).astype("int64").to_numpy()
            )
            scores[lang] = sc
            out[f"score_{lang}"] = sc
        mat = np.stack([scores[lang] for lang in tf.LANGS], axis=1)
        best = mat.argmax(axis=1)  # argmax: first (lexicographic) on ties
        out["pred_lang"] = np.asarray(tf.LANGS, dtype=object)[best]
        return pd.DataFrame(out)


def q_lang_id(sf_dir: str):
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return docs.map_batches(LangId, batch_format="pandas", concurrency=(1, 4))


def _score_sql(lang: str) -> str:
    mk = ", ".join(f"'{w}'" for w in tf.LANG_MARKERS[lang])
    return f"len(list_filter(w, x -> x IN ({mk})))"


_PRED_CASE = "CASE " + " ".join(
    "WHEN "
    + " AND ".join(
        f"score_{lang} >= score_{other}" for other in tf.LANGS if other != lang
    )
    + f" THEN '{lang}'"
    for lang in tf.LANGS
) + " END"

# null text ≡ empty document (engine contract: a null doc scores 0 for
# every language and predicts the tie-break language, like '') — the
# coalesce pins the oracle to the same semantics
SQL_LANG_ID = f"""
WITH ws AS (SELECT doc_id, string_split(lower(coalesce(text, '')), ' ') AS w FROM documents),
s AS (
  SELECT doc_id,
         {", ".join(f"{_score_sql(lang)} AS score_{lang}" for lang in tf.LANGS)}
  FROM ws
)
SELECT doc_id, {", ".join(f"score_{lang}" for lang in tf.LANGS)},
       {_PRED_CASE} AS pred_lang
FROM s
"""


def q_doc_fingerprint(sf_dir: str):
    """Rolling polynomial hash over the token sequence (no SQL oracle —
    bigint modular arithmetic is not portably SQL-expressible)."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def fp(df: pd.DataFrame) -> pd.DataFrame:
        # tokens split in polars, batch-hashed; cheap integer Horner per doc
        counts, flat = tf.token_flat(df["text"].to_numpy())
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "fingerprint": tf.rolling_fingerprint_from_flat(flat, counts),
            }
        )

    return docs.map_batches(fp, batch_format="pandas")


QUANTILES = (0.25, 0.5, 0.75, 0.9)


def q_quantile_tokens(sf_dir: str):
    """EXACT distributed quantiles of the per-document token count via
    bounded-domain histograms — the scale-right quantile shape: token
    counts are small ints, so each batch emits one tiny bincount partial
    and the merge is O(domain), with NO global sort (the naive
    ds.sort+index plan is an all-to-all at 10^9 docs). Selection rule
    matches DuckDB quantile_disc: 1-based rank = ceil(q * n) (verified
    empirically against DuckDB at n=4..100; the interpolation-style
    floor(q*(n-1)) rule diverges at e.g. n=6, q=0.75)."""
    docs = read_table(sf_dir, "documents", columns=["text"])

    def hist(df: pd.DataFrame) -> pd.DataFrame:
        t = df["text"].fillna("")
        nt = np.where(
            t.str.len().to_numpy() > 0, t.str.count(" ").to_numpy() + 1, 0
        ).astype(np.int64)
        bc = np.bincount(nt)
        nz = np.flatnonzero(bc)
        return pd.DataFrame({"n_tokens": nz.astype(np.int64), "cnt": bc[nz].astype(np.int64)})

    parts = docs.map_batches(hist, batch_format="pandas").to_pandas()
    h = parts.groupby("n_tokens", as_index=False)["cnt"].sum().sort_values("n_tokens")
    vals = h["n_tokens"].to_numpy()
    cum = h["cnt"].to_numpy().cumsum()
    n = int(cum[-1]) if len(cum) else 0
    rows = []
    for q in QUANTILES:
        rank = max(1, int(np.ceil(q * n)))  # duckdb quantile_disc selection
        pos = int(np.searchsorted(cum, rank))
        rows.append({"q": q, "n_tokens_q": int(vals[pos])})
    return pd.DataFrame(rows)


_WS_TOKENS = """
WITH ws AS (
  SELECT CASE WHEN length(coalesce(text, '')) > 0
              THEN length(text) - length(replace(text, ' ', '')) + 1
              ELSE 0 END AS n_tokens
  FROM documents
)
"""

# quantile_disc takes only constant parameters -> one SELECT per q
SQL_QUANTILE_TOKENS = _WS_TOKENS + "\nUNION ALL\n".join(
    f"SELECT {q} AS q, CAST(quantile_disc(n_tokens, {q}) AS BIGINT) AS n_tokens_q FROM ws"
    for q in QUANTILES
)

QUERIES = {
    "text_stats": q_text_stats,
    "lang_id": q_lang_id,
    "doc_fingerprint": q_doc_fingerprint,
    "quantile_tokens": q_quantile_tokens,
}

ORACLES = {
    "text_stats": SQL_TEXT_STATS,
    "lang_id": SQL_LANG_ID,
    "quantile_tokens": SQL_QUANTILE_TOKENS,
}


def q_sample_docs(sf_dir: str):
    """Deterministic 1-in-10 sampling (O5-class op the reference lacks).

    Reproducible across engines and runs: membership is a pure function of
    the key (doc_id % 10 == 3), not an RNG — the sampling idiom that keeps
    train/eval splits stable across backfills."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])
    return docs.map_batches(
        lambda df: df[df["doc_id"] % 10 == 3], batch_format="pandas"
    )


SQL_SAMPLE_DOCS = """
SELECT doc_id, lang, n_chars FROM documents WHERE doc_id % 10 = 3
"""

QUERIES["sample_docs"] = q_sample_docs
ORACLES["sample_docs"] = SQL_SAMPLE_DOCS


def q_token_counts(sf_dir: str):
    """Token counting two ways: whitespace split and a BPE-ish regex
    (word pieces + standalone punctuation), both vectorized per batch."""
    import re

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    pat = re.compile(r"[a-z0-9]+|[^a-z0-9\s]")

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        low = df["text"].str.lower()
        # both paths run in C: split-count via substring count (+1), regex
        # token count via Series.str.count (re2-style vectorized findall
        # len). null ≡ empty doc: ''.split(' ') == [''] -> ONE whitespace
        # token (fillna(0)+1), zero regex tokens — matches the coalesce'd
        # oracle
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "ws_tokens": (low.str.count(" ").fillna(0) + 1).astype("int64"),
                "re_tokens": low.str.count(pat).fillna(0).astype("int64"),
            }
        )

    return docs.map_batches(counts, batch_format="pandas")


# null text ≡ empty document (0 regex tokens; 1 whitespace token, like
# '' -> [''] — the engine's count(' ')+1 convention)
SQL_TOKEN_COUNTS = r"""
SELECT doc_id,
       len(string_split(lower(coalesce(text, '')), ' ')) AS ws_tokens,
       len(regexp_extract_all(lower(coalesce(text, '')), '[a-z0-9]+|[^a-z0-9\s]')) AS re_tokens
FROM documents
"""

QUERIES["token_counts"] = q_token_counts
ORACLES["token_counts"] = SQL_TOKEN_COUNTS


# ---------------------------------------------------------------------------
# fixed-width histogram of the per-document token count — the corpus-shape
# profile (length distribution) computed the bounded-partial way, same
# shape as quantile_tokens: O(domain/width) ints per batch, no shuffle
# ---------------------------------------------------------------------------
HIST_BIN_W = 10


def q_hist_tokens(sf_dir: str):
    """Token-count histogram with bin width ``HIST_BIN_W`` (bin = count //
    width). Each batch emits one tiny bincount partial over the bounded
    bin domain; the driver merge is O(bins). Same token convention as
    quantile_tokens (null/empty text -> 0 tokens)."""
    docs = read_table(sf_dir, "documents", columns=["text"])

    def hist(df: pd.DataFrame) -> pd.DataFrame:
        t = df["text"].fillna("")
        nt = np.where(
            t.str.len().to_numpy() > 0, t.str.count(" ").to_numpy() + 1, 0
        ).astype(np.int64)
        bc = np.bincount(nt // HIST_BIN_W)
        nz = np.flatnonzero(bc)
        return pd.DataFrame({"bin": nz.astype(np.int64), "cnt": bc[nz].astype(np.int64)})

    parts = docs.map_batches(hist, batch_format="pandas").to_pandas()
    out = parts.groupby("bin", as_index=False)["cnt"].sum()
    out["cnt"] = out["cnt"].astype("int64")
    return out


SQL_HIST_TOKENS = _WS_TOKENS + f"""
SELECT CAST(n_tokens // {HIST_BIN_W} AS BIGINT) AS bin, COUNT(*) AS cnt
FROM ws GROUP BY 1
"""

QUERIES["hist_tokens"] = q_hist_tokens
ORACLES["hist_tokens"] = SQL_HIST_TOKENS


# ---------------------------------------------------------------------------
# Gopher-style quality flags (repetition + symbol ratio + keep decision) —
# the standard web-scale pre-training filter family (cf. Rae et al. 2021
# "Scaling Language Models" quality heuristics, public)
# ---------------------------------------------------------------------------
QF_DUP_MAX = 0.02
QF_TOK_MIN, QF_TOK_MAX = 20, 80


def quality_signals(texts: pd.Series) -> dict:
    """The quality-filter math behind ``q_quality_flags``. Returns arrays:
    n_tokens, dup_trigram_frac (6dp), symbol_ratio (6dp), keep."""
    low = texts.str.lower()
    n_chars = low.str.len().fillna(0).to_numpy(dtype=np.int64)
    n_tokens = np.where(
        n_chars > 0, low.str.count(" ").fillna(-1).to_numpy() + 1, 0
    ).astype(np.int64)
    distinct_tri = tf.shingle_flat(texts.to_numpy(), k=3)[0]
    total_tri = np.maximum(n_tokens - 2, 0)
    with np.errstate(invalid="ignore", divide="ignore"):
        dup = np.where(total_tri > 0, 1.0 - distinct_tri / total_tri, 0.0)
        sym = np.where(
            n_chars > 0,
            low.str.count(r"[^a-z0-9 ]").fillna(0).to_numpy() / n_chars,
            0.0,
        )
    dup6 = round_half_away(dup, 6)
    keep = (n_tokens >= QF_TOK_MIN) & (n_tokens <= QF_TOK_MAX) & (dup6 <= QF_DUP_MAX)
    return {
        "n_tokens": n_tokens,
        "dup_trigram_frac": dup6,
        "symbol_ratio": round_half_away(sym, 6),
        "keep": keep,
    }


def q_quality_flags(sf_dir: str):
    """Per-document quality filter signals, fully vectorized:
      dup_trigram_frac  1 - distinct/total word-3-grams (repetition signal;
                        trigram strings built in polars via tf.shingle_flat)
      symbol_ratio      non-[a-z0-9 ] chars / chars of the lowered text
      keep              the filter decision (token-count bounds + repetition
                        cap) — the column a 100-TB ingest would filter on
    """
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def flags(df: pd.DataFrame) -> pd.DataFrame:
        sig = quality_signals(df["text"])
        return pd.DataFrame({"doc_id": df["doc_id"], **sig})

    return docs.map_batches(flags, batch_format="pandas")


SQL_QUALITY_FLAGS = f"""
WITH ws AS (
  SELECT doc_id, lower(text) AS lt, string_split(lower(text), ' ') AS w
  FROM documents
),
tri AS (
  SELECT doc_id, lt, w,
         CASE WHEN len(w) >= 3
              THEN list_transform(generate_series(1, len(w) - 2),
                                  i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])
              ELSE [] END AS t3
  FROM ws
),
m AS (
  SELECT doc_id,
         CASE WHEN length(lt) > 0 THEN len(w) ELSE 0 END AS n_tokens,
         ROUND(CASE WHEN len(t3) > 0
                    THEN 1.0 - len(list_distinct(t3)) / CAST(len(t3) AS DOUBLE)
                    ELSE 0.0 END, 6) AS dup_trigram_frac,
         ROUND(CASE WHEN length(lt) > 0
                    THEN length(regexp_replace(lt, '[a-z0-9 ]', '', 'g'))
                         / CAST(length(lt) AS DOUBLE)
                    ELSE 0.0 END, 6) AS symbol_ratio
  FROM tri
)
SELECT doc_id, n_tokens, dup_trigram_frac, symbol_ratio,
       (n_tokens BETWEEN {QF_TOK_MIN} AND {QF_TOK_MAX}
        AND dup_trigram_frac <= {QF_DUP_MAX}) AS keep
FROM m
"""

QUERIES["quality_flags"] = q_quality_flags
ORACLES["quality_flags"] = SQL_QUALITY_FLAGS


# ---------------------------------------------------------------------------
# Count-Min sketch — the mergeable frequency summary next to HLL
# (distinct) and DDSketch (quantiles): fixed D x W counter
# matrices that merge by elementwise SUM, so corpus-wide frequency
# estimates need zero shuffle and O(D*W) driver state. Estimates
# OVERCOUNT only: true <= est <= true + (N - true)/W per row in
# expectation, min over D rows. (Cormode & Muthukrishnan 2005 — public.)
# Gated rows-only (hash-seeded cells aren't SQL-portable); the
# overestimate guarantee, merge invariance, and determinism are pinned by
# tests/test_sketch.py.
# ---------------------------------------------------------------------------
CMS_W = 1024
CMS_D = 4
_CMS_A = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                   0x165667B19E3779F9, 0x27D4EB2F165667C5], dtype=np.uint64)
_CMS_B = np.array([0x85EBCA6B, 0xC2B2AE35, 0x94D049BB, 0xBF58476D],
                  dtype=np.uint64)


def _cms_rows(tokens: np.ndarray, counts: np.ndarray) -> pd.DataFrame:
    """One (d, w, cnt) sparse partial from (unique token, count) pairs."""
    h0 = tf.hash61_array(tokens).astype(np.uint64)
    out_d, out_w, out_c = [], [], []
    for d in range(CMS_D):
        cell = ((h0 * _CMS_A[d] + _CMS_B[d]) >> np.uint64(17)) % np.uint64(CMS_W)
        acc = np.zeros(CMS_W, dtype=np.int64)
        np.add.at(acc, cell.astype(np.int64), counts)
        nz = np.flatnonzero(acc)
        out_d.append(np.full(len(nz), d, dtype=np.int64))
        out_w.append(nz.astype(np.int64))
        out_c.append(acc[nz])
    return pd.DataFrame({"d": np.concatenate(out_d),
                         "w": np.concatenate(out_w),
                         "cnt": np.concatenate(out_c)})


def cms_estimate(table: pd.DataFrame, probes: np.ndarray) -> np.ndarray:
    """Point-query the merged sparse sketch for each probe token."""
    dense = np.zeros((CMS_D, CMS_W), dtype=np.int64)
    dense[table["d"].to_numpy(), table["w"].to_numpy()] = table["cnt"].to_numpy()
    h0 = tf.hash61_array(probes).astype(np.uint64)
    ests = np.full(len(probes), np.iinfo(np.int64).max, dtype=np.int64)
    for d in range(CMS_D):
        cell = ((h0 * _CMS_A[d] + _CMS_B[d]) >> np.uint64(17)) % np.uint64(CMS_W)
        ests = np.minimum(ests, dense[d, cell.astype(np.int64)])
    return ests


def _cms_partial(df: pd.DataFrame) -> pd.DataFrame:
    """Per-batch sparse CMS partial from exact batch value_counts."""
    vc = df["text"].str.lower().str.split(" ").explode().dropna().value_counts()
    if not len(vc):
        return pd.DataFrame({"d": pd.Series([], dtype="int64"),
                             "w": pd.Series([], dtype="int64"),
                             "cnt": pd.Series([], dtype="int64")})
    return _cms_rows(vc.index.to_numpy(object), vc.to_numpy(np.int64))


def cms_merged(docs) -> pd.DataFrame:
    """Merged sparse CMS over a documents Dataset: one map_batches pass,
    driver merge is a groupby-sum over <= D*W cells."""
    parts = docs.map_batches(_cms_partial, batch_format="pandas").to_pandas()
    return parts.groupby(["d", "w"], as_index=False)["cnt"].sum()


def q_sketch_cms(sf_dir: str):
    """CMS frequency estimates for the stopword probe set over the corpus
    token stream. Per batch: exact value_counts -> one sparse (d, w, cnt)
    partial; driver merge is a groupby-sum over <= D*W cells."""
    docs = read_table(sf_dir, "documents", columns=["text"])
    merged = cms_merged(docs)
    probes = np.asarray(sorted(_STOPWORDS), dtype=object)
    est = cms_estimate(merged, probes)
    return pd.DataFrame({"tok": probes, "est": est.astype("int64")})


QUERIES["sketch_cms"] = q_sketch_cms  # rows-only (hash cells not SQL-portable)


# ---------------------------------------------------------------------------
# CMS planted-invariant gate (r04 verdict #3): the sketch itself is not
# SQL-portable, but its CONTRACT is — a Count-Min estimate (min over D
# rows of non-negative counters) can never undercount, and the standard
# eps = 2/W accuracy bound says est <= true + 2N/W (per row in
# expectation, min over D independent rows; deterministic for a fixed
# corpus + seeds). The engine computes est AND the exact probe counts,
# emits (tok, true_cnt, ge_true, within_bound) with both booleans
# guaranteed TRUE by the contract; the DuckDB oracle computes the same
# exact counts with literal TRUEs. A hash mismatch means the distributed
# sketch (partial build, cell merge, point query) broke its guarantee.
# ---------------------------------------------------------------------------
def q_sketch_cms_bounds(sf_dir: str):
    docs = read_table(sf_dir, "documents", columns=["text"])
    merged = cms_merged(docs)
    probes = np.asarray(sorted(_STOPWORDS), dtype=object)
    est = cms_estimate(merged, probes)

    def exact_part(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.lower().str.split(" ").explode().dropna()
        vc = toks[toks.isin(_STOPWORDS)].value_counts()
        out = pd.DataFrame({"tok": vc.index.astype(str),
                            "cnt": vc.to_numpy(np.int64)})
        # null-token row carries the batch's total token count (the bound's N)
        return pd.concat(
            [out, pd.DataFrame({"tok": [None], "cnt": [np.int64(toks.size)]})],
            ignore_index=True)

    ex = docs.map_batches(exact_part, batch_format="pandas").to_pandas()
    n_total = int(ex.loc[ex["tok"].isna(), "cnt"].sum())
    cnts = ex.dropna(subset=["tok"]).groupby("tok")["cnt"].sum()
    true = np.asarray([int(cnts.get(t, 0)) for t in probes], dtype=np.int64)
    return pd.DataFrame(
        {"tok": probes.astype(str),
         "true_cnt": true,
         "ge_true": est >= true,
         # exact integer arithmetic: est <= true + 2N/W
         "within_bound": est * CMS_W <= true * CMS_W + 2 * n_total})


_CMS_PROBE_VALUES = ", ".join(f"('{t}')" for t in sorted(_STOPWORDS))

SQL_SKETCH_CMS_BOUNDS = f"""
WITH ws AS (
  SELECT unnest(string_split(lower(text), ' ')) AS tok FROM documents
),
p(tok) AS (VALUES {_CMS_PROBE_VALUES})
SELECT p.tok, CAST(COALESCE(c.cnt, 0) AS BIGINT) AS true_cnt,
       TRUE AS ge_true, TRUE AS within_bound
FROM p LEFT JOIN (SELECT tok, COUNT(*) AS cnt FROM ws GROUP BY tok) c
  USING (tok)
"""

QUERIES["sketch_cms_bounds"] = q_sketch_cms_bounds
ORACLES["sketch_cms_bounds"] = SQL_SKETCH_CMS_BOUNDS
