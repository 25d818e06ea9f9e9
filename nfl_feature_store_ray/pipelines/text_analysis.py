"""Text-analysis operators over ``documents``: token stats / quality
scoring, language-ID (marker-token heuristic), document fingerprinting.

Stateless per-batch transforms; lang-ID runs as an actor pool (marker
sets compiled once per actor, `__init__`), matching the "stateful setup
once per actor" pattern. Oracles mirror the arithmetic in DuckDB list
lambdas where expressible.
"""

from __future__ import annotations

import numpy as np
from nfl_feature_store_ray.functions.rounding import round_half_away
import pandas as pd
import ray

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
}

ORACLES = {
    "text_stats": SQL_TEXT_STATS,
    "lang_id": SQL_LANG_ID,
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

QUERIES["quantile_tokens"] = q_quantile_tokens
ORACLES["quantile_tokens"] = SQL_QUANTILE_TOKENS


TOP_TOKENS_K = 20


def top_tokens_df(sf_dir: str, k: int) -> pd.DataFrame:
    """Exact distributed heavy hitters: corpus-wide top-``k`` tokens.

    Per-batch partial value_counts (each batch ships one row per DISTINCT
    token it saw, not one per occurrence), one token-keyed shuffle sums
    them, per-bucket partial top-k, tiny driver merge (k rows per bucket).
    Ties pinned (count DESC, token ASC) on both sides. Shared by
    ``q_top_tokens`` and the ``oov_rate`` vocabulary build."""
    docs = read_table(sf_dir, "documents", columns=["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = df["text"].str.lower().str.split(" ").explode().dropna().value_counts()
        return pd.DataFrame({"tok": vc.index.astype(str), "cnt": vc.to_numpy(dtype=np.int64)})

    def bucket_topk(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("tok", as_index=False)["cnt"].sum()
        s = s.sort_values(["cnt", "tok"], ascending=[False, True], kind="mergesort")
        return s.head(k)

    from nfl_feature_store_ray.stages.bucketize import map_conv_buckets

    parts = docs.map_batches(partial, batch_format="pandas")
    per_bucket = map_conv_buckets(parts, bucket_topk, key="tok", sort_cols=["tok"],
                                  num_buckets=16)
    merged = per_bucket.to_pandas()
    merged = merged.sort_values(["cnt", "tok"], ascending=[False, True], kind="mergesort")
    out = merged.head(k).reset_index(drop=True)
    out["cnt"] = out["cnt"].astype("int64")
    return out


def q_top_tokens(sf_dir: str):
    return top_tokens_df(sf_dir, TOP_TOKENS_K)


SQL_TOP_TOKENS = f"""
WITH ws AS (
  SELECT unnest(string_split(lower(text), ' ')) AS tok FROM documents
)
SELECT tok, COUNT(*) AS cnt FROM ws GROUP BY tok
ORDER BY cnt DESC, tok ASC LIMIT {TOP_TOKENS_K}
"""

QUERIES["top_tokens"] = q_top_tokens
ORACLES["top_tokens"] = SQL_TOP_TOKENS


# ---------------------------------------------------------------------------
# Gopher-style quality flags (repetition + symbol ratio + keep decision) —
# the standard web-scale pre-training filter family (cf. Rae et al. 2021
# "Scaling Language Models" quality heuristics, public)
# ---------------------------------------------------------------------------
QF_DUP_MAX = 0.02
QF_TOK_MIN, QF_TOK_MAX = 20, 80


def quality_signals(texts: pd.Series) -> dict:
    """THE quality-filter math, shared by ``q_quality_flags`` and the
    curation composite (single source of truth — any change to the keep
    rule propagates to every consumer). Returns arrays: n_tokens,
    dup_trigram_frac (6dp), symbol_ratio (6dp), keep."""
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
# stratified deterministic sampling: per-language quota (training-mix op)
# ---------------------------------------------------------------------------
STRAT_K = 40          # docs kept per language stratum
STRAT_MULT = 2654435761  # Knuth multiplicative hash; pseudo-random, SQL-exact
STRAT_MOD = 2147483647


def q_sample_stratified(sf_dir: str):
    """Per-language quota sampling: keep the STRAT_K docs with the smallest
    deterministic pseudo-random rank (((doc_id % M) * Knuth) % M) in each
    lang — the data-mixture op that balances language strata reproducibly
    across engines and runs (pure function of the key, like `sample_docs`).

    Distributed per-group top-k: each batch emits its per-lang partial
    top-K (bounded: K x langs rows per batch), one lang-keyed shuffle
    finishes the selection — no global sort, no full shuffle of the docs.
    The pre-mod bounds the product by (M-1)*MULT ~ 5.7e18 < 2^63-1, so it
    neither wraps int64 in numpy nor overflows BIGINT in DuckDB; negative
    ids are normalized to the non-negative residue on BOTH sides (numpy %
    is always non-negative, SQL % keeps the dividend's sign — the oracle
    adds +M then re-mods). Ids differing by a multiple of M share a rank,
    so ties are pinned by (rk, doc_id) on both sides."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])

    # dropna=False: SQL PARTITION BY keeps a NULL-lang stratum — it gets
    # its own quota like any other lang (ADVICE r04 NULL-group-key class)
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["rk"] = ((df["doc_id"].astype("int64") % STRAT_MOD) * STRAT_MULT) % STRAT_MOD
        return (
            df.sort_values(["rk", "doc_id"], kind="mergesort")
            .groupby("lang", as_index=False, dropna=False).head(STRAT_K)
        )

    def final(group: pd.DataFrame) -> pd.DataFrame:
        out = (
            group.sort_values(["rk", "doc_id"], kind="mergesort")
            .groupby("lang", as_index=False, dropna=False).head(STRAT_K)
        )
        return out[["doc_id", "lang", "n_chars", "rk"]]

    from nfl_feature_store_ray.stages.bucketize import map_conv_buckets

    parts = docs.map_batches(partial, batch_format="pandas")
    return map_conv_buckets(parts, final, key="lang", sort_cols=["lang", "rk"],
                            num_buckets=8)


_RK = (
    f"(((doc_id % {STRAT_MOD} + {STRAT_MOD}) % {STRAT_MOD})"
    f" * {STRAT_MULT}) % {STRAT_MOD}"
)

SQL_SAMPLE_STRATIFIED = f"""
WITH r AS (
  SELECT doc_id, lang, n_chars, {_RK} AS rk,
         ROW_NUMBER() OVER (PARTITION BY lang ORDER BY {_RK}, doc_id) AS rn
  FROM documents
)
SELECT doc_id, lang, n_chars, rk FROM r WHERE rn <= {STRAT_K}
"""

QUERIES["sample_stratified"] = q_sample_stratified
ORACLES["sample_stratified"] = SQL_SAMPLE_STRATIFIED


# ---------------------------------------------------------------------------
# OOV rate vs the corpus top-N vocabulary — the tokenizer-coverage signal a
# pre-training mix is filtered/monitored on (docs full of tokens the target
# vocabulary lacks are OCR noise / wrong-language / binary junk)
# ---------------------------------------------------------------------------
OOV_VOCAB_K = 32

# per-worker-process broadcast cache (shared helper — one deserialization
# per worker, not per batch)
from nfl_feature_store_ray.functions.broadcast import cached_object_get as _cached_set_get


def q_oov_rate(sf_dir: str):
    """Per-document out-of-vocabulary token fraction vs the corpus top-
    ``OOV_VOCAB_K`` tokens.

    Two phases, both scale-shaped: the vocabulary is the distributed
    heavy-hitter pass (``top_tokens_df`` — partial counts, one token
    shuffle, tiny driver merge), broadcast ONCE via ray.put; the probe is
    a shuffle-free map with a C-path isin against the cached set. Null
    text ≡ '' (one empty-string token, necessarily OOV unless '' is a
    corpus heavy hitter) — same convention as token_counts."""
    import ray as _ray

    vocab_ref = _ray.put(frozenset(top_tokens_df(sf_dir, OOV_VOCAB_K)["tok"]))
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        vocab = _cached_set_get(vocab_ref)
        df = df.reset_index(drop=True)
        tok = df["text"].fillna("").str.lower().str.split(" ").explode()
        n_tokens = tok.groupby(level=0).size().reindex(df.index, fill_value=0)
        n_oov = (~tok.isin(vocab)).groupby(level=0).sum().reindex(df.index, fill_value=0)
        rate = n_oov.to_numpy(dtype="float64") / n_tokens.to_numpy(dtype="float64")
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_tokens": n_tokens.astype("int64"),
                "n_oov": n_oov.astype("int64"),
                "oov_rate": round_half_away(rate, 6),
            }
        )

    return docs.map_batches(flag, batch_format="pandas")


# vocab CTE mirrors top_tokens (NULL text contributes nothing to the vocab:
# string_split(lower(NULL)) is NULL and unnest skips it); the probe side uses
# the null ≡ '' convention, so both engines see identical token streams
SQL_OOV_RATE = f"""
WITH v AS (
  SELECT tok
  FROM (SELECT unnest(string_split(lower(text), ' ')) AS tok FROM documents) u
  GROUP BY tok ORDER BY COUNT(*) DESC, tok ASC LIMIT {OOV_VOCAB_K}
),
d AS (
  SELECT doc_id, unnest(string_split(lower(coalesce(text, '')), ' ')) AS tok
  FROM documents
),
c AS (
  SELECT d.doc_id, COUNT(*) AS n_tokens,
         SUM(CASE WHEN v.tok IS NULL THEN 1 ELSE 0 END) AS n_oov
  FROM d LEFT JOIN v ON d.tok = v.tok
  GROUP BY d.doc_id
)
SELECT doc_id, n_tokens, CAST(n_oov AS BIGINT) AS n_oov,
       ROUND(n_oov * 1.0 / n_tokens, 6) AS oov_rate
FROM c
"""

QUERIES["oov_rate"] = q_oov_rate
ORACLES["oov_rate"] = SQL_OOV_RATE


# ---------------------------------------------------------------------------
# per-document top terms by tf/df — the TF-IDF keyword family with an
# ALL-INTEGER gated output: the float score (tf/df, identical correctly-
# rounded IEEE division on both engines) only orders the rank, so the gate
# is hash-exact with no rounding surface at all
# ---------------------------------------------------------------------------
TFIDF_TOP = 3


def q_tfidf_terms(sf_dir: str):
    """Per-document top-``TFIDF_TOP`` terms ranked by tf/df (score DESC,
    token ASC on exact-rational ties like 2/4 vs 1/2).

    Scale shape: tf partials are computed per batch (a document's text
    lives in one row, so (doc, term, tf) is complete without any shuffle);
    ONE token-keyed shuffle attaches df (rows per token == distinct docs,
    since tf rows are already per-doc-distinct); ONE doc-keyed shuffle
    finishes the per-doc top-k. Both exchanges ship fixed-width (id, token,
    two ints) rows — never the document text."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def tf_partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.reset_index(drop=True)
        tok = df["text"].fillna("").str.lower().str.split(" ").explode()
        pairs = pd.DataFrame(
            {"doc_id": df["doc_id"].reindex(tok.index).to_numpy(),
             "tok": tok.to_numpy()}
        )
        out = pairs.groupby(["doc_id", "tok"], as_index=False).size()
        return out.rename(columns={"size": "tf"})

    def attach_df(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["df"] = g.groupby("tok")["tf"].transform("size").astype("int64")
        return g

    def doc_topk(g: pd.DataFrame) -> pd.DataFrame:
        score = g["tf"].to_numpy(dtype="float64") / g["df"].to_numpy(dtype="float64")
        g = g.assign(_score=score).sort_values(
            ["doc_id", "_score", "tok"], ascending=[True, False, True], kind="mergesort"
        )
        g["rk"] = (g.groupby("doc_id").cumcount() + 1).astype("int64")
        out = g[g["rk"] <= TFIDF_TOP]
        return out[["doc_id", "rk", "tok", "tf", "df"]].reset_index(drop=True)

    from nfl_feature_store_ray.stages.bucketize import map_conv_buckets

    parts = docs.map_batches(tf_partial, batch_format="pandas")
    with_df = map_conv_buckets(parts, attach_df, key="tok", sort_cols=["tok"],
                               num_buckets=16)
    return map_conv_buckets(with_df, doc_topk, key="doc_id", sort_cols=["doc_id"],
                            num_buckets=16)


SQL_TFIDF_TERMS = f"""
WITH e AS (
  SELECT doc_id, unnest(string_split(lower(coalesce(text, '')), ' ')) AS tok
  FROM documents
),
tfc AS (SELECT doc_id, tok, COUNT(*) AS tf FROM e GROUP BY doc_id, tok),
dfc AS (SELECT tok, COUNT(*) AS df FROM tfc GROUP BY tok),
r AS (
  SELECT tfc.doc_id, tfc.tok, tfc.tf, dfc.df,
         ROW_NUMBER() OVER (
           PARTITION BY tfc.doc_id ORDER BY tfc.tf * 1.0 / dfc.df DESC, tfc.tok
         ) AS rk
  FROM tfc JOIN dfc USING (tok)
)
SELECT doc_id, rk, tok, tf, df FROM r WHERE rk <= {TFIDF_TOP}
"""

QUERIES["tfidf_terms"] = q_tfidf_terms
ORACLES["tfidf_terms"] = SQL_TFIDF_TERMS


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
# Misra-Gries heavy-hitter sketch — the approximate frequency counterpart
# of the exact top_tokens pass (and the third sketch family next to HLL
# cardinality and DDSketch quantiles): bounded summaries merge by counter
# summation + one re-compression, so token frequency never needs a
# corpus-wide shuffle. (Misra & Gries 1982; mergeability per Agarwal et
# al. 2012 "Mergeable Summaries" — public.)
# ---------------------------------------------------------------------------
MG_K = 24  # counters per summary; undercount <= n_total / (MG_K + 1)


def mg_compress(counts: pd.Series, k: int = MG_K) -> tuple[pd.Series, int]:
    """Compress exact (or summed) counters to <= k survivors by
    subtracting the (k+1)-th largest count from everyone (the keys left
    positive are exactly those > offset, hence <= k of them — ties drop
    to zero deterministically). Returns (survivors, offset)."""
    if len(counts) <= k:
        return counts, 0
    v = counts.to_numpy(np.int64)
    offset = int(np.partition(v, -(k + 1))[-(k + 1)])
    out = counts[counts > offset] - offset
    return out, offset


def q_sketch_top_tokens(sf_dir: str):
    """Approximate heavy hitters with MG guarantees: per batch, exact
    value_counts compressed to MG_K counters + the scalar undercount this
    cost (shipped as a null-token row); the driver sums counters, adds up
    the undercounts, re-compresses once, and reports (tok, est,
    err_bound) with TRUE count guaranteed in [est, est + err_bound].
    Deterministic given deterministic batching; the bound itself is
    partitioning-independent (<= total tokens / (MG_K+1)). Rows-only
    gate — `top_tokens` is the exact gated variant; the bound and the
    planted-heavy-hitter recall are pinned by tests/test_sketch.py."""
    docs = read_table(sf_dir, "documents", columns=["text"])
    return mg_summary(docs)


def mg_summary(docs) -> pd.DataFrame:
    """Distributed Misra-Gries over a documents Dataset -> (tok, est,
    err_bound) summary frame (shared by q_sketch_top_tokens and the
    planted-heavy-hitter gate)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = df["text"].str.lower().str.split(" ").explode().dropna().value_counts()
        kept, offset = mg_compress(vc)
        out = pd.DataFrame({"tok": kept.index.astype(str),
                            "cnt": kept.to_numpy(np.int64)})
        # any key's undercount in this batch is <= offset (dropped keys had
        # count <= offset); the offset travels with the summary (null token)
        if offset:
            out = pd.concat(
                [out, pd.DataFrame({"tok": [None], "cnt": [np.int64(offset)]})],
                ignore_index=True,
            )
        return out

    parts = docs.map_batches(partial, batch_format="pandas").to_pandas()
    err = int(parts.loc[parts["tok"].isna(), "cnt"].sum())
    merged = parts.dropna(subset=["tok"]).groupby("tok")["cnt"].sum()
    kept, offset = mg_compress(merged)
    kept = kept.sort_values(ascending=False)
    out = pd.DataFrame({"tok": kept.index.astype(str), "est": kept.to_numpy(np.int64)})
    out = out.sort_values(["est", "tok"], ascending=[False, True],
                          kind="mergesort").reset_index(drop=True)
    out["err_bound"] = np.int64(err + offset)
    return out


QUERIES["sketch_top_tokens"] = q_sketch_top_tokens  # rows-only (approximate)


# ---------------------------------------------------------------------------
# Misra-Gries planted-invariant gate (r04 verdict #3): the corpus vocab is
# near-uniform (no natural heavy hitter), so the gate PLANTS one — a
# synthetic document repeating one out-of-vocab token P times, P sized so
# it crosses the MG survival threshold on the unioned stream:
#   P > 2*(N0+P)/(MG_K+1)  <=>  P > 2*N0/(MG_K-1)  =>  P = (2*N0)//23 + 1
# (total MG undercount <= 2*N_total/(MG_K+1): one batch-compression pass
# plus one driver re-compression). The MG contract then guarantees the
# planted token SURVIVES with est <= P <= est + err_bound. The engine
# verifies all three conditions against its own summary and emits ONE row
# (tok, cnt=P, in_summary) — P is pure integer arithmetic on the corpus
# token count, so the DuckDB oracle states the identical row exactly.
# ---------------------------------------------------------------------------
MG_PLANT_TOK = "zzplanted"


def q_sketch_mg_heavy(sf_dir: str):
    docs = read_table(sf_dir, "documents", columns=["text"])

    def count_part(df: pd.DataFrame) -> pd.DataFrame:
        n = df["text"].str.lower().str.split(" ").explode().dropna().size
        return pd.DataFrame({"n": [np.int64(n)]})

    n0 = docs.map_batches(count_part, batch_format="pandas").sum("n")
    n0 = int(n0 or 0)
    p = (2 * n0) // (MG_K - 1) + 1
    planted = ray.data.from_pandas(
        pd.DataFrame({"text": [" ".join([MG_PLANT_TOK] * p)]}))
    summary = mg_summary(docs.union(planted))
    row = summary[summary["tok"] == MG_PLANT_TOK]
    ok = bool(
        len(row) == 1
        and int(row["est"].iloc[0]) <= p
        and p <= int(row["est"].iloc[0]) + int(row["err_bound"].iloc[0]))
    return pd.DataFrame({"tok": [MG_PLANT_TOK],
                         "cnt": np.asarray([p], dtype=np.int64),
                         "in_summary": [ok]})


SQL_SKETCH_MG_HEAVY = f"""
WITH ws AS (
  SELECT unnest(string_split(lower(text), ' ')) AS tok FROM documents
)
SELECT '{MG_PLANT_TOK}' AS tok,
       CAST((2 * COUNT(*)) // {MG_K - 1} + 1 AS BIGINT) AS cnt,
       TRUE AS in_summary
FROM ws
"""

QUERIES["sketch_mg_heavy"] = q_sketch_mg_heavy
ORACLES["sketch_mg_heavy"] = SQL_SKETCH_MG_HEAVY


# ---------------------------------------------------------------------------
# Unigram language-model commonness scoring — the "how boilerplate is this
# document" signal a pretraining curation pipeline thresholds on. The gated
# columns are ALL-INTEGER corpus term-frequency statistics (sum / min of
# each doc's token TFs, hapax count), following the tfidf_terms precedent:
# the float mean-logprob variant of this score is ln()-dependent and libm
# implementations differ by ~ulps between engines (measured: numpy vs
# DuckDB ln disagree at 1e-15), so the exact gate stays on the integers
# and a downstream mean_tf = sum_tf / n_tokens is one exact IEEE division
# away for consumers.
#
# Shape: full corpus unigram counts via per-batch partial value_counts ->
# one token shuffle -> bounded driver collect (vocab, not corpus, sized),
# broadcast ONCE via ray.put; the probe is a shuffle-free map_batches with
# a C-path merge. At 100 TB vocab the broadcast is replaced by keeping the
# counts hash-partitioned and turning the probe into a token-keyed shuffle
# join of (doc_id, tok) pairs — same partials, one more exchange.
# ---------------------------------------------------------------------------
def _corpus_token_counts(sf_dir: str) -> pd.DataFrame:
    """Exact full-vocab token counts (null text ≡ '' — one empty token)."""
    docs = read_table(sf_dir, "documents", columns=["text"], override_num_blocks=8)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = df["text"].fillna("").str.lower().str.split(" ").explode().value_counts()
        return pd.DataFrame({"tok": vc.index.astype(str), "cnt": vc.to_numpy(dtype=np.int64)})

    def bucket_sum(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("tok", as_index=False)["cnt"].sum()

    from nfl_feature_store_ray.stages.bucketize import map_conv_buckets

    parts = docs.map_batches(partial, batch_format="pandas")
    return map_conv_buckets(parts, bucket_sum, key="tok", sort_cols=["tok"],
                            num_buckets=16).to_pandas()


def q_lm_commonness(sf_dir: str):
    import ray as _ray

    counts = _corpus_token_counts(sf_dir)
    counts_ref = _ray.put(pd.Series(counts["cnt"].to_numpy(), index=counts["tok"]))
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"],
                      override_num_blocks=8)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        tf = _cached_set_get(counts_ref)
        df = df.reset_index(drop=True)
        tok = df["text"].fillna("").str.lower().str.split(" ").explode()
        tfs = tok.map(tf).astype("int64")
        grp = tfs.groupby(level=0)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_tokens": grp.size().reindex(df.index, fill_value=0).astype("int64"),
                "sum_tf": grp.sum().reindex(df.index, fill_value=0).astype("int64"),
                "min_tf": grp.min().reindex(df.index).astype("int64"),
                "n_hapax": (tfs == 1).groupby(level=0).sum()
                .reindex(df.index, fill_value=0).astype("int64"),
            }
        )

    return docs.map_batches(score, batch_format="pandas")


SQL_LM_COMMONNESS = """
WITH cnts AS (
  SELECT tok, COUNT(*) AS tf
  FROM (SELECT unnest(string_split(lower(coalesce(text, '')), ' ')) AS tok
        FROM documents) u
  GROUP BY tok
),
d AS (
  SELECT doc_id, unnest(string_split(lower(coalesce(text, '')), ' ')) AS tok
  FROM documents
)
SELECT d.doc_id, COUNT(*) AS n_tokens,
       CAST(SUM(c.tf) AS BIGINT) AS sum_tf,
       CAST(MIN(c.tf) AS BIGINT) AS min_tf,
       CAST(SUM(CASE WHEN c.tf = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_hapax
FROM d JOIN cnts c ON d.tok = c.tok
GROUP BY d.doc_id
"""

QUERIES["lm_commonness"] = q_lm_commonness
ORACLES["lm_commonness"] = SQL_LM_COMMONNESS


# ---------------------------------------------------------------------------
# PII redaction — the standard pretraining-curation scrub pass: emails and
# phone-number-shaped digit runs replaced with typed placeholder tokens,
# per-doc match counts for audit. Engine runs pyarrow's RE2 kernels
# (replace_substring_regex / count_substring_regex — C, shuffle-free,
# zero-copy in); DuckDB's regexp_replace/regexp_extract_all is also RE2,
# so redacted text is byte-identical on both sides (probed before gating,
# incl. unicode neighbors). Patterns are deliberately conservative
# (precision over recall) and pinned as module constants.
# ---------------------------------------------------------------------------
PII_EMAIL = "[a-zA-Z0-9._%+-]+@[a-zA-Z0-9.-]+\\.[a-zA-Z]{2,}"
PII_PHONE = "\\+?[0-9][0-9 .-]{7,}[0-9]"


def q_redact_pii(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"],
                      override_num_blocks=8)

    def redact(batch: pa.Table) -> pa.Table:
        text = pc.coalesce(batch["text"], pa.scalar(""))
        n_email = pc.count_substring_regex(text, pattern=PII_EMAIL)
        red = pc.replace_substring_regex(text, pattern=PII_EMAIL, replacement="<EMAIL>")
        n_phone = pc.count_substring_regex(red, pattern=PII_PHONE)
        red = pc.replace_substring_regex(red, pattern=PII_PHONE, replacement="<PHONE>")
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "redacted": red,
                "n_email": pc.cast(n_email, pa.int64()),
                "n_phone": pc.cast(n_phone, pa.int64()),
            }
        )

    return docs.map_batches(redact, batch_format="pyarrow")


SQL_REDACT_PII = f"""
WITH s AS (
  SELECT doc_id,
         regexp_replace(coalesce(text, ''), '{PII_EMAIL}', '<EMAIL>', 'g') AS r1,
         length(regexp_extract_all(coalesce(text, ''), '{PII_EMAIL}')) AS n_email
  FROM documents
)
SELECT doc_id,
       regexp_replace(r1, '{PII_PHONE}', '<PHONE>', 'g') AS redacted,
       CAST(n_email AS BIGINT) AS n_email,
       CAST(length(regexp_extract_all(r1, '{PII_PHONE}')) AS BIGINT) AS n_phone
FROM s
"""

QUERIES["redact_pii"] = q_redact_pii
ORACLES["redact_pii"] = SQL_REDACT_PII


# ---------------------------------------------------------------------------
# document chunking with overlap — the context-window preparation op every
# LLM training pipeline runs before tokenization: split each document into
# fixed-token windows (CHUNK_W) advancing by CHUNK_STRIDE (< CHUNK_W ->
# overlapping chunks). Pure fan-out: one map_batches, NO shuffle — each
# chunk row is a pure function of its source row, so the stage streams and
# scales linearly with the corpus. Reference analogue: the window fan-out of
# §2.6 applied to token position instead of time (no direct reference op;
# added per the training-data mandate).
# ---------------------------------------------------------------------------
CHUNK_W = 32
CHUNK_STRIDE = 24


def q_chunk_docs(sf_dir: str):
    """Token-window chunks per document: chunk k covers tokens
    [k*STRIDE, k*STRIDE + W) for k in 0..(n_tokens-1)//STRIDE (every chunk
    starts strictly inside the document; the last chunk may be short).
    NULL-text docs emit no chunks (the oracle's lateral range over a NULL
    bound is empty); empty text splits to the single token '' — one chunk —
    matching the string_split('','') convention pinned in text_stats.

    Vectorized: polars replicates each DOC row once per chunk via
    int_ranges+explode, then list.slice/list.join build chunk texts natively
    — no token-level explode, no per-row Python."""
    import polars as pl

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def chunks(df: pd.DataFrame) -> pd.DataFrame:
        d = pl.from_pandas(df).drop_nulls("text")
        if d.height == 0:
            return pd.DataFrame(
                {"doc_id": pd.Series([], dtype="int64"),
                 "chunk_id": pd.Series([], dtype="int64"),
                 "chunk_text": pd.Series([], dtype=object),
                 "n_chunk_tokens": pd.Series([], dtype="int64")}
            )
        out = (
            d.with_columns(w=pl.col("text").str.split(" "))
            .with_columns(n=pl.col("w").list.len().cast(pl.Int64))
            .with_columns(
                chunk_id=pl.int_ranges(0, (pl.col("n") - 1) // CHUNK_STRIDE + 1)
            )
            .explode("chunk_id")
            .with_columns(off=pl.col("chunk_id") * CHUNK_STRIDE)
            .select(
                "doc_id",
                "chunk_id",
                chunk_text=pl.col("w").list.slice(pl.col("off"), CHUNK_W).list.join(" "),
                n_chunk_tokens=pl.min_horizontal(
                    pl.lit(CHUNK_W, dtype=pl.Int64), pl.col("n") - pl.col("off")
                ),
            )
        )
        return out.to_pandas()

    return docs.map_batches(chunks, batch_format="pandas")


SQL_CHUNK_DOCS = f"""
WITH ws AS (
  SELECT doc_id, string_split(text, ' ') AS w, len(string_split(text, ' ')) AS n
  FROM documents WHERE text IS NOT NULL
),
kk AS (
  SELECT doc_id, w, n,
         unnest(range(0, (n - 1) // {CHUNK_STRIDE} + 1)) AS k
  FROM ws
)
SELECT doc_id, CAST(k AS BIGINT) AS chunk_id,
       array_to_string(w[CAST(k * {CHUNK_STRIDE} + 1 AS BIGINT)
                         : CAST(LEAST(k * {CHUNK_STRIDE} + {CHUNK_W}, n) AS BIGINT)],
                       ' ') AS chunk_text,
       CAST(LEAST({CHUNK_W}, n - k * {CHUNK_STRIDE}) AS BIGINT) AS n_chunk_tokens
FROM kk
"""

QUERIES["chunk_docs"] = q_chunk_docs
ORACLES["chunk_docs"] = SQL_CHUNK_DOCS


# ---------------------------------------------------------------------------
# higher-moment aggregates: population skewness / excess kurtosis of the
# per-document token count, per (lang, source) stratum — the corpus
# length-distribution shape check (is a source's length profile symmetric
# or heavy-tailed?). Extends the exact-moments family (agg_variance /
# w_zscore_day) to 3rd/4th moments: per-batch partial power sums in int64
# with an automatic Python-int (object) fallback whenever the batch's
# longest document could wrap c^4 (a single ~55k-token doc already
# exceeds int64), then a BOUNDED driver merge in PYTHON INTS (arbitrary
# precision: S1^4 at corpus scale exceeds int64; DuckDB's HUGEINT is the
# oracle-side counterpart). Central-moment numerators are exact integers:
#   A = n*S2 - S1^2            (= n^2 * Var_pop)
#   B = n^2*S3 - 3n*S1*S2 + 2*S1^3      (= n^3 * M3)
#   C = n^3*S4 - 4n^2*S1*S3 + 6n*S1^2*S2 - 3*S1^4   (= n^4 * M4)
# so the only float ops are the final divisions/sqrt, mirrored op-for-op
# in the SQL (pow() is NOT correctly rounded across libms -> var*sqrt(var)
# instead of pow(var, 1.5)).
# ---------------------------------------------------------------------------
def q_skew_tokens(sf_dir: str):
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang", "source"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        t = df["text"].fillna("")
        c = np.where(
            t.str.len().to_numpy() > 0, t.str.count(" ").to_numpy() + 1, 0
        ).astype(np.int64)
        # int64 power sums wrap silently once len(batch) * cmax^4 nears
        # 2^63 (a single ~55k-token document already overflows c^4):
        # switch the whole batch to Python-int (object) sums — exact at
        # any document length, and only paid when long docs are present
        cmax = int(c.max()) if len(c) else 0
        if cmax and max(len(c), 1) * cmax**4 > 2**62:
            co = c.astype(object)
            cols = {"s1": co, "s2": co * co, "s3": co**3, "s4": co**4}
        else:
            cols = {"s1": c, "s2": c * c, "s3": c**3, "s4": c**4}
        d = pd.DataFrame(
            {"lang": df["lang"], "source": df["source"], "n": np.int64(1), **cols}
        )
        # dropna=False: SQL GROUP BY keeps NULL lang/source strata
        return d.groupby(["lang", "source"], as_index=False, dropna=False).sum()

    parts = docs.map_batches(partial, batch_format="pandas").to_pandas()
    # bounded driver merge (one row per stratum): object dtype -> Python
    # ints, so S1^4-scale numerators never overflow at any corpus size
    for col in ("n", "s1", "s2", "s3", "s4"):
        parts[col] = parts[col].astype(object)
    g = parts.groupby(["lang", "source"], as_index=False, dropna=False).sum()

    rows = []
    for r in g.itertuples(index=False):
        n, s1, s2, s3, s4 = int(r.n), int(r.s1), int(r.s2), int(r.s3), int(r.s4)
        a = n * s2 - s1 * s1
        b = n * n * s3 - 3 * n * s1 * s2 + 2 * s1**3
        cm = n**3 * s4 - 4 * n * n * s1 * s3 + 6 * n * s1 * s1 * s2 - 3 * s1**4
        nf = float(n)
        mean = float(s1) / nf
        var = float(a) / (nf * nf)
        if a > 0:
            sd = np.sqrt(var)
            skew = (float(b) / (nf * nf * nf)) / (var * sd)
            kurt = (float(cm) / (nf * nf * nf * nf)) / (var * var) - 3.0
        else:
            skew = kurt = np.nan
        rows.append((r.lang if pd.notna(r.lang) else None,
                     r.source if pd.notna(r.source) else None,
                     n, mean, var, skew, kurt))
    out = pd.DataFrame(
        rows, columns=["lang", "source", "n_docs", "mean_tokens", "var_tokens",
                       "skew_tokens", "kurt_tokens"]
    )
    out["n_docs"] = out["n_docs"].astype("int64")
    for col in ("mean_tokens", "var_tokens", "skew_tokens", "kurt_tokens"):
        out[col] = round_half_away(out[col].astype("float64"), 6)
    return out


SQL_SKEW_TOKENS = """
WITH ws AS (
  SELECT lang, source,
         CASE WHEN length(coalesce(text, '')) > 0
              THEN length(text) - length(replace(text, ' ', '')) + 1
              ELSE 0 END AS c
  FROM documents
),
a AS (
  SELECT lang, source, COUNT(*) AS n,
         SUM(CAST(c AS HUGEINT)) AS s1,
         SUM(CAST(c AS HUGEINT) * c) AS s2,
         SUM(CAST(c AS HUGEINT) * c * c) AS s3,
         SUM(CAST(c AS HUGEINT) * c * c * c) AS s4
  FROM ws GROUP BY 1, 2
),
m AS (
  SELECT lang, source, n, s1,
         n * s2 - s1 * s1 AS am,
         n * n * s3 - 3 * n * s1 * s2 + 2 * s1 * s1 * s1 AS bm,
         n * n * n * s4 - 4 * n * n * s1 * s3 + 6 * n * s1 * s1 * s2
           - 3 * s1 * s1 * s1 * s1 AS cm,
         CAST(n AS DOUBLE) AS nf,
         CAST(n * s2 - s1 * s1 AS DOUBLE)
           / (CAST(n AS DOUBLE) * CAST(n AS DOUBLE)) AS var
  FROM a
)
SELECT lang, source, CAST(n AS BIGINT) AS n_docs,
       ROUND(CAST(s1 AS DOUBLE) / nf, 6) AS mean_tokens,
       ROUND(var, 6) AS var_tokens,
       ROUND(CASE WHEN am > 0 THEN
         (CAST(bm AS DOUBLE) / (nf * nf * nf)) / (var * sqrt(var))
       END, 6) AS skew_tokens,
       ROUND(CASE WHEN am > 0 THEN
         (CAST(cm AS DOUBLE) / (nf * nf * nf * nf)) / (var * var) - 3.0
       END, 6) AS kurt_tokens
FROM m
"""

QUERIES["skew_tokens"] = q_skew_tokens
ORACLES["skew_tokens"] = SQL_SKEW_TOKENS


# ---------------------------------------------------------------------------
# Count-Min sketch — the fourth mergeable summary next to HLL (distinct),
# DDSketch (quantiles) and Misra-Gries (heavy hitters): fixed D x W counter
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
        # null-token row carries the batch's total token count (the N of
        # the bound) — same trick as the MG offset row
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


# ---------------------------------------------------------------------------
# token co-occurrence counts — the embedding-prep statistic (word2vec /
# GloVe-style corpus preprocessing): document-level co-occurrence counts
# for the corpus top-COOC_K vocabulary. The vocabulary is the distributed
# heavy-hitter pass broadcast once (like oov_rate); each batch emits
# bounded (t1 < t2) pair-count partials (<= K^2 rows per batch); the
# driver merge is O(K^2). Counting is document-level DISTINCT presence —
# the standard binary co-occurrence variant, all-integer -> hash-exact.
# (The float PMI consumers derive from these counts is ln()-dependent and
# libm-divergent across engines, so the gate stays on the raw integers —
# same precedent as lm_commonness/tfidf_terms.)
# ---------------------------------------------------------------------------
COOC_K = 12


def q_cooccurrence(sf_dir: str):
    import ray as _ray

    vocab_ref = _ray.put(frozenset(top_tokens_df(sf_dir, COOC_K)["tok"]))
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        vocab = _cached_set_get(vocab_ref)
        df = df.reset_index(drop=True)
        tok = df["text"].fillna("").str.lower().str.split(" ").explode()
        tok = tok[tok.isin(vocab)]
        d = tok.reset_index()
        d.columns = ["doc", "tok"]
        d = d.drop_duplicates()
        p = d.merge(d, on="doc")
        p = p[p["tok_x"] < p["tok_y"]]
        return p.groupby(["tok_x", "tok_y"], as_index=False).agg(n=("doc", "size"))

    parts = docs.map_batches(pairs, batch_format="pandas").to_pandas()
    out = parts.groupby(["tok_x", "tok_y"], as_index=False)["n"].sum()
    out.columns = ["t1", "t2", "n_docs"]
    out["n_docs"] = out["n_docs"].astype("int64")
    return out


SQL_COOCCURRENCE = f"""
WITH v AS (
  SELECT tok
  FROM (SELECT unnest(string_split(lower(text), ' ')) AS tok FROM documents) u
  GROUP BY tok ORDER BY COUNT(*) DESC, tok ASC LIMIT {COOC_K}
),
d AS (
  SELECT DISTINCT doc_id,
         unnest(string_split(lower(coalesce(text, '')), ' ')) AS tok
  FROM documents
),
f AS (SELECT d.doc_id, d.tok FROM d JOIN v ON d.tok = v.tok)
SELECT a.tok AS t1, b.tok AS t2, COUNT(*) AS n_docs
FROM f a JOIN f b ON a.doc_id = b.doc_id AND a.tok < b.tok
GROUP BY 1, 2
"""

QUERIES["cooccurrence"] = q_cooccurrence
ORACLES["cooccurrence"] = SQL_COOCCURRENCE


# ---------------------------------------------------------------------------
# Cross-source vocabulary overlap: pairwise Jaccard similarity between the
# DISTINCT-token vocabularies of every pair of document sources — the
# corpus-mixing diagnostic used when blending web-scale training sources
# (how much does source A's vocabulary overlap source B's?). Scale shape:
# set similarity WITHOUT a cross join — per-batch distinct (source, token)
# partials, ONE token-keyed shuffle, and a per-bucket inverted-index
# self-merge (each token contributes |sources-containing-it|^2 <= |S|^2
# pair rows, never |V_a| x |V_b|); per-source sizes and pair intersections
# ride the same shuffle, and the driver merge is O(|S|^2) rows. Zero-
# intersection pairs are emitted too (from the size rows), so the output
# is the full pair lattice. NULL text ≡ '' (one empty-string token), the
# token_counts convention.
# ---------------------------------------------------------------------------
def q_vocab_overlap(sf_dir: str) -> pd.DataFrame:
    from nfl_feature_store_ray.stages.bucketize import map_conv_buckets

    docs = read_table(sf_dir, "documents", columns=["source", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.reset_index(drop=True)
        tok = df["text"].fillna("").str.lower().str.split(" ").explode()
        return pd.DataFrame(
            {"source": df["source"].to_numpy()[tok.index.to_numpy(np.int64)],
             "tok": tok.to_numpy()}
        ).drop_duplicates()

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["source", "tok"])
        sizes = d.groupby("source", as_index=False).agg(cnt=("tok", "size"))
        p = d.merge(d, on="tok")
        p = p[p["source_x"] < p["source_y"]]
        inter = p.groupby(["source_x", "source_y"], as_index=False).agg(
            cnt=("tok", "size")
        )
        return pd.concat(
            [
                pd.DataFrame({"sa": sizes["source"], "sb": sizes["source"],
                              "cnt": sizes["cnt"]}),
                pd.DataFrame({"sa": inter["source_x"], "sb": inter["source_y"],
                              "cnt": inter["cnt"]}),
            ],
            ignore_index=True,
        )

    parts = docs.map_batches(partial, batch_format="pandas")
    per_bucket = map_conv_buckets(parts, bucket_pairs, key="tok",
                                  sort_cols=["tok"], num_buckets=16)
    m = per_bucket.to_pandas().groupby(["sa", "sb"], as_index=False)["cnt"].sum()
    sizes = {r.sa: int(r.cnt) for r in m[m["sa"] == m["sb"]].itertuples()}
    inter = {(r.sa, r.sb): int(r.cnt) for r in m[m["sa"] != m["sb"]].itertuples()}
    rows = []
    srcs = sorted(sizes)
    for i, a in enumerate(srcs):  # |S|^2 driver rows — sources are a handful
        for b in srcs[i + 1:]:
            iv = inter.get((a, b), 0)
            un = sizes[a] + sizes[b] - iv
            rows.append(
                {"source_a": a, "source_b": b, "inter_size": iv, "union_size": un,
                 "jaccard": round_half_away(np.float64(iv * 1.0 / un), 6)}
            )
    out = pd.DataFrame(
        rows,
        columns=["source_a", "source_b", "inter_size", "union_size", "jaccard"],
    )  # explicit columns: a single-source corpus yields ZERO pairs and a
    # bare DataFrame([]) would lose the schema the oracle compare needs
    out["inter_size"] = out["inter_size"].astype("int64")
    out["union_size"] = out["union_size"].astype("int64")
    return out


SQL_VOCAB_OVERLAP = """
WITH e AS (
  SELECT source, unnest(string_split(lower(coalesce(text, '')), ' ')) AS tok
  FROM documents
),
v AS (SELECT DISTINCT source, tok FROM e),
sz AS (SELECT source, COUNT(*) AS n FROM v GROUP BY source),
pr AS (SELECT a.source AS source_a, b.source AS source_b
       FROM sz a JOIN sz b ON a.source < b.source),
io AS (
  SELECT a.source AS source_a, b.source AS source_b, COUNT(*) AS inter_size
  FROM v a JOIN v b ON a.tok = b.tok AND a.source < b.source
  GROUP BY 1, 2
)
SELECT pr.source_a, pr.source_b,
       CAST(COALESCE(io.inter_size, 0) AS BIGINT) AS inter_size,
       CAST(za.n + zb.n - COALESCE(io.inter_size, 0) AS BIGINT) AS union_size,
       ROUND(COALESCE(io.inter_size, 0) * 1.0
             / (za.n + zb.n - COALESCE(io.inter_size, 0)), 6) AS jaccard
FROM pr
LEFT JOIN io ON io.source_a = pr.source_a AND io.source_b = pr.source_b
JOIN sz za ON za.source = pr.source_a
JOIN sz zb ON zb.source = pr.source_b
"""

QUERIES["vocab_overlap"] = q_vocab_overlap
ORACLES["vocab_overlap"] = SQL_VOCAB_OVERLAP


# ---------------------------------------------------------------------------
# Corpus-wide top-K BIGRAMS: the phrase-level heavy hitters (collocation
# mining / tokenizer-merge candidates — the statistic BPE merge steps rank
# on). Same distributed shape as top_tokens — per-batch partial counts,
# one bigram-keyed shuffle, per-bucket top-K, tiny driver merge — but the
# key stream is built by a vectorized adjacent-pair zip inside each batch
# (explode once, shift once, mask document boundaries; no per-doc Python).
# Single-token documents contribute nothing; ties pinned (cnt DESC,
# bigram ASC) on both sides.
# ---------------------------------------------------------------------------
TOP_BIGRAMS_K = 20


def q_top_bigrams(sf_dir: str) -> pd.DataFrame:
    from nfl_feature_store_ray.stages.bucketize import map_conv_buckets

    docs = read_table(sf_dir, "documents", columns=["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        tok = df["text"].fillna("").str.lower().str.split(" ").explode()
        w = tok.to_numpy(dtype=object)
        d = tok.index.to_numpy(np.int64)
        if len(w) < 2:
            return pd.DataFrame({"bg": pd.Series([], dtype=object),
                                 "cnt": pd.Series([], dtype=np.int64)})
        same = d[:-1] == d[1:]  # adjacent tokens from the SAME document
        bg = pd.Series(w[:-1][same]).str.cat(pd.Series(w[1:][same]), sep=" ")
        vc = bg.value_counts()
        return pd.DataFrame({"bg": vc.index.astype(str),
                             "cnt": vc.to_numpy(dtype=np.int64)})

    def bucket_topk(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("bg", as_index=False)["cnt"].sum()
        s = s.sort_values(["cnt", "bg"], ascending=[False, True], kind="mergesort")
        return s.head(TOP_BIGRAMS_K)

    parts = docs.map_batches(partial, batch_format="pandas")
    per_bucket = map_conv_buckets(parts, bucket_topk, key="bg",
                                  sort_cols=["bg"], num_buckets=16)
    merged = per_bucket.to_pandas()
    merged = merged.sort_values(["cnt", "bg"], ascending=[False, True], kind="mergesort")
    out = merged.head(TOP_BIGRAMS_K).reset_index(drop=True)
    out.columns = ["bigram", "cnt"]
    out["cnt"] = out["cnt"].astype("int64")
    return out


SQL_TOP_BIGRAMS = f"""
WITH e AS (
  SELECT string_split(lower(coalesce(text, '')), ' ') AS l FROM documents
),
b AS (
  SELECT unnest(l[1:len(l)-1]) AS w1, unnest(l[2:len(l)]) AS w2
  FROM e WHERE len(l) >= 2
)
SELECT w1 || ' ' || w2 AS bigram, COUNT(*) AS cnt
FROM b GROUP BY 1
ORDER BY cnt DESC, bigram ASC LIMIT {TOP_BIGRAMS_K}
"""

QUERIES["top_bigrams"] = q_top_bigrams
ORACLES["top_bigrams"] = SQL_TOP_BIGRAMS


# ---------------------------------------------------------------------------
# Inverted-index build (posting lists): token -> ordered list of the
# documents containing it — the search-index artifact. The gated query
# keeps the PL_K most SELECTIVE terms (lowest document frequency, ties by
# token — real indexes exclude stop-words for exactly the
# posting-explosion reason; a rank rule is portable across corpus sizes
# where an absolute df band is not). Scale shape: per-batch DISTINCT
# (token, doc) partials, ONE token-keyed shuffle, per-token ordered join
# inside the bucket in polars (group_by + sorted str.join — no Python
# loop), tiny driver bottom-K merge. The byte-identical postings string
# makes ordering + completeness hash-checkable.
# ---------------------------------------------------------------------------
PL_K = 20


def q_posting_lists(sf_dir: str) -> pd.DataFrame:
    from nfl_feature_store_ray.stages.bucketize import map_conv_buckets

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.reset_index(drop=True)
        tok = df["text"].fillna("").str.lower().str.split(" ").explode()
        return pd.DataFrame(
            {"tok": tok.to_numpy(),
             "doc_id": df["doc_id"].to_numpy()[tok.index.to_numpy(np.int64)]}
        ).drop_duplicates()

    def bucket_index(g: pd.DataFrame) -> pd.DataFrame:
        import polars as pl

        out = (
            pl.from_pandas(g.drop_duplicates(["tok", "doc_id"]))
            .group_by("tok")
            .agg(
                df=pl.col("doc_id").n_unique().cast(pl.Int64),
                postings=pl.col("doc_id").sort().cast(pl.String).str.join(","),
            )
            .sort(["df", "tok"])
            .head(PL_K)  # per-bucket partial bottom-K
        )
        return out.to_pandas()

    parts = docs.map_batches(partial, batch_format="pandas")
    per_bucket = map_conv_buckets(parts, bucket_index, key="tok",
                                  sort_cols=["tok", "doc_id"], num_buckets=16)
    m = per_bucket.to_pandas()
    if m.empty:  # zero-block Dataset loses columns; rebuild the schema
        m = pd.DataFrame({"tok": pd.Series([], dtype=object),
                          "df": pd.Series([], dtype="int64"),
                          "postings": pd.Series([], dtype=object)})
    m = m.sort_values(["df", "tok"], kind="mergesort").head(PL_K)
    m["df"] = m["df"].astype("int64")
    return m.reset_index(drop=True)


SQL_POSTING_LISTS = f"""
WITH d AS (
  SELECT DISTINCT doc_id,
         unnest(string_split(lower(coalesce(text, '')), ' ')) AS tok
  FROM documents
)
SELECT tok, COUNT(*) AS df,
       string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id) AS postings
FROM d GROUP BY tok
ORDER BY df ASC, tok ASC LIMIT {PL_K}
"""

QUERIES["posting_lists"] = q_posting_lists
ORACLES["posting_lists"] = SQL_POSTING_LISTS


# ---------------------------------------------------------------------------
# Typo-correctability profile (SymSpell-style): per document, how many
# token occurrences are OOV vs the top-TYPO_VOCAB_K vocabulary but within
# edit distance 1 of a vocabulary word — the spelling-noise QC signal
# (high n_correctable/n_oov = noisy-but-salvageable text; low = genuinely
# novel vocabulary). Scale shape: the vocabulary is the distributed
# heavy-hitter pass broadcast ONCE with its deletion-1 neighborhood index
# (the SymSpell trick: d(t,w)<=1 implies the variant sets {x}∪del1(x)
# intersect, so candidate generation is a hash join over O(len) variants
# per token, never O(|V|) distances); candidates are then VERIFIED with
# DuckDB's own levenshtein as an in-worker vectorized kernel — the SAME
# (byte-based) distance function the oracle evaluates, so multibyte text
# scores identically by construction. The probe is a shuffle-free map.
# ---------------------------------------------------------------------------
TYPO_VOCAB_K = 100


def _del1_variants(word: str) -> list[str]:
    return [word] + [word[:i] + word[i + 1:] for i in range(len(word))]


def q_typo_stats(sf_dir: str):
    import ray as _ray

    vocab = sorted(top_tokens_df(sf_dir, TYPO_VOCAB_K)["tok"])
    index: dict[str, list[str]] = {}
    for w in vocab:  # O(|V| * len) once on the driver, broadcast below
        for v in _del1_variants(w):
            index.setdefault(v, []).append(w)
    max_len = max((len(w) for w in vocab), default=0) + 1
    bundle_ref = _ray.put((frozenset(vocab), index, max_len))

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def profile(df: pd.DataFrame) -> pd.DataFrame:
        import duckdb as _duck

        vocab_set, idx, mlen = _cached_set_get(bundle_ref)
        df = df.reset_index(drop=True)
        tok = df["text"].fillna("").str.lower().str.split(" ").explode()
        n_tokens = tok.groupby(level=0).size().reindex(df.index, fill_value=0)
        oov = ~tok.isin(vocab_set)
        n_oov = oov.groupby(level=0).sum().reindex(df.index, fill_value=0)

        # candidate generation: unique OOV tokens -> deletion-1 variants ->
        # hash-join against the vocabulary's variant index
        uniq = pd.Series(sorted(set(tok[oov].to_numpy())), dtype=object)
        uniq = uniq[uniq.str.len() <= mlen].reset_index(drop=True)
        cand_t, cand_w = [], []
        ulen_max = int(uniq.str.len().max()) if len(uniq) else 0
        for i in range(ulen_max + 1):
            var = (uniq.str[:i] + uniq.str[i + 1:]) if i < mlen else uniq
            hits = var.map(idx)
            for t, ws in zip(uniq[hits.notna()], hits.dropna()):
                cand_t.extend([t] * len(ws))
                cand_w.extend(ws)
        hits0 = uniq.map(idx)  # the token itself as a variant (ins case)
        for t, ws in zip(uniq[hits0.notna()], hits0.dropna()):
            cand_t.extend([t] * len(ws))
            cand_w.extend(ws)
        correctable: set = set()
        if cand_t:
            pairs = pd.DataFrame({"t": cand_t, "w": cand_w}).drop_duplicates()
            con = _duck.connect()
            con.register("pairs", pairs)
            # vectorized verify with the oracle's own distance kernel
            ok = con.execute(
                "SELECT DISTINCT t FROM pairs WHERE levenshtein(t, w) <= 1"
            ).df()
            con.close()
            correctable = set(ok["t"])
        n_corr = (oov & tok.isin(correctable)).groupby(level=0).sum().reindex(
            df.index, fill_value=0
        )
        return pd.DataFrame(
            {"doc_id": df["doc_id"],
             "n_tokens": n_tokens.astype("int64"),
             "n_oov": n_oov.astype("int64"),
             "n_correctable": n_corr.astype("int64")}
        )

    return docs.map_batches(profile, batch_format="pandas")


SQL_TYPO_STATS = f"""
WITH v AS (
  SELECT tok
  FROM (SELECT unnest(string_split(lower(text), ' ')) AS tok FROM documents) u
  GROUP BY tok ORDER BY COUNT(*) DESC, tok ASC LIMIT {TYPO_VOCAB_K}
),
d AS (
  SELECT doc_id, unnest(string_split(lower(coalesce(text, '')), ' ')) AS tok
  FROM documents
),
f AS (
  SELECT d.doc_id, d.tok, v.tok IS NOT NULL AS in_v
  FROM d LEFT JOIN v ON d.tok = v.tok
)
SELECT doc_id, COUNT(*) AS n_tokens,
       CAST(SUM(CASE WHEN in_v THEN 0 ELSE 1 END) AS BIGINT) AS n_oov,
       CAST(SUM(CASE WHEN NOT in_v AND EXISTS (
             SELECT 1 FROM v WHERE levenshtein(f.tok, v.tok) <= 1
           ) THEN 1 ELSE 0 END) AS BIGINT) AS n_correctable
FROM f GROUP BY doc_id
"""

QUERIES["typo_stats"] = q_typo_stats
ORACLES["typo_stats"] = SQL_TYPO_STATS


# ---------------------------------------------------------------------------
# Cross-source duplicate-text overlap matrix — "how much of source B is
# already in source A": the corpus-curation diagnostic run before merging
# crawls/dumps (high overlap -> dedup across sources before training).
# Scale shape: per-batch DISTINCT (text, source) pairs, ONE text-keyed
# shuffle co-locates all copies of a text, each bucket emits bounded
# per-pair/per-source partial counts (sources are a small fixed set), and
# a driver merge of O(sources^2) rows computes the Jaccard — the raw
# corpus never gathers anywhere.
# ---------------------------------------------------------------------------
def q_source_overlap(sf_dir: str) -> pd.DataFrame:
    from nfl_feature_store_ray.stages.bucketize import map_conv_buckets

    docs = read_table(sf_dir, "documents", columns=["text", "source"])

    def distinct_pairs(df: pd.DataFrame) -> pd.DataFrame:
        d = df.dropna(subset=["text"]).drop_duplicates(["text", "source"])
        return d[["text", "source"]]

    def bucket_counts(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["text", "source"])
        # NULL-source rows can never appear in the output: the oracle's
        # pair predicates (a.source < b.source) are NULL-false, so a NULL
        # source joins nothing — pandas' default dropna here matches the
        # SQL exactly (documented contract, ADVICE r04).
        # per-source distinct-text counts in this bucket
        ns = d.groupby("source", as_index=False).agg(n=("text", "size"))
        ns = ns.assign(kind="n", source_a=ns["source"], source_b=ns["source"])
        # shared-text counts per (a < b) source pair: self-merge per text
        m = d.merge(d, on="text")
        m = m[m["source_x"] < m["source_y"]]
        sh = m.groupby(["source_x", "source_y"], as_index=False).agg(
            n=("text", "size"))
        sh = sh.assign(kind="i", source_a=sh["source_x"], source_b=sh["source_y"])
        cols = ["kind", "source_a", "source_b", "n"]
        return pd.concat([ns[cols], sh[cols]], ignore_index=True)

    _empty = pd.DataFrame(
        {"source_a": pd.Series(dtype=object), "source_b": pd.Series(dtype=object),
         "n_shared": pd.Series(dtype="int64"), "jaccard": pd.Series(dtype="float64")}
    )
    parts = map_conv_buckets(
        docs.map_batches(distinct_pairs, batch_format="pandas"),
        bucket_counts, key="text", sort_cols=["text", "source"], num_buckets=16,
    ).to_pandas()
    if parts.empty:
        return _empty
    ns = (parts[parts["kind"] == "n"].groupby("source_a")["n"].sum())
    sh = (parts[parts["kind"] == "i"]
          .groupby(["source_a", "source_b"], as_index=False)["n"].sum())
    srcs = sorted(ns.index)
    rows = []
    for i, a in enumerate(srcs):
        for b in srcs[i + 1:]:
            inter = sh.loc[(sh["source_a"] == a) & (sh["source_b"] == b), "n"]
            inter = int(inter.iloc[0]) if len(inter) else 0
            union = int(ns[a]) + int(ns[b]) - inter
            rows.append({"source_a": a, "source_b": b, "n_shared": inter,
                         "jaccard": round_half_away(
                             np.float64(inter) / union, 6) if union else np.nan})
    if not rows:  # exactly one distinct source -> no pairs (oracle: empty)
        return _empty
    out = pd.DataFrame(rows)
    out["n_shared"] = out["n_shared"].astype("int64")
    return out


SQL_SOURCE_OVERLAP = """
WITH d AS (SELECT DISTINCT source, text FROM documents WHERE text IS NOT NULL),
n AS (SELECT source, COUNT(*) AS n FROM d GROUP BY source),
p AS (
  SELECT a.source AS source_a, b.source AS source_b, a.n AS na, b.n AS nb
  FROM n a JOIN n b ON a.source < b.source
),
i AS (
  SELECT a.source AS source_a, b.source AS source_b, COUNT(*) AS n_shared
  FROM d a JOIN d b ON a.text = b.text AND a.source < b.source
  GROUP BY 1, 2
)
SELECT p.source_a, p.source_b,
       CAST(COALESCE(i.n_shared, 0) AS BIGINT) AS n_shared,
       ROUND(CAST(COALESCE(i.n_shared, 0) AS DOUBLE)
             / (p.na + p.nb - COALESCE(i.n_shared, 0)), 6) AS jaccard
FROM p LEFT JOIN i USING (source_a, source_b)
"""

QUERIES["source_overlap"] = q_source_overlap
ORACLES["source_overlap"] = SQL_SOURCE_OVERLAP


# ---------------------------------------------------------------------------
# Temperature-rebalanced language sampling — the multilingual-corpus
# rebalancing step (upsample the tail, downsample the head; cf. the
# p^alpha schedule in public multilingual-LM recipes). alpha = 0.5 with
# an INTEGER-EXACT quota: quota(lang) = ceil(sqrt(n_lang) * C) — sqrt is
# IEEE correctly-rounded and *C is an exponent shift, so both engines get
# identical quotas; selection is the quota smallest doc_ids per lang
# (deterministic). Scale shape: bounded (lang, count) driver table ->
# broadcast quotas -> per-batch partial top-quota by doc_id -> tiny final
# merge; no full shuffle of the corpus.
# ---------------------------------------------------------------------------
TEMP_SAMPLE_C = 4


def q_sample_temperature(sf_dir: str) -> pd.DataFrame:
    # NULL lang is a real group in the SQL oracle (GROUP BY / PARTITION BY
    # keep a NULL group); a sentinel keeps it through the quota dict and
    # .map() lookups, restored to NULL at the end (ADVICE r04).
    _nullk = "\x00<null>"
    docs = read_table(sf_dir, "documents", columns=["doc_id", "lang"]).map_batches(
        lambda df: df.assign(lang=df["lang"].fillna(_nullk)),
        batch_format="pandas",
    )

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("lang", as_index=False).agg(n=("doc_id", "size"))

    parts = docs.map_batches(counts, batch_format="pandas").to_pandas()
    if parts.empty:
        return pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                             "lang": pd.Series(dtype=object)})
    n = parts.groupby("lang")["n"].sum()
    quota = {
        lg: int(np.ceil(np.sqrt(np.float64(c)) * TEMP_SAMPLE_C))
        for lg, c in n.items()
    }

    # per-batch partial top-quota (smallest doc_ids) per lang, then a tiny
    # driver merge: each batch ships at most sum(quota) rows
    def partial_top(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values("doc_id", kind="mergesort")
        keep = d.groupby("lang", sort=False).cumcount() < d["lang"].map(quota)
        return d[keep.to_numpy()][["doc_id", "lang"]]

    tops = docs.map_batches(partial_top, batch_format="pandas").to_pandas()
    tops = tops.sort_values("doc_id", kind="mergesort")
    keep = tops.groupby("lang", sort=False).cumcount() < tops["lang"].map(quota)
    out = tops[keep.to_numpy()].reset_index(drop=True)
    out["doc_id"] = out["doc_id"].astype("int64")
    out["lang"] = out["lang"].where(out["lang"] != _nullk, None)
    return out


SQL_SAMPLE_TEMPERATURE = f"""
WITH n AS (SELECT lang, COUNT(*) AS n FROM documents GROUP BY lang),
q AS (SELECT lang, CAST(CEIL(sqrt(n) * {TEMP_SAMPLE_C}) AS BIGINT) AS quota FROM n),
r AS (
  SELECT doc_id, lang,
         ROW_NUMBER() OVER (PARTITION BY lang ORDER BY doc_id) AS rk
  FROM documents
)
SELECT r.doc_id, r.lang FROM r
JOIN q ON r.lang IS NOT DISTINCT FROM q.lang
WHERE r.rk <= q.quota
"""

QUERIES["sample_temperature"] = q_sample_temperature
ORACLES["sample_temperature"] = SQL_SAMPLE_TEMPERATURE
