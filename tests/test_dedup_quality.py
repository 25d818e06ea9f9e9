"""Dedup recall/precision on a planted corpus: exact dups, near-dups
(small token edits), and unrelated docs. MinHash-LSH must find every
planted near-dup pair (verification makes precision exact); SimHash must
pair the exact/near-identical docs."""

import os
import shutil

import numpy as np
import pandas as pd
import pytest

PLANT_DIR = "/tmp/nfl_fs_dedup_plant"


def _plant_docs() -> pd.DataFrame:
    rng = np.random.default_rng(99)
    vocab = [f"w{i}" for i in range(300)]
    rows = []
    doc_id = 0
    originals = []
    for _ in range(40):  # unrelated base docs
        toks = [vocab[int(i)] for i in rng.integers(0, len(vocab), 60)]
        originals.append(toks)
        rows.append((doc_id, " ".join(toks)))
        doc_id += 1
    # exact duplicates of docs 0..4
    for i in range(5):
        rows.append((doc_id, " ".join(originals[i])))
        doc_id += 1
    # near duplicates of docs 5..9: edit 3 of 60 tokens (~jaccard ≈ 0.85)
    for i in range(5, 10):
        toks = list(originals[i])
        for j in (7, 23, 41):
            toks[j] = vocab[int(rng.integers(0, len(vocab)))]
        rows.append((doc_id, " ".join(toks)))
        doc_id += 1
    df = pd.DataFrame(rows, columns=["doc_id", "text"])
    df["lang"] = "en"
    df["source"] = "plant"
    df["n_chars"] = df["text"].str.len()
    return df


@pytest.fixture(scope="module")
def plant_dir():
    shutil.rmtree(PLANT_DIR, ignore_errors=True)
    os.makedirs(PLANT_DIR)
    _plant_docs().to_parquet(os.path.join(PLANT_DIR, "documents.parquet"), index=False)
    yield PLANT_DIR


def _pairs(df: pd.DataFrame) -> set[tuple[int, int]]:
    return set(zip(df["doc_id_a"].astype(int), df["doc_id_b"].astype(int)))


def test_exact_dedup_finds_planted(plant_dir):
    from nfl_feature_store_ray.pipelines.dedup import q_dedup_exact

    out = q_dedup_exact(plant_dir).to_pandas()
    assert len(out) == 45  # 50 docs, 5 exact dup pairs collapsed
    dups = out[out["n_copies"] > 1]
    assert set(dups["doc_id"]) == {0, 1, 2, 3, 4}
    assert (dups["n_copies"] == 2).all()


def test_minhash_lsh_recall_and_precision(plant_dir):
    from nfl_feature_store_ray.pipelines.dedup import (
        q_dedup_minhash_lsh,
        q_dedup_ngram_jaccard,
    )

    exact = q_dedup_ngram_jaccard(plant_dir).to_pandas()
    lsh = q_dedup_minhash_lsh(plant_dir)
    lsh = lsh.to_pandas() if not isinstance(lsh, pd.DataFrame) else lsh

    expected = {(i, 40 + i) for i in range(5)} | {(i, 40 + i) for i in range(5, 10)}
    assert expected.issubset(_pairs(exact)), "exact jaccard must find planted pairs"
    # verification step makes LSH precision exact; planted pairs are far
    # above the 0.6 threshold so banding recall must catch them all
    assert _pairs(lsh) == _pairs(exact)
    j = dict(((a, b), v) for a, b, v in zip(exact["doc_id_a"], exact["doc_id_b"], exact["jaccard"]))
    for i in range(5):
        assert j[(i, 40 + i)] == 1.0


def test_simhash_pairs_exact_dups(plant_dir):
    from nfl_feature_store_ray.pipelines.dedup import q_dedup_simhash

    out = q_dedup_simhash(plant_dir).to_pandas()
    got = _pairs(out)
    for i in range(5):  # exact dup ⇒ hamming 0 ⇒ must be found
        assert (i, 40 + i) in got
    ham0 = out[out["hamming"] == 0]
    assert {(i, 40 + i) for i in range(5)}.issubset(_pairs(ham0))


def test_overfull_buckets_dropped_with_count_and_log(caplog):
    """LSH/SimHash blocking buckets over MAX_BUCKET are capped and the drop
    count is surfaced via a warning log — never silently (module contract)."""
    import logging

    import numpy as np
    import pandas as pd

    from nfl_feature_store_ray.pipelines import dedup as dd

    big = dd.MAX_BUCKET + 10
    group = pd.DataFrame(
        {
            "bk": np.concatenate([np.zeros(big, dtype=np.int64),
                                  np.ones(3, dtype=np.int64)]),
            "doc_id": np.arange(big + 3, dtype=np.int64),
        }
    )
    pairs, n_dropped = dd._bucket_pairs(group, "bk")
    assert n_dropped == 1
    # only the small bucket's pairs survive: C(3, 2) = 3
    assert len(pairs) == 3

    with caplog.at_level(logging.WARNING):
        dd._log_dropped_buckets("minhash-lsh", n_dropped, dd.MAX_BUCKET)
    assert any("dropped 1 over-full" in r.message for r in caplog.records)


def test_dedup_embedding_ivf_matches_brute_force():
    """The IVF-cell executed path must recover the exact brute-force pair
    set (multi-probe replication recall) on real test embeddings."""
    import numpy as np
    import pyarrow.parquet as pq

    from nfl_feature_store_ray.pipelines.dedup import COS_T, q_dedup_embedding
    from nfl_feature_store_ray.pipelines.dedup import _norm_rows

    sf = "/root/testdata/sf0.001"
    got = (
        q_dedup_embedding(sf)
        .to_pandas()
        .sort_values(["doc_id_a", "doc_id_b"])
        .reset_index(drop=True)
    )

    t = pq.read_table(f"{sf}/embeddings.parquet", columns=["vec_id", "embedding"]).to_pandas()
    ids = t["vec_id"].to_numpy(dtype=np.int64)
    m = _norm_rows(np.stack(t["embedding"].to_numpy()).astype(np.float64))
    sims = np.round(m @ m.T, 6)
    ii, jj = np.nonzero(np.triu(sims >= COS_T, k=1))
    a, b = ids[ii], ids[jj]
    swap = a > b
    want = set(zip(np.where(swap, b, a).tolist(), np.where(swap, a, b).tolist()))

    have = set(zip(got["doc_id_a"].tolist(), got["doc_id_b"].tolist()))
    assert have == want, f"missing={want - have} extra={have - want}"


def test_ngram_max_df_cap_drops_stop_shingles(caplog):
    """The capped exact-ngram variant skips posting lists longer than
    max_df and logs the drop; pair output is a subset of the uncapped."""
    import logging

    import numpy as np
    import pandas as pd

    from nfl_feature_store_ray.pipelines import dedup as dd

    # a stop-shingle appearing in 6 docs + a true near-dup pair
    group = pd.DataFrame(
        {
            "sh": np.array([1] * 6 + [2, 2, 3, 3], dtype=np.int64),
            "doc_id": np.array([1, 2, 3, 4, 5, 6, 7, 8, 7, 8], dtype=np.int64),
            "n_sh": np.array([10] * 6 + [2, 2, 2, 2], dtype=np.int64),
        }
    )
    uncapped = dd._pairs_from_index(group.copy())
    with caplog.at_level(logging.WARNING):
        capped = dd._pairs_from_index(group.copy(), max_df=4)
    # the 6-doc stop-shingle contributes C(6,2)=15 pairs uncapped, 0 capped
    assert len(uncapped) == 15 + 1  # 15 stop pairs + (7,8) sharing 2 shingles
    assert len(capped) == 1
    assert any("ngram-shingle" in r.message for r in caplog.records)


def test_capped_ngram_pipeline_recall_vs_exact(tmp_path):
    """Deployment-default capped variant (max_df stop-shingle cap): on a
    corpus where EVERY doc shares boilerplate shingles (df > cap), the
    capped pipeline must still find every true near-dup pair — near-dups
    share many RARE shingles — and, at threshold, match the exact pair set
    (pairs overlapping only in boilerplate sit far below JACCARD_T)."""
    import os

    from nfl_feature_store_ray.pipelines.dedup import (
        DEFAULT_MAX_DF,
        ngram_jaccard_pairs,
    )

    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(400)]
    boiler = "terms of service apply to this document"  # shared by ALL docs
    rows, originals = [], []
    for doc_id in range(60):
        toks = [vocab[int(i)] for i in rng.integers(0, len(vocab), 50)]
        originals.append(toks)
        rows.append((doc_id, boiler + " " + " ".join(toks)))
    for i in range(6):  # near-dups of docs 0..5 (2 token edits)
        toks = list(originals[i])
        for j in (5, 30):
            toks[j] = vocab[int(rng.integers(0, len(vocab)))]
        rows.append((60 + i, boiler + " " + " ".join(toks)))
    d = tmp_path / "capped"
    d.mkdir()
    pd.DataFrame(rows, columns=["doc_id", "text"]).to_parquet(
        os.path.join(d, "documents.parquet"), index=False
    )

    exact = ngram_jaccard_pairs(str(d), max_df=None).to_pandas()
    capped = ngram_jaccard_pairs(str(d), max_df=20).to_pandas()  # < 66 docs
    expected = {(i, 60 + i) for i in range(6)}
    assert expected.issubset(_pairs(exact))
    assert _pairs(capped) == _pairs(exact), "cap must not lose true pairs"
    assert DEFAULT_MAX_DF is not None  # deployment default IS capped


def test_dedup_clusters_transitive_chain(tmp_path):
    """Connected components must merge A-B-C chains where A~B and B~C are
    near-dup pairs but A~C falls below threshold — multi-hop label
    propagation, not just pair mirroring."""
    import os

    from nfl_feature_store_ray.pipelines.dedup import (
        q_dedup_clusters,
        q_dedup_ngram_jaccard,
    )

    rng = np.random.default_rng(21)
    vocab = [f"w{i}" for i in range(400)]
    base = [vocab[int(i)] for i in rng.integers(0, len(vocab), 60)]
    a = list(base)
    b = list(base); b[3] = "xb3"; b[9] = "xb9"; b[33] = "xb33"; b[45] = "xb45"
    c = list(b);    c[12] = "xc12"; c[25] = "xc25"; c[50] = "xc50"; c[57] = "xc57"
    # a<->b and b<->c differ by 4 tokens each (jaccard ~0.75 >= 0.6);
    # a<->c differ by 8 (jaccard ~0.6-; verify below via the exact pairs)
    rows = [(0, " ".join(a)), (1, " ".join(b)), (2, " ".join(c))]
    for i in range(3, 30):  # unrelated noise docs
        rows.append((i, " ".join(vocab[int(j)] for j in rng.integers(0, len(vocab), 60))))
    d = tmp_path / "chain"
    d.mkdir()
    pd.DataFrame(rows, columns=["doc_id", "text"]).to_parquet(
        os.path.join(d, "documents.parquet"), index=False
    )

    pairs = _pairs(q_dedup_ngram_jaccard(str(d)).to_pandas())
    assert (0, 1) in pairs and (1, 2) in pairs
    assert (0, 2) not in pairs, "A~C must be sub-threshold for the chain test"

    cl = q_dedup_clusters(str(d))
    cl = (cl.to_pandas() if not isinstance(cl, pd.DataFrame) else cl).sort_values("doc_id")
    assert list(cl["doc_id"]) == [0, 1, 2]
    assert list(cl["cluster_id"]) == [0, 0, 0], "chain must merge transitively"
    assert list(cl["is_canonical"]) == [True, False, False]


def test_dedup_clusters_distributed_path_matches_fast_path(tmp_path, monkeypatch):
    """Forcing the distributed BSP label-propagation path (threshold 0)
    must produce the identical clustering as the driver union-find."""
    import os

    from nfl_feature_store_ray.pipelines import dedup as dd

    rng = np.random.default_rng(31)
    vocab = [f"w{i}" for i in range(300)]
    base = [vocab[int(i)] for i in rng.integers(0, len(vocab), 60)]
    docs = {0: base}
    for i in range(1, 4):  # chain 0-1-2-3
        t = list(docs[i - 1]); t[i * 7] = f"x{i}"; t[i * 9] = f"y{i}"
        docs[i] = t
    for i in range(4, 25):
        docs[i] = [vocab[int(j)] for j in rng.integers(0, len(vocab), 60)]
    d = tmp_path / "cc"
    d.mkdir()
    pd.DataFrame([(k, " ".join(v)) for k, v in docs.items()],
                 columns=["doc_id", "text"]).to_parquet(
        os.path.join(d, "documents.parquet"), index=False)

    fast = dd.q_dedup_clusters(str(d))
    fast = fast.to_pandas() if not isinstance(fast, pd.DataFrame) else fast
    monkeypatch.setattr(dd, "CC_DRIVER_MAX_EDGES", 0)
    dist = dd.q_dedup_clusters(str(d))
    dist = dist.to_pandas() if not isinstance(dist, pd.DataFrame) else dist
    key = lambda df: sorted(map(tuple, df[["doc_id", "cluster_id", "is_canonical"]].to_numpy()))
    assert key(fast) == key(dist)
    assert {tuple(r) for r in fast[["doc_id", "cluster_id"]].to_numpy()} >= {(0, 0), (1, 0), (2, 0), (3, 0)}


def test_levenshtein_kernel_matches_duckdb():
    """The vectorized Wagner-Fischer batch kernel must agree with DuckDB's
    byte-based levenshtein() on random multi-byte strings (incl. empties),
    across every pair — the exactness contract behind dedup_edit_distance."""
    import duckdb
    import numpy as np
    import pandas as pd

    from nfl_feature_store_ray.pipelines.dedup import _levenshtein_batch

    alphabet = list("abcde") + ["é", "的", " "]
    for seed in (5, 9, 42):
        rng = np.random.default_rng(seed)
        strs = np.array(
            ["".join(rng.choice(alphabet, rng.integers(0, 12)).tolist())
             for _ in range(80)],
            dtype=object,
        )
        ia, ib = np.triu_indices(80, 1)
        got = _levenshtein_batch(strs, ia, ib)
        con = duckdb.connect()
        con.register("p", pd.DataFrame({"a": strs[ia], "b": strs[ib]}))
        want = con.execute("SELECT levenshtein(a, b) FROM p").df().iloc[:, 0].to_numpy()
        assert (got == want).all(), f"seed {seed}: {(got != want).sum()} mismatches"


def test_edit_distance_block_cap_logs_and_drops(tmp_path, ray_session):
    """Capped variant: an oversized block is dropped (fewer pairs), never
    silently — the deployment default keeps the logged cap."""
    import pandas as pd

    from nfl_feature_store_ray.pipelines.dedup import (
        edit_distance_pairs,
        q_dedup_edit_distance,
    )

    docs = pd.DataFrame(
        {"doc_id": range(12),
         "text": ["same prefix block " + ("x" * i) for i in range(10)]
         + ["zz uncapped pair a", "zz uncapped pair b"],
         "lang": "en", "source": "s", "n_chars": 20}
    )
    d = tmp_path / "cap"
    d.mkdir()
    docs.to_parquet(d / "documents.parquet", index=False)
    exact = q_dedup_edit_distance(str(d)).to_pandas()
    capped = edit_distance_pairs(str(d), max_block=4).to_pandas()
    assert len(exact) > len(capped)  # the hot 10-doc block was dropped
    # the small block survives the cap
    assert (capped[["doc_a", "doc_b"]].to_numpy() == [[10, 11]]).all()


def test_levenshtein_banded_kernel_contract():
    """Banded kernel: EXACT for pairs with true distance <= tmax, and a
    lower bound strictly above tmax otherwise — per the Ukkonen cutoff
    contract the gated query relies on."""
    import numpy as np

    from nfl_feature_store_ray.pipelines.dedup import (
        _levenshtein_batch,
        _levenshtein_batch_banded,
    )

    alphabet = list("abcde") + ["é", "的", " "]
    for seed in (5, 9, 42, 7):
        rng = np.random.default_rng(seed)
        strs = np.array(
            ["".join(rng.choice(alphabet, rng.integers(0, 14)).tolist())
             for _ in range(80)],
            dtype=object,
        )
        ia, ib = np.triu_indices(80, 1)
        full = _levenshtein_batch(strs, ia, ib)
        for tmax in (2, 4, 8):
            band = _levenshtein_batch_banded(strs, ia, ib, tmax)
            le = full <= tmax
            assert (band[le] == full[le]).all(), (seed, tmax)
            assert (band[~le] > tmax).all(), (seed, tmax)


def test_pagerank_driver_fast_path_equals_distributed(ray_session, tmp_path, monkeypatch):
    """The bounded-driver PageRank (np.add.at integer message passing) must
    be BIT-identical to the distributed exchange path — same fixed-point
    recurrence, different execution (PR_DRIVER_MAX_EDGES=0 forces the
    exchanges; the CC fast path has the same contract)."""
    import numpy as np
    import pandas as pd

    from nfl_feature_store_ray.pipelines.dedup import q_pagerank

    rng = np.random.default_rng(9)
    texts = []
    for i in range(60):
        base = " ".join(f"w{j}" for j in rng.integers(0, 40, 12))
        texts.append(base)
        if i % 3 == 0:
            texts.append(base + " x")  # near-dup partner -> graph edges
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts,
                       "lang": "en", "source": "s", "n_chars": 0})
    d = tmp_path / "pr"
    d.mkdir()
    df.to_parquet(d / "documents.parquet", index=False)
    fast = q_pagerank(str(d)).reset_index(drop=True)
    monkeypatch.setenv("PR_DRIVER_MAX_EDGES", "0")
    dist = q_pagerank(str(d)).reset_index(drop=True)
    assert len(fast) > 0
    pd.testing.assert_frame_equal(fast, dist)
