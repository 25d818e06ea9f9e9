"""The as-of join's broadcast and exchange paths give the same rows.

The right side comes in many blocks, and right rows share a ts across
block boundaries: the broadcast path prunes each block on its own, so a
left row's candidates come from several blocks, and the merge must still
take the last of them in the right side's order, as the exchange does."""

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data as rd

from nfl_feature_store_ray.stages.bucketize import shuffle_buckets
from nfl_feature_store_ray.state.asof import asof_join
from tests.test_asof import EXCHANGE_BLOCK_LIMIT, _frames, block_limit

KEY = [("conv_id", "ascending"), ("ts", "ascending"), ("ev", "ascending")]


def _sides():
    events, feats = _frames()
    # every feature row twice, the copy (+10) later in the right side's
    # order and in another block: the copy must win every match
    right = pd.concat([feats, feats.assign(feat=feats["feat"] + 10.0)], ignore_index=True)
    right = rd.from_arrow(pa.Table.from_pandas(right, preserve_index=False))
    right = right.repartition(4 * shuffle_buckets()).materialize()
    return events, right


@pytest.mark.parametrize("kw", [
    {"allow_exact_matches": False},
    {"allow_exact_matches": True},
    {"tolerance": pd.Timedelta(hours=6)},
    {"collide": True},  # a colliding right column gets the suffix _r
], ids=["strict", "exact", "tolerance", "suffix"])
def test_asof_broadcast_matches_exchange(kw):
    kw = dict(kw)
    events, right = _sides()
    collide = kw.pop("collide", False)
    if collide:
        events = events.assign(feat=-1.0)
    out = {}
    for path, limit in (("broadcast", None), ("exchange", EXCHANGE_BLOCK_LIMIT)):
        with block_limit(limit):
            ds = asof_join(rd.from_pandas(events), right, **kw).materialize()
        assert ("Sort" in ds.stats()) == (path == "exchange")
        out[path] = pa.concat_tables(
            ds.iter_batches(batch_size=None, batch_format="pyarrow")).sort_by(KEY)
    assert out["broadcast"].num_rows == len(events)
    assert out["broadcast"].equals(out["exchange"])
    feat = out["broadcast"].column("feat_r" if collide else "feat")
    assert 0 < feat.null_count < len(feat)
    assert pc.min(feat).as_py() >= 10.0  # the later copy won
