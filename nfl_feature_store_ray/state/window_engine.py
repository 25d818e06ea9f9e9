"""The distributed window engine — per-conversation point-in-time features.

One hash-bucket shuffle on ``conv_id`` (stages.bucketize), then the window
kernel (``state.window_kernel_pl.kernel_arrow``, which documents every
window family and the null and leakage contracts) over each bucket of
whole conversations, Arrow in and Arrow out.
"""

from __future__ import annotations

import ray.data

from nfl_feature_store_ray.schemas import (
    DEFAULT_NUM_BUCKETS,
    DEFAULT_WINDOW_METRICS,
    SESSION_GAP_S,
)


def window_features(
    ds: ray.data.Dataset,
    metrics: tuple[str, ...] = DEFAULT_WINDOW_METRICS,
    session_gap_s: int = SESSION_GAP_S,
    assign_turn_idx: bool = False,
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    derive: bool = True,
    heavy_keys: dict | None = None,
    phases: tuple[str, ...] = (),
    pre_kernel=None,
) -> ray.data.Dataset:
    """Distributed window engine: derive -> bucket shuffle -> per-bucket scan.

    ``heavy_keys`` (from ``state.skew.detect_heavy_keys``): hot
    conversations get dedicated buckets (explicit skew salting).
    ``pre_kernel`` (Arrow table -> Arrow table) runs inside each bucket
    task AFTER the shuffle — stateless derivations go here so the
    exchange ships only the raw columns, not the derived fan-out.
    ``derive=True`` therefore composes the standard turn-column derive
    into pre_kernel rather than running it before the shuffle (measured
    ~15% faster at sf0.1: the exchange moves 7 raw columns, not 13)."""
    from nfl_feature_store_ray.stages.derive import _derive_batch

    if derive:
        user_pk = pre_kernel
        pre_kernel = (
            (lambda t: user_pk(_derive_batch(t))) if user_pk is not None else _derive_batch
        )

    # Arrow spine: bucket column added on pandas batches (cheap), but the
    # shuffled groups flow into the kernel as zero-copy Arrow tables ->
    # polars, skipping the pandas block materialization (~20% faster than
    # the pandas spine at sf0.1).
    import pyarrow as pa

    from nfl_feature_store_ray.stages.bucketize import BUCKET_COL, with_bucket
    from nfl_feature_store_ray.state.window_kernel_pl import kernel_arrow

    bucketed = with_bucket(ds, key="conv_id", num_buckets=num_buckets, heavy_keys=heavy_keys)

    def kern(tbl: pa.Table) -> pa.Table:
        # sort-exchange output arrives as one chunk PER MAP CONTRIBUTION
        # (hundreds of tiny chunks per bucket at high block counts);
        # pyarrow/polars kernels crawl on fragmented buffers, so pay one
        # contiguous memcpy up front (measured 4x kernel-time cut on the
        # 12.8M-turn wide job vs operating on the fragmented table)
        tbl = tbl.drop_columns([BUCKET_COL]).combine_chunks()
        if pre_kernel is not None:
            tbl = pre_kernel(tbl)
        return kernel_arrow(
            tbl,
            metrics=metrics,
            session_gap_s=session_gap_s,
            assign_turn_idx=assign_turn_idx,
            sort=True,
            phases=phases,
        )

    return bucketed.groupby(BUCKET_COL).map_groups(kern, batch_format="pyarrow")
