"""Parquet sources with column pruning.

Reference equivalents: S1 `get_play_by_play` (reads a whole ~370-column
play-by-play frame even when a handful of columns are used,
`/root/reference/src/pumps/player_game.py:695`) and S6 `put_dataframe`
(one whole-season file per write, `feature_store_runner.py:55`).

The rebuild always prunes at the read: at 100 TB a read that loads all
columns for a 2-column transform ships two orders of magnitude too much
data out of storage.
"""

from __future__ import annotations

import os

import ray.data

from nfl_feature_store_ray.stages.bucketize import cluster_cpus


def _file_count(path: str) -> int:
    """Files under ``path`` (1 for a file), skipping the names starting
    with ``.`` or ``_``, as Ray's read does."""
    if not os.path.isdir(path):
        return 1
    n = 0
    for _, dirs, files in os.walk(path):
        dirs[:] = [d for d in dirs if not d.startswith((".", "_"))]
        n += sum(not f.startswith((".", "_")) for f in files)
    return n


def read_table(
    sf_dir: str,
    name: str,
    columns: list[str] | None = None,
    **kwargs,
) -> ray.data.Dataset:
    """Read ``{sf_dir}/{name}.parquet`` (a file or a directory of files)
    with column pruning.

    ``columns`` goes straight to ``ray.data.read_parquet`` so only the
    requested columns (and only matching row groups when a ``filter``
    expression is passed through ``kwargs``) leave storage.

    The read makes ``max(files, cluster CPUs)`` blocks unless the caller
    passes ``override_num_blocks``: one read task per file, and a file is
    split only to occupy idle CPUs, never for its size (Ray's default
    cuts a 10 MB file into 10 blocks). A split read does not fuse with
    the maps after it, so on one CPU this lets Ray run read -> map ->
    exchange map side as one task per file. A file larger than
    ``DataContext.target_max_block_size`` still comes out in several
    blocks: the read task cuts its own output, which does not block
    fusion. On one CPU a one-file read is one block, so
    ``stages.bucketize.exchange`` runs whole inside the read task, with no
    sort (its docstring says when and why); that path also stops the read
    task cutting its output, which would split buckets over calls."""
    path = os.path.join(sf_dir, f"{name}.parquet")
    kwargs.setdefault("override_num_blocks", max(_file_count(path), cluster_cpus()))
    return ray.data.read_parquet(path, columns=columns, **kwargs)
