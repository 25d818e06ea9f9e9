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


def read_table(
    sf_dir: str,
    name: str,
    columns: list[str] | None = None,
    **kwargs,
) -> ray.data.Dataset:
    """Read ``{sf_dir}/{name}.parquet`` with column pruning.

    ``columns`` goes straight to ``ray.data.read_parquet`` so only the
    requested columns (and only matching row groups when a ``filter``
    expression is passed through ``kwargs``) leave storage.
    """
    return ray.data.read_parquet(os.path.join(sf_dir, f"{name}.parquet"), columns=columns, **kwargs)
