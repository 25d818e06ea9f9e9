from nfl_feature_store_ray.state.asof import asof_join
from nfl_feature_store_ray.state.window_engine import window_features

__all__ = ["window_features", "asof_join"]
