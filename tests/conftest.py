import contextlib
import warnings

import pytest
import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    warnings.filterwarnings("ignore")
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()


@contextlib.contextmanager
def one_cpu_exchange():
    """Let ``stages.bucketize.exchange`` see a one-CPU cluster (this session
    has 4), so its one-task rule holds for one-block inputs. ``shuffle_buckets``
    follows: its default is then 2."""
    from nfl_feature_store_ray.stages import bucketize

    real = bucketize.cluster_cpus
    bucketize.cluster_cpus = lambda: 1
    try:
        yield
    finally:
        bucketize.cluster_cpus = real


@pytest.fixture(params=["sort", "one_task"])
def exchange_path(request):
    """Run a test on both paths of ``exchange``: Ray's sort, as this 4-CPU
    session takes it, and the one-task path, which the exchange takes for
    a one-block input once it sees one CPU (inputs of several blocks still
    take the sort)."""
    if request.param == "sort":
        yield request.param
    else:
        with one_cpu_exchange():
            yield request.param
