import warnings

import pytest

from expindep.families import free_trees, random_subcubic_graph

# When a property test fails, the hypothesis plugin imports this module to
# suggest a patch; through libcst it warns that mypy_extensions.TypedDict is
# deprecated, and under -W error that warning replaces the failure report
# and its falsifying example. Importing it once here, with only that
# warning class ignored, leaves the module cached for the plugin.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture(scope="session")
def trees_by_order():
    """One representative per tree shape, orders 1..9."""
    return {n: free_trees(n) for n in range(1, 10)}


@pytest.fixture(scope="session")
def random_graph_pool():
    """200 seeded random subcubic graphs on 4..12 vertices."""
    pool = []
    for i in range(200):
        n = 4 + i % 9
        extra = i % 3
        seed = 7000 + i
        try:
            pool.append(random_subcubic_graph(n, extra, seed))
        except ValueError:
            pool.append(random_subcubic_graph(n, 0, seed))
    return pool
