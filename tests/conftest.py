import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from lsdiv import PoissonFamily, simulate


@pytest.fixture(scope="session")
def family() -> PoissonFamily:
    return PoissonFamily()


@pytest.fixture
def fresh_pool():
    """Shut simulate's reused worker pool down before and after the test.

    Its workers keep the module state they were forked with, so a test that
    swaps ``simulate.ProcessPoolExecutor``, or patches lsdiv and then runs at
    n_jobs > 1, would otherwise get an earlier test's pool or leave its own
    stand-in or patched workers to the tests after it.
    """
    simulate._shut_pool()
    yield
    simulate._shut_pool()
