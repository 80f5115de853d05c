import sys
import tempfile
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

_hypothesis_home = None


def pytest_configure(config):
    # Even without an example database, hypothesis caches the constants it
    # reads from local source files while collecting; keep that cache in a
    # temporary directory instead of .hypothesis/ in the working tree.
    global _hypothesis_home
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:
        return
    _hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(_hypothesis_home.name)


def pytest_unconfigure(config):
    if _hypothesis_home is not None:
        _hypothesis_home.cleanup()


@pytest.fixture(scope="session")
def fig1c_fixed_point():
    """fig1c's fixture and the oracle's fixed point from its start model, as
    (fixture, fixed model, OracleResult). The fixed point takes seconds, so
    it is computed once per test run."""
    from diaginterp.fixtures import build_fixture
    from diaginterp.oracle import exhaustive_fixed_point

    fx = build_fixture("fig1c")
    return (fx, *exhaustive_fixed_point(fx.model_a, fx.model_b, fx.space))
