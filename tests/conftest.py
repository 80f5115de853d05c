import sys
import tempfile
from pathlib import Path

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
