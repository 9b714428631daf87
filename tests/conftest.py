"""Let child processes that tests start (`python -m nightbev.cli`) import the
source tree without an install, as `pythonpath` in pyproject.toml does for
the test process itself; and give every hypothesis test no deadline, since
one example's time varies with the machine's load. `peak_bytes` measures
the memory one call allocates."""

import os
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import settings

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

settings.register_profile("nightbev", deadline=None)
settings.load_profile("nightbev")


@pytest.fixture
def peak_bytes():
    """`peak_bytes(fn, *args)` calls `fn(*args)` once and returns the peak of the
    memory `tracemalloc` traced during the call, in bytes."""

    def measure(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure
