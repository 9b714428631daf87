"""Let child processes that tests start (`python -m nightbev.cli`) import the
source tree without an install, as `pythonpath` in pyproject.toml does for
the test process itself; and give every hypothesis test no deadline, since
one example's time varies with the machine's load."""

import os
from pathlib import Path

from hypothesis import settings

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

settings.register_profile("nightbev", deadline=None)
settings.load_profile("nightbev")
