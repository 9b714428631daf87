"""Let child processes that tests start (`python -m nightbev.cli`) import the
source tree without an install, as `pythonpath` in pyproject.toml does for
the test process itself."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
