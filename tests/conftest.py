"""Let the command-line subprocesses that tests start import ellink from
src/, as the tests themselves do through pyproject's ``pythonpath``."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
