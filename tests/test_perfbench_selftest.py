"""The benchmark's self-tests (``perfbench/selftest.py``), run with the suite.

They fail when a change renames a function the benchmark's tracer wraps
(``MissingTarget``) or breaks the correctness gate that checks every
benchmark output, so such a change cannot pass the tests and still leave
the benchmark unable to run.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from selftest import Gate, Generator, Metrics, Tracing  # noqa: E402,F401
