"""What a fresh CLI process pays before its first request: import the CLI
and build the orbit lattices given as ``m,r`` arguments."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ellink.cli  # noqa: E402,F401
from ellink.linkpattern import orbit_lattice  # noqa: E402

for size in sys.argv[1:]:
    m, r = size.split(",")
    orbit_lattice(int(m), int(r))
