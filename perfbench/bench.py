"""Shared pieces of the ellink benchmark.

Request generation from a seed, the in-process CLI runner with a
per-request timeout, the correctness gate against the stored reference,
the host-reference kernel and the small statistics the metrics use.

The program under test is the source tree next to this directory
(``../src``); nothing is installed.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import os
import platform
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

# Relative and absolute tolerance of a sample value against the reference.
# Loose enough for a re-ordered evaluation or a shorter q-product, tight
# enough that a wrong class or a wrong point cannot pass.
RTOL = 1e-7
ATOL = 1e-9

REQUEST_TIMEOUT_S = 30.0
CHILD_TIMEOUT_S = 60.0  # a set-up probe or a bare interpreter start
HOST_SAMPLE_INTERVAL_S = 0.02  # CPU seconds between host-reference samples

# Orbit lattices each workload touches; a CLI invocation builds them.
LATTICES = {
    "compute": ["6,2", "6,3", "7,3", "8,4"],
    "sample": ["7,3", "8,3", "8,4"],
    "verify": ["2,1", "3,1", "4,2", "8,2"],
    "restrict": ["8,4", "9,4"],
}

SUITES = ["theta", "fourterm", "braid", "operators", "monstrous", "flip",
          "independence", "vanishing"]
VERIFY_SAMPLES = 128


def import_cli():
    """Import ``ellink.cli`` from the source tree beside the benchmark."""
    if not (SRC / "ellink" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ellink source tree at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ellink.cli

    if Path(ellink.cli.__file__).resolve().parent != (SRC / "ellink").resolve():
        raise SystemExit(f"perfbench: ellink imported from {ellink.cli.__file__}, not {SRC}")
    return ellink.cli


def load_reference() -> dict:
    if not REFERENCE.is_file():
        raise SystemExit(f"perfbench: missing {REFERENCE.name}; run perfbench/record.py")
    with REFERENCE.open() as fh:
        return json.load(fh)


def digest(doc) -> str:
    """Short stable fingerprint of a JSON-able value."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode()).hexdigest()[:16]


# --------------------------------------------------------------------------
# requests


@dataclass(frozen=True)
class Request:
    kind: str  # compute | verify | restrict | weights
    argv: tuple[str, ...]
    ref: str | None  # key into the reference table; None for verify


def sampled_request(kind, pattern, samples, cli_seed, extra=()) -> Request:
    key = "|".join((kind, pattern, *extra, str(samples), str(cli_seed)))
    argv = (kind, pattern, *extra, "--samples", str(samples), "--seed", str(cli_seed))
    return Request(kind, argv, key)


def compute_requests(seed: int, ref: dict) -> list[Request]:
    """A few patterns per stratum (lattice x twist x word length), shuffled."""
    rng = Random(f"compute/{seed}")
    pool = ref["pools"]["compute"]
    out = [
        sampled_request("compute", p, pool["samples"], 0)
        for stratum in pool["strata"]
        for p in rng.sample(stratum["patterns"], min(pool["per_stratum"], len(stratum["patterns"])))
    ]
    rng.shuffle(out)
    return out


def sample_requests(seed: int, ref: dict) -> list[Request]:
    """Each deep untwisted pattern once, at a seed-chosen point stream."""
    rng = Random(f"sample/{seed}")
    pool = ref["pools"]["sample"]
    out = [
        sampled_request("compute", p, pool["samples"], rng.choice(pool["cli_seeds"]))
        for p in pool["patterns"]
    ]
    rng.shuffle(out)
    return out


def verify_requests(seed: int, ref: dict) -> list[Request]:
    """Every suite once; the suite draws its points from the workload seed."""
    rng = Random(f"verify/{seed}")
    cli_seed = rng.randrange(2**31)
    out = [
        Request("verify", ("verify", s, "--samples", str(VERIFY_SAMPLES),
                           "--seed", str(cli_seed)), None)
        for s in SUITES
    ]
    rng.shuffle(out)
    return out


def restrict_requests(seed: int, ref: dict) -> list[Request]:
    """Every n = 4 square pattern at a seed-chosen fixed point, plus one
    n = 5 weight pattern per word-length stratum."""
    rng = Random(f"restrict/{seed}")
    pool = ref["pools"]["restrict"]
    out = [
        sampled_request("restrict", p, pool["samples"], 0, ("--sigma", rng.choice(pool["sigmas"])))
        for p in pool["patterns"]
    ]
    wpool = ref["pools"]["weights"]
    out += [
        sampled_request("weights", rng.choice(stratum["patterns"]), wpool["samples"], 0)
        for stratum in wpool["strata"]
    ]
    rng.shuffle(out)
    return out


WORKLOADS = {
    "compute": compute_requests,
    "sample": sample_requests,
    "verify": verify_requests,
    "restrict": restrict_requests,
}


# --------------------------------------------------------------------------
# running one request


class RequestTimeout(Exception):
    """Raised inside the request when its time limit expires."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise RequestTimeout in the block once ``seconds`` of wall time pass."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, max(seconds, 1e-3))
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Outcome:
    seconds: float
    code: int | None
    stdout: str
    error: str | None  # "timeout" or the exception that escaped main


def call_cli(main, argv, timeout: float = REQUEST_TIMEOUT_S) -> Outcome:
    """Run ``main(argv)`` in-process, capturing stdout, under a wall-time limit."""
    buf = io.StringIO()
    code = error = None
    t0 = time.perf_counter()
    try:
        with time_limit(timeout), contextlib.redirect_stdout(buf):
            code = main(list(argv))
    except RequestTimeout:
        error = "timeout"
    except Exception as exc:  # a crashing request is a counted failure
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    return Outcome(seconds, code, buf.getvalue(), error)


def run_child(cmd) -> float:
    """Wall seconds of a child process run to completion.

    Waits with a blocking ``waitpid``: ``subprocess.run(timeout=...)``
    polls in sleeps of up to 50 ms, which would quantise the time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    try:
        with time_limit(CHILD_TIMEOUT_S):
            code = proc.wait()
    except RequestTimeout:
        proc.kill()
        proc.wait()
        raise
    seconds = time.perf_counter() - t0
    if code:
        raise subprocess.CalledProcessError(code, cmd)
    return seconds


# --------------------------------------------------------------------------
# correctness gate


def _close(got, want) -> bool:
    a = complex(float(got[0]), float(got[1]))
    b = complex(float(want[0]), float(want[1]))
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def check(req: Request, out: Outcome, ref: dict):
    """Return the parsed output if it is correct, else raise ValueError."""
    if out.error is not None:
        raise ValueError(out.error)
    if out.code != 0:
        raise ValueError(f"exit status {out.code}")
    try:
        doc = json.loads(out.stdout)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON: {exc}") from None
    if req.kind == "verify":
        if not isinstance(doc, list) or not doc:
            raise ValueError("verify did not return a list of reports")
        failed = [r.get("name") for r in doc if r.get("passed") is not True]
        if failed:
            raise ValueError(f"verify reports not passed: {failed}")
        return doc
    want = ref["entries"][req.ref]
    if doc.get("pattern") != want["pattern"]:
        raise ValueError(f"pattern echoed as {doc.get('pattern')!r}")
    samples = doc.get("sample_values")
    if not isinstance(samples, list) or len(samples) != len(want["values"]):
        raise ValueError("wrong number of sample values")
    if digest([s["point"] for s in samples]) != want["points"]:
        raise ValueError("sample points differ from the reference")
    if "type" in want and digest(doc.get("type")) != want["type"]:
        raise ValueError("bundle type differs from the reference")
    for k, (s, v) in enumerate(zip(samples, want["values"])):
        if not _close(s["value"], v):
            raise ValueError(f"sample {k}: value {s['value']} != reference {v}")
    return doc


# --------------------------------------------------------------------------
# host reference and statistics


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_model": cpu,
        "loadavg": list(os.getloadavg()),
    }


# A 64k-entry table the kernel reads at scattered keys, so that the
# reference also slows when a neighbour's cache traffic slows the
# memo-heavy evaluator; built on first use.
_TABLE: dict = {}


def host_reference() -> float:
    """Seconds for a small fixed mix of the work the engine does: exact
    rational arithmetic, complex exponentials, dictionary traffic and
    lookups scattered over a table larger than the core's caches."""
    if not _TABLE:
        _TABLE.update(((i, i & 255), complex(i, -i)) for i in range(1 << 16))
    t0 = time.perf_counter()
    w = 0j
    for k in range(300):
        j = (k * 40503) & 0xFFFF
        w += _TABLE[(j, j & 255)]
    acc = Fraction(0)
    for i in range(1, 30):
        acc += Fraction(i, i + 1) - Fraction(1, i)
    z = 0j
    memo = {}
    for k in range(300):
        x = complex(k * 1e-3, 2e-3)
        z += cmath.exp(2j * cmath.pi * x) * (1.0 - 0.5j)
        memo[(k, k & 7)] = z
    if acc == 0 or not memo or w == 0:  # consume the results
        raise RuntimeError("host reference kernel produced nothing")
    return time.perf_counter() - t0


class HostSampler:
    """Times ``host_reference`` every ``HOST_SAMPLE_INTERVAL_S`` of process
    CPU time while active, so that the host's speed is sampled all through a
    long request and not only around it."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        self.samples.append(host_reference())

    @contextlib.contextmanager
    def active(self):
        self.samples = []
        previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, HOST_SAMPLE_INTERVAL_S, HOST_SAMPLE_INTERVAL_S)
        try:
            yield self.samples
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile).  Lists of ten or fewer samples have no such
    percentile; their maximum is reported as the 100th.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    k = n - 11  # exactly ten samples lie beyond xs[k]
    return xs[k], 100.0 * (k + 1) / n
