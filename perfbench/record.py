"""Record the reference outputs the benchmark's correctness gate compares to.

    python3 perfbench/record.py            # rewrites perfbench/reference.json

Every request any workload seed can generate is run once through the CLI
and its sample points and values are stored.  The values are validated
while recording, independently of the numbers they are checked against:

- ``theta`` against ``mpmath.jtheta(1, pi x, e^{i pi tau})`` at 40 digits;
- every pattern with more than one minimal presentation: its class, built
  from a second presentation, at the recorded points;
- the minimal square pattern's restriction: 1 at sigma = id, 0 elsewhere.

Recording stops with an error if any validation fails.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from random import Random

import bench

POOL_SEED = "ellink-perfbench-pool"
COMPUTE_LATTICES = [(6, 2), (6, 3), (7, 3), (8, 4)]
COMPUTE_TWISTED_LENGTHS = [5, 6, 7, 8]
COMPUTE_UNTWISTED_LENGTHS = [5, 9]
COMPUTE_PER_STRATUM = 6
COMPUTE_SAMPLES = 2
SAMPLE_PATTERNS = ["7,3:1>5,2>6,3>7", "8,3:1>6,5>7,8>4", "8,4:1>5,2>6,3>7,4>8"]
SAMPLE_SAMPLES = 4
SAMPLE_CLI_SEEDS = list(range(12))
RESTRICT_SAMPLES = 2
WEIGHTS_SAMPLES = 2
WEIGHTS_LENGTHS = [[2, 3], [4, 5], [6], [7]]
VALIDATE_RTOL = 1e-8
MAX_TWISTED_CHECK_LENGTH = 10


def _values(doc):
    return [s["value"] for s in doc["sample_values"]]


def _run(cli, argv):
    out = bench.call_cli(cli.main, argv, timeout=600)
    if out.error or out.code != 0:
        raise SystemExit(f"record: {' '.join(argv)} failed: {out.error or out.stdout[:500]}")
    return json.loads(out.stdout)


def _entry(doc, with_type: bool) -> dict:
    entry = {
        "pattern": doc["pattern"],
        "points": bench.digest([s["point"] for s in doc["sample_values"]]),
        "values": _values(doc),
    }
    if with_type:
        entry["type"] = bench.digest(doc["type"])
    return entry


def validate_theta():
    import mpmath
    from ellink.theta import ModularParams, theta

    mpmath.mp.dps = 40
    params = ModularParams()
    nome = mpmath.exp(1j * mpmath.pi * mpmath.mpc(params.tau.real, params.tau.imag))
    rng = Random(POOL_SEED)
    worst = 0.0
    for _ in range(200):
        x = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        want = complex(mpmath.jtheta(1, mpmath.pi * mpmath.mpc(x.real, x.imag), nome))
        got = theta(x, params)
        worst = max(worst, abs(got - want) / abs(want))
    if worst > 1e-12:
        raise SystemExit(f"record: theta disagrees with mpmath.jtheta by {worst:.2e}")
    return worst


def validate_presentations(doc) -> bool:
    """Rebuild the class from a second minimal presentation and compare it
    with the recorded values at the recorded points.

    The second presentation carries the first one's label twist where one
    exists: a twist costs time exponential in the word length, so a long
    untwisted class is only cross-checked against another untwisted word.
    False if no affordable second presentation exists."""
    from ellink.efun import PointAssignment, ell_class_from_presentation, evaluate
    from ellink.linkpattern import all_minimal_presentations, parse_pattern
    from ellink.theta import ModularParams, PoleProximity

    pattern = parse_pattern(doc["pattern"])
    first, *others = all_minimal_presentations(pattern, cap=64)
    same = [p for p in others if p.sigma == first.sigma]
    if same:
        second = same[0]
    elif others and len(first.word) <= MAX_TWISTED_CHECK_LENGTH:
        second = others[0]
    else:
        return False
    f = ell_class_from_presentation(second)
    names = f.space.symbol_names
    params = ModularParams()
    for s in doc["sample_values"]:
        values = tuple(complex(float(s["point"][n][0]), float(s["point"][n][1])) for n in names)
        try:
            got = evaluate(f, PointAssignment(values, params))
        except PoleProximity:
            continue  # the second word may meet a pole guard the first did not
        want = complex(float(s["value"][0]), float(s["value"][1]))
        if abs(got - want) > VALIDATE_RTOL * max(abs(got), abs(want), 1e-300):
            raise SystemExit(
                f"record: {doc['pattern']}: second presentation {second.word} "
                f"gives {got}, first gives {want}"
            )
    return True


def record_compute(cli, entries) -> dict:
    from ellink.linkpattern import format_pattern, minimal_presentation, orbit_lattice

    rng = Random(POOL_SEED)
    strata = []
    checked = 0
    for m, r in COMPUTE_LATTICES:
        by_class: dict[tuple, list[str]] = {}
        for p in orbit_lattice(m, r).patterns():
            pres = minimal_presentation(p)
            twisted = pres.sigma != tuple(range(1, r + 1))
            by_class.setdefault((twisted, len(pres.word)), []).append(format_pattern(p))
        wanted = [(True, n) for n in COMPUTE_TWISTED_LENGTHS]
        wanted += [(False, n) for n in COMPUTE_UNTWISTED_LENGTHS]
        for twisted, length in wanted:
            members = by_class[(twisted, length)]
            chosen = rng.sample(members, min(COMPUTE_PER_STRATUM, len(members)))
            for text in chosen:
                req = bench.sampled_request("compute", text, COMPUTE_SAMPLES, 0)
                doc = _run(cli, req.argv)
                entries[req.ref] = _entry(doc, with_type=True)
                checked += validate_presentations(doc)
            strata.append({"lattice": f"{m},{r}", "twisted": twisted,
                           "length": length, "patterns": chosen})
        print(f"record: compute {m},{r} done", file=sys.stderr)
    return {"samples": COMPUTE_SAMPLES, "per_stratum": 2, "strata": strata,
            "second_presentation_checked": checked}


def record_sample(cli, entries) -> dict:
    checked = 0
    for text in SAMPLE_PATTERNS:
        for cli_seed in SAMPLE_CLI_SEEDS:
            req = bench.sampled_request("compute", text, SAMPLE_SAMPLES, cli_seed)
            doc = _run(cli, req.argv)
            entries[req.ref] = _entry(doc, with_type=True)
            checked += validate_presentations(doc)
    print("record: sample done", file=sys.stderr)
    return {"samples": SAMPLE_SAMPLES, "patterns": SAMPLE_PATTERNS,
            "cli_seeds": SAMPLE_CLI_SEEDS, "second_presentation_checked": checked}


def _word_length(text: str) -> int:
    from ellink.linkpattern import minimal_presentation, parse_pattern

    return len(minimal_presentation(parse_pattern(text)).word)


def record_restrict(cli, entries) -> dict:
    n = 4
    perms = list(itertools.permutations(range(1, n + 1)))
    sigmas = [",".join(map(str, s)) for s in perms]
    patterns = [
        f"{2 * n},{n}:" + ",".join(f"{n + j}>{w[j - 1]}" for j in range(1, n + 1))
        for w in perms
    ]
    identity = sigmas[0]
    for text in patterns:
        for sigma in sigmas:
            req = bench.sampled_request("restrict", text, RESTRICT_SAMPLES, 0, ("--sigma", sigma))
            doc = _run(cli, req.argv)
            entries[req.ref] = _entry(doc, with_type=False)
            if text == patterns[0]:  # the minimal square pattern
                want = 1.0 if sigma == identity else 0.0
                for v in _values(doc):
                    if abs(complex(float(v[0]), float(v[1])) - want) > 1e-9:
                        raise SystemExit(
                            f"record: minimal square pattern restricts to {v} at {sigma}"
                        )
    print("record: restrict done", file=sys.stderr)
    return {"samples": RESTRICT_SAMPLES, "sigmas": sigmas, "patterns": patterns}


def record_weights(cli, entries) -> dict:
    n = 5
    patterns = [
        f"{2 * n - 1},{n - 1}:" + ",".join(f"{n + j}>{t[j - 1]}" for j in range(1, n))
        for t in itertools.permutations(range(1, n + 1), n - 1)
    ]
    lengths = {text: _word_length(text) for text in patterns}
    strata = []
    for group in WEIGHTS_LENGTHS:
        members = [t for t in patterns if lengths[t] in group]
        for text in members:
            req = bench.sampled_request("weights", text, WEIGHTS_SAMPLES, 0)
            entries[req.ref] = _entry(_run(cli, req.argv), with_type=False)
        strata.append({"lengths": group, "patterns": members})
    print("record: weights done", file=sys.stderr)
    return {"samples": WEIGHTS_SAMPLES, "strata": strata}


def main() -> int:
    cli = bench.import_cli()
    t0 = time.perf_counter()
    theta_err = validate_theta()
    entries: dict[str, dict] = {}
    pools = {
        "compute": record_compute(cli, entries),
        "sample": record_sample(cli, entries),
        "restrict": record_restrict(cli, entries),
        "weights": record_weights(cli, entries),
    }
    doc = {
        "about": "reference sample values for perfbench; regenerate with perfbench/record.py",
        "rtol": bench.RTOL,
        "atol": bench.ATOL,
        "validation": {"theta_vs_mpmath_max_rel": theta_err},
        "pools": pools,
        "entries": dict(sorted(entries.items())),
    }
    with bench.REFERENCE.open("w") as fh:
        json.dump(doc, fh, indent=0, separators=(",", ":"))
        fh.write("\n")
    print(f"record: {len(entries)} entries in {time.perf_counter() - t0:.0f} s",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
