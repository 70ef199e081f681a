"""Size-ladder report: how class cost grows along (4,2) -> ... -> (8,4).

    python3 perfbench/ladder.py [--out ladder.json]

For each size it takes the farthest arc set of the orbit lattice twice:
labelled so that the minimal presentation needs no label twist (sigma =
id), and labelled so that it does.  For each it records build time,
evaluation time per point, unique DAG nodes and unfolded tree nodes.

Each size runs in one child process at a time under a wall-time budget
of ``BUDGET_S``; each class is evaluated at ``POINTS`` points.
A child that exceeds it is killed; what it did not report is recorded as
``over_budget``.  This report is not part of the gated workloads.
"""

from __future__ import annotations

import argparse
import itertools
import json
import subprocess
import sys
import time
from random import Random

import bench
from tracer import count_nodes

SIZES = ["4,2", "6,3", "7,3", "8,3", "8,4"]
VARIANTS = ["untwisted", "twisted"]
BUDGET_S = 30.0  # wall seconds per size
POINTS = 3  # evaluation points per class


def child(size: str) -> None:
    bench.import_cli()
    from ellink.efun import ell_class, evaluate, random_point
    from ellink.linkpattern import LinkPattern, format_pattern, minimal_presentation, orbit_lattice
    from ellink.theta import ModularParams, PoleProximity

    m, r = (int(t) for t in size.split(","))
    lattice = orbit_lattice(m, r)
    arcs = sorted(lattice.order[-1])
    labelled = {}
    for order in itertools.permutations(arcs):
        p = LinkPattern(m, r, tuple(order))
        pres = minimal_presentation(p)
        variant = VARIANTS[pres.sigma != tuple(range(1, r + 1))]
        labelled.setdefault(variant, (p, pres))
    params = ModularParams()
    for variant in VARIANTS:
        if variant not in labelled:
            continue
        p, pres = labelled[variant]
        row = {"size": size, "variant": variant}
        print(json.dumps({**row, "pattern": format_pattern(p), "word_length": len(pres.word),
                          "sigma": list(pres.sigma)}), flush=True)
        t0 = time.perf_counter()
        f = ell_class(p)
        row["build_s"] = time.perf_counter() - t0
        row["nodes_unique"], row["nodes_tree"] = count_nodes(f.node)
        print(json.dumps(row), flush=True)
        rng = Random(0)
        spent, done = 0.0, 0
        while done < POINTS:
            pt = random_point(f.space, rng, params)
            t0 = time.perf_counter()
            try:
                evaluate(f, pt)
            except PoleProximity:
                continue
            spent += time.perf_counter() - t0
            done += 1
        print(json.dumps({"size": size, "variant": variant,
                          "eval_s_per_point": spent / POINTS}), flush=True)


def run_size(size: str) -> list[dict]:
    cmd = [sys.executable, __file__, "--child", size]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    t0 = time.perf_counter()
    try:
        out, _ = proc.communicate(timeout=BUDGET_S)
        over = proc.returncode != 0
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        over = True
    elapsed = time.perf_counter() - t0
    rows: dict[str, dict] = {}
    for line in out.splitlines():
        item = json.loads(line)
        rows.setdefault(item["variant"], {}).update(item)
    result = []
    for variant in VARIANTS:
        row = rows.get(variant, {"size": size, "variant": variant})
        if "eval_s_per_point" not in row and over:
            row["over_budget"] = True
        result.append(row)
    print(f"ladder: {size} {elapsed:.1f} s", file=sys.stderr)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ellink size-ladder report")
    ap.add_argument("--out", help="also write the report to this file")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        child(args.child)
        return 0
    report = {
        "machine": bench.machine_record(),
        "budget_s_per_size": BUDGET_S,
        "points": POINTS,
        "rows": [row for size in SIZES for row in run_size(size)],
    }
    text = json.dumps(report, indent=1)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
