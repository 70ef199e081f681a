"""The ellink benchmark: one closed-loop client driving the CLI in-process.

    python3 perfbench/run.py --workload compute --seed 1 --seconds 20 --trace 0

One process, one workload, no threads.  The seed generates a fixed list of
CLI argument vectors; the client sends them one after another through
``ellink.cli.main(argv)``, checks every JSON output against the stored
reference, and repeats the list until ``--seconds`` is used up.  Between
requests it times a fixed host-reference kernel.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes in which the tracer wraps each layer's public
functions, and reports the per-layer metrics plus the tracing overhead.

The last line of stdout is the result object; the line before it records
the machine, the host and the samples behind the medians.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from statistics import median

import bench
import tracer as tracing

# Gated metrics.  Request times are divided by the host-reference kernel
# timed around them ("ref" units).  setup_s is a set-up probe's time over
# that of a bare interpreter start run just before it, in seconds at the
# nominal bare start.  Raw seconds are printed but not gated: on a shared
# host they move by more than any bound this benchmark may set.
END_TO_END = {
    "ok_share": "share",
    "setup_s": "s",
    "wall_ref": "ref",
    "req_p50_ref": "ref",
    "req_tail_ref": "ref",
    "peak_rss_mb": "MB",
}
INFO_UNITS = {"fail_share": "share", "wall_s": "s", "req_p50_s": "s", "req_tail_s": "s",
              "setup_raw_s": "s"}

# Counters that must repeat exactly between traced passes of one seed.
EXACT = [
    "theta.calls", "theta.delta_calls", "typecalc.substitute.calls",
    "typecalc.qform.calls", "efun.nodes_unique", "efun.nodes_tree",
    "efun.eval.calls", "schubert.terms", "identities.resamples",
]
LATTICE_SIZES = ["2_1", "3_1", "4_2", "6_2", "6_3", "7_3", "8_2", "8_3", "8_4", "9_4"]


def _per_layer_units() -> dict[str, str]:
    """Per-layer metric names and units.  Times are in host-reference
    units ("ref"), as the gated times are, so that runs on a noisy host
    compare; a layer that a workload does not call reads 0."""
    units = {
        "theta.calls": "count", "theta.ref": "ref", "theta.delta_calls": "count",
        "typecalc.substitute.calls": "count", "typecalc.substitute.ref": "ref",
        "typecalc.qform.calls": "count", "typecalc.qform.ref": "ref",
        "typecalc.admissible_mu.ref": "ref",
        "linkpattern.lattice.ref": "ref",
    }
    units.update({f"linkpattern.lattice.size.{k}": "count" for k in LATTICE_SIZES})
    units.update({
        "linkpattern.presentation.ref": "ref",
        "efun.build.ref": "ref", "efun.twist.ref": "ref", "efun.rewrite.ref": "ref",
        "efun.nodes_unique": "count", "efun.nodes_tree": "count", "efun.sharing": "share",
        "efun.eval.calls": "count", "efun.eval.ref": "ref", "efun.eval.ref_per_point": "ref",
        "efun.pole_reject_share": "share",
    })
    units.update({f"identities.{s}.ref": "ref" for s in bench.SUITES})
    units.update({"identities.resamples": "count", "identities.max_residual": "rel"})
    units.update({
        "schubert.reduced_class.ref": "ref", "schubert.restrict.ref": "ref",
        "schubert.weight_function.ref": "ref", "schubert.terms": "count",
        "cli.request.ref": "ref", "cli.sample.ref": "ref", "cli.emit.ref": "ref",
    })
    units.update({f"{layer}.self_share": "share" for layer in tracing.LAYERS})
    units.update({"host.ref_s": "s", "trace.overhead_share": "share"})
    return units


PER_LAYER = _per_layer_units()

SETUP_PROBES = 7
BRACKET = 4  # host-reference runs between consecutive requests
HASH_SEED = "0"
BARE_START_NOMINAL_S = 0.05  # `python3 -c pass` on the 2-vCPU Xeon host, quiet
HARD_LIMIT_S = 140.0  # the loop stops starting requests after this


@dataclass
class Pass:
    latencies: list[float] = field(default_factory=list)
    # per request, the mean host-reference time around and during it
    ref_s: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    unsent: int = 0

    @property
    def complete(self) -> bool:
        return not self.unsent

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    @property
    def normalized(self) -> list[float]:
        return [t / r for t, r in zip(self.latencies, self.ref_s)]


def run_pass(cli, requests, ref, deadline: float) -> Pass:
    p = Pass()
    sampler = bench.HostSampler()
    before = [bench.host_reference() for _ in range(BRACKET)]
    for req in requests:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            p.unsent += 1
            p.failures.append(f"{' '.join(req.argv)}: not sent, run deadline reached")
            continue
        with sampler.active() as during:
            out = bench.call_cli(cli.main, req.argv, min(bench.REQUEST_TIMEOUT_S, remaining))
        after = [bench.host_reference() for _ in range(BRACKET)]
        samples = before + during + after
        p.latencies.append(out.seconds - sum(during))
        p.ref_s.append(sum(samples) / len(samples))
        before = after
        try:
            p.outputs.append(bench.check(req, out, ref))
        except ValueError as exc:
            p.failures.append(f"{' '.join(req.argv)}: {exc}")
            p.outputs.append(None)
    return p


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """Fresh processes that import the CLI and build the workload's
    lattices: (wall seconds, wall over that of a bare interpreter start
    made just before).  One untimed probe first warms the bytecode cache."""
    probe = [sys.executable, str(bench.HERE / "setup_probe.py"), *bench.LATTICES[workload]]
    bare = [sys.executable, "-c", "pass"]
    bench.run_child(probe)
    raw, ratio = [], []
    for _ in range(SETUP_PROBES):
        base = bench.run_child(bare)
        seconds = bench.run_child(probe)
        raw.append(seconds)
        ratio.append(seconds / base)
    return raw, ratio


def build_lattices(workload: str):
    from ellink.linkpattern import orbit_lattice

    for size in bench.LATTICES[workload]:
        m, r = size.split(",")
        orbit_lattice(int(m), int(r))


def per_request(rows: list[list[float]]) -> list[float]:
    """Per request, the median of its values over the passes."""
    n = min(len(r) for r in rows)
    return [median([r[i] for r in rows]) for i in range(n)]


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes, requests, setup, rss_base, failed, attempted) -> tuple[dict, dict]:
    """Gated metrics, and the raw-second figures behind them."""
    timed = [p for p in passes if p.complete] or passes
    norm = per_request([p.normalized for p in timed])
    raw = per_request([p.latencies for p in timed])
    tail_ref, pct = bench.tail(norm)
    tail_s, _ = bench.tail(raw)
    metrics = {
        "ok_share": 1.0 - failed / attempted,
        "setup_s": median(setup[1]) * BARE_START_NOMINAL_S,
        "wall_ref": sum(norm),
        "req_p50_ref": median(norm),
        "req_tail_ref": tail_ref,
        "peak_rss_mb": max_rss_mb() - rss_base,
    }
    extra = {
        "fail_share": failed / attempted,
        "wall_s": median([p.wall for p in timed]),
        "req_p50_s": median(raw),
        "req_tail_s": tail_s,
        "setup_raw_s": median(setup[0]),
        "rss_base_mb": rss_base,
        "req_tail_percentile": pct,
        "req_count": len(norm),
        "passes_timed": len(timed),
        "per_request": [{"argv": " ".join(r.argv), "ref": x, "s": y}
                        for r, x, y in zip(requests, norm, raw)],
    }
    return metrics, extra


def layer_snapshot(tr: tracing.Tracer, p: Pass, lattice: dict) -> dict:
    """Per-layer metrics of one traced pass (lattice figures from set-up)."""
    s, c = tr.seconds, tr.calls
    m = {
        "theta.calls": c["theta"], "theta.s": s["theta"],
        "theta.delta_calls": c["theta.delta"],
        "typecalc.substitute.calls": c["typecalc.substitute"],
        "typecalc.substitute.s": s["typecalc.substitute"],
        "typecalc.qform.calls": c["typecalc.qform"], "typecalc.qform.s": s["typecalc.qform"],
        "typecalc.admissible_mu.s": s["typecalc.admissible_mu"],
        "linkpattern.presentation.s": s["linkpattern.presentation"],
        "efun.build.s": s["efun.build"], "efun.twist.s": s["efun.twist"],
        "efun.rewrite.s": s["efun.rewrite"],
        "efun.nodes_unique": tr.counts["efun.nodes_unique"],
        "efun.nodes_tree": tr.counts["efun.nodes_tree"],
        "efun.eval.calls": c["efun.eval"], "efun.eval.s": s["efun.eval"],
        "schubert.reduced_class.s": s["schubert.reduced_class"],
        "schubert.restrict.s": s["schubert.restrict"],
        "schubert.weight_function.s": s["schubert.weight_function"],
        "schubert.terms": tr.counts["schubert.terms"],
        "cli.request.s": s["cli.request"], "cli.sample.s": s["cli.sample"],
        "cli.emit.s": s["cli.emit"],
    }
    for size in LATTICE_SIZES:
        m[f"linkpattern.lattice.size.{size}"] = lattice["sizes"].get(size, 0)
    m["efun.sharing"] = m["efun.nodes_unique"] / max(m["efun.nodes_tree"], 1)
    m["efun.pole_reject_share"] = tr.raised["efun.eval"] / max(m["efun.eval.calls"], 1)
    for suite in bench.SUITES:
        m[f"identities.{suite}.s"] = s[f"identities.{suite}"]
    reports = [r for doc in p.outputs if isinstance(doc, list) for r in doc]
    m["identities.resamples"] = sum(r.get("resamples", 0) for r in reports)
    m["identities.max_residual"] = max(
        (r["max_relative_residual"] for r in reports), default=0.0)
    total = max(s["cli.request"], 1e-12)
    for layer in tracing.LAYERS:
        m[f"{layer}.self_share"] = tr.self_seconds[layer] / total
    ref = median(p.ref_s)
    m = {(k[:-2] + ".ref" if k.endswith(".s") else k): (v / ref if k.endswith(".s") else v)
         for k, v in m.items()}
    m["efun.eval.ref_per_point"] = m["efun.eval.ref"] / max(m["efun.eval.calls"], 1)
    m["linkpattern.lattice.ref"] = lattice["ref"]
    return m


def traced_lattices(workload: str) -> dict:
    """Rebuild the workload's lattices under the tracer."""
    from ellink import linkpattern

    linkpattern._lattice.cache_clear()
    tr = tracing.Tracer()
    before = bench.host_reference()
    tr.install()
    try:
        build_lattices(workload)
    finally:
        tr.restore()
    after = bench.host_reference()
    sizes = {k.rsplit(".", 1)[1]: v for k, v in tr.counts.items()
             if k.startswith("linkpattern.lattice.size.")}
    return {"ref": tr.seconds["linkpattern.lattice"] / (0.5 * (before + after)),
            "sizes": sizes}


def main(argv=None) -> int:
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Fixed string hashing gives every run the same dictionary layouts;
        # a random seed per process moves short requests by several percent.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = bench.import_cli()
    ref = bench.load_reference()
    requests = bench.WORKLOADS[args.workload](args.seed, ref)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "requests_per_pass": len(requests),
              "machine": bench.machine_record()}

    setup = measure_setup(args.workload) if not args.trace else None
    lattice = traced_lattices(args.workload) if args.trace else None
    build_lattices(args.workload)
    # The high-water mark so far is the benchmark's own (reference table,
    # host-reference kernel) and the lattices; peak_rss_mb is the growth
    # above it during the requests.
    bench.host_reference()
    rss_base = max_rss_mb()

    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    plain: list[Pass] = []
    traced: list[tuple[Pass, dict]] = []
    tr = tracing.Tracer()
    while True:
        t_round = time.perf_counter()
        this_round = [run_pass(cli, requests, ref, deadline)]
        plain.append(this_round[0])
        if args.trace and this_round[0].complete:
            tr.reset()
            tr.install()
            try:
                p = run_pass(cli, requests, ref, deadline)
            finally:
                tr.restore()
            traced.append((p, layer_snapshot(tr, p, lattice)))
            this_round.append(p)
        if not all(p.complete for p in this_round):
            break
        now = time.perf_counter()
        # A traced run needs two traced passes to check the exact counters.
        if now + (now - t_round) - start > args.seconds and len(traced) >= 2 * args.trace:
            break

    passes = plain + [p for p, _ in traced]
    failures = [f for p in passes for f in p.failures]
    attempted = max(sum(len(p.latencies) + p.unsent for p in passes), 1)
    problems = []
    record["ref_s_samples"] = [x for p in plain for x in p.ref_s]
    record["pass_wall_s"] = [p.wall for p in plain]

    if args.trace:
        exact = [{k: snap[k] for k in EXACT} for _, snap in traced]
        if len(traced) < 2:
            problems.append(f"{len(traced)} traced passes completed, fewer than two")
        elif any(e != exact[0] for e in exact[1:]):
            problems.append(f"exact counters differ between traced passes: {exact}")
        metrics = {}
        for name in PER_LAYER:
            vals = [snap[name] for _, snap in traced if name in snap]
            metrics[name] = median(vals) if vals else 0.0
        metrics["host.ref_s"] = median(record["ref_s_samples"])
        if traced:
            metrics["trace.overhead_share"] = (
                median([sum(p.normalized) for p, _ in traced])
                / median([sum(p.normalized) for p in plain]) - 1.0)
        else:
            metrics["trace.overhead_share"] = 0.0
        record["exact_counters"] = exact[0] if exact else {}
        record["traced_passes"] = len(traced)
        units = PER_LAYER
    else:
        metrics, extra = end_to_end(plain, requests, setup, rss_base, len(failures), attempted)
        record.update(extra)
        record["setup_s_samples"] = setup[0]
        units = END_TO_END
        record["setup_ratio_samples"] = setup[1]
        for name, unit in INFO_UNITS.items():
            print(f"{name:32s} {extra[name]!r} {unit} (not gated)")
    record["failures"] = failures[:20]
    record["problems"] = problems

    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]!r} {unit}")
    print(json.dumps({"record": record}))
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
