"""Command-line front end: parse patterns, run computations, emit JSON.

Every command writes a single JSON document (or array) to stdout or to
``--out``; every failure is a structured JSON error object and a nonzero
exit status.  Complex numbers are serialised as [re, im] pairs of decimal
strings with 17 significant digits so doubles round-trip exactly.  The
output is strict JSON: a NaN or infinite float (the residual of a failing
check) is written as null.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .efun import EFun, ell_class_from_presentation, evaluate, random_point, sample
from .identities import SUITES, UnknownSuite, run_all, run_suite
from .linkpattern import (
    PatternError,
    format_pattern,
    minimal_presentation,
    multiplicities,
    nu_list,
    orbit_lattice,
    parse_pattern,
)
from .schubert import reduced_class, restrict_fixed_point, weight_function
from .theta import ModularParams
from .typecalc import VarSpace


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as a UsageError instead of exiting."""

    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    tau: complex = 1j
    n_terms: int = 40
    tol: float = 1e-8
    samples: int = 64
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.tau.imag) and self.tau.imag >= 0.3):
            raise UsageError(f"Im(tau) must be finite and at least 0.3, got {self.tau.imag}")
        if self.samples < 1:
            raise UsageError("samples must be >= 1")
        if self.n_terms < 1:
            raise UsageError(f"q-terms must be >= 1, got {self.n_terms}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise UsageError(f"tol must be finite and positive, got {self.tol}")

    @property
    def params(self) -> ModularParams:
        return ModularParams(tau=self.tau, n_terms=self.n_terms)


def _cx(z: complex) -> list[str]:
    return [f"{z.real:.17g}", f"{z.imag:.17g}"]


def _point_json(space: VarSpace, values) -> dict:
    return {name: _cx(v) for name, v in zip(space.symbol_names, values)}


def _sample_values(f: EFun, config: RunConfig) -> list[dict]:
    params = config.params

    def trial(rng: Random) -> dict:
        pt = random_point(f.space, rng, params)
        val = evaluate(f, pt)
        return {"point": _point_json(f.space, pt.values), "value": _cx(val)}

    values, _ = sample(trial, config.samples, Random(config.seed))
    return values


def cmd_compute(pattern_text: str, config: RunConfig) -> dict:
    p = parse_pattern(pattern_text)
    pres = minimal_presentation(p)
    space = VarSpace(p.m, p.r)
    f = ell_class_from_presentation(pres, space)
    return {
        "pattern": format_pattern(p),
        "m": p.m,
        "r": p.r,
        "minimal_word": list(pres.word),
        "sigma": list(pres.sigma),
        "nu_list": [nu.to_json() for nu in nu_list(pres)],
        "type": f.qtype.to_json(),
        "sample_values": _sample_values(f, config),
    }


def cmd_verify(suite: str, config: RunConfig) -> tuple[list[dict], bool]:
    if suite == "all":
        reports = run_all(config.samples, config.tol, config.params, config.seed)
    else:
        try:
            reports = run_suite(suite, config.samples, config.tol, config.params, config.seed)
        except UnknownSuite as exc:
            raise UsageError(exc.args[0]) from None
    return [r.to_json() for r in reports], all(r.passed for r in reports)


def cmd_orbits(size: str) -> dict:
    try:
        m_str, r_str = size.split(",")
        m, r = int(m_str), int(r_str)
    except ValueError:
        raise UsageError(f"orbits expects 'm,r', got {size!r}") from None
    if m > 6:
        raise UsageError("orbit lattice dump is limited to m <= 6")
    lattice = orbit_lattice(m, r)
    counts = lattice.min_word_counts()
    patterns = []
    for p in lattice.patterns():
        pres = minimal_presentation(p)
        patterns.append(
            {
                "pattern": format_pattern(p),
                "distance": lattice.dist[p.arc_set()],
                "word": list(pres.word),
                "sigma": list(pres.sigma),
                "nu_multiset": sorted(str(nu) for nu in nu_list(pres)),
                "presentations": counts[p.arc_set()],
            }
        )
    return {"m": m, "r": r, "count": len(patterns), "patterns": patterns}


def cmd_restrict(pattern_text: str, sigma_text: str, raw_mu: bool, config: RunConfig) -> dict:
    p = parse_pattern(pattern_text)
    sigma = _parse_perm(sigma_text, p.r)
    f = reduced_class(p, mu_inverted=not raw_mu)
    g = restrict_fixed_point(f, sigma)
    return {
        "pattern": format_pattern(p),
        "sigma": list(sigma),
        "mu_inverted": not raw_mu,
        "sample_values": _sample_values(g, config),
    }


def cmd_weights(pattern_text: str, rtv: bool, config: RunConfig) -> dict:
    p = parse_pattern(pattern_text)
    f = weight_function(p, rtv_substitution=rtv)
    return {
        "pattern": format_pattern(p),
        "n": f.space.r,
        "rtv_substitution": rtv,
        "sample_values": _sample_values(f, config),
    }


def cmd_multiplicities(pattern_text: str, lam_text: str) -> dict:
    p = parse_pattern(pattern_text)
    try:
        lambdas = [Fraction(tok) for tok in lam_text.split(",")] if lam_text else []
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad lambda list {lam_text!r}") from None
    pres = minimal_presentation(p)
    alphas = multiplicities(pres, lambdas)
    return {
        "pattern": format_pattern(p),
        "word": list(pres.word),
        "lambda": [str(l) for l in lambdas],
        "alphas": [str(a) for a in alphas],
    }


def _parse_perm(text: str, n: int) -> tuple[int, ...]:
    try:
        sigma = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError(f"bad permutation {text!r}") from None
    if sorted(sigma) != list(range(1, n + 1)):
        raise UsageError(f"{text!r} is not a permutation of 1..{n}")
    return sigma


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ellink",
        description="compute and verify elliptic classes of labelled link patterns",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(sp):
        sp.add_argument("--out", default=None, metavar="PATH",
                        help="write JSON here instead of stdout")

    def add_sampling(sp):
        sp.add_argument("--tau-im", type=float, default=1.0, metavar="T",
                        help="imaginary part of tau (default 1.0)")
        sp.add_argument("--q-terms", type=int, default=40, metavar="N",
                        help="maximum q-product factors per theta value; fewer are "
                             "used once the rest lie within 2^-64 of 1 (default 40)")
        sp.add_argument("--samples", type=int, default=64,
                        help="sample points per check (default 64)")
        sp.add_argument("--seed", type=int, default=0,
                        help="random seed (default 0)")
        add_out(sp)

    sp = sub.add_parser("compute", help="elliptic class of a pattern")
    sp.add_argument("pattern", help="pattern text, e.g. 8,2:7>1,8>2")
    add_sampling(sp)

    sp = sub.add_parser("verify", help="run identity suites")
    sp.add_argument("suite", help=f"one of {', '.join(SUITES)}, or all")
    sp.add_argument("--tol", type=float, default=1e-8,
                    help="residual tolerance (default 1e-8)")
    add_sampling(sp)

    sp = sub.add_parser("orbits", help="BFS lattice dump (m <= 6)")
    sp.add_argument("size", help="lattice size as m,r")
    add_out(sp)

    sp = sub.add_parser("restrict", help="fixed-point restriction of the reduced class")
    sp.add_argument("pattern")
    sp.add_argument("--sigma", required=True, help="permutation images, e.g. 2,1")
    sp.add_argument("--raw-mu", action="store_true",
                    help="skip the mu inversion used for Schubert comparison")
    add_sampling(sp)

    sp = sub.add_parser("weights", help="elliptic weight function of a pattern")
    sp.add_argument("pattern")
    sp.add_argument("--no-rtv", action="store_true",
                    help="skip the mu_i := h mu_n / mu_i substitution")
    add_sampling(sp)

    sp = sub.add_parser("multiplicities", help="boundary multiplicities of a pattern")
    sp.add_argument("pattern")
    sp.add_argument("--lam", required=True,
                    help="comma-separated rational lambda per arc, e.g. 1/2,1/3")
    add_out(sp)

    return parser


def _finite(doc):
    """The document with each NaN or infinite float written as None, which
    strict JSON can carry (a failing check reports an infinite residual)."""
    if isinstance(doc, float):
        return doc if math.isfinite(doc) else None
    if isinstance(doc, dict):
        return {k: _finite(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_finite(v) for v in doc]
    return doc


def _emit(doc, out_path: str | None):
    text = json.dumps(_finite(doc), indent=2, allow_nan=False)
    if out_path and out_path != "-":
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def main(argv=None) -> int:
    out_path = None
    try:
        args = _build_parser().parse_args(argv)
        out_path = args.out
        if args.command == "orbits":
            _emit(cmd_orbits(args.size), out_path)
            return 0
        if args.command == "multiplicities":
            _emit(cmd_multiplicities(args.pattern, args.lam), out_path)
            return 0
        config = RunConfig(
            tau=complex(0.0, args.tau_im),
            n_terms=args.q_terms,
            tol=getattr(args, "tol", RunConfig.tol),
            samples=args.samples,
            seed=args.seed,
        )
        if args.command == "compute":
            _emit(cmd_compute(args.pattern, config), out_path)
            return 0
        if args.command == "verify":
            reports, ok = cmd_verify(args.suite, config)
            _emit(reports, out_path)
            return 0 if ok else 1
        if args.command == "restrict":
            _emit(cmd_restrict(args.pattern, args.sigma, args.raw_mu, config), out_path)
            return 0
        if args.command == "weights":
            _emit(cmd_weights(args.pattern, not args.no_rtv, config), out_path)
            return 0
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        _emit({"error": {"kind": "usage", "message": str(exc)}}, out_path)
        return 2
    except (PatternError, ValueError, ArithmeticError, KeyError) as exc:
        _emit(
            {"error": {"kind": type(exc).__name__, "message": str(exc)}},
            out_path,
        )
        return 2
    except (RecursionError, MemoryError) as exc:
        # The work outgrew the interpreter; by now its frames are unwound.
        message = str(exc) or "out of memory"
        _emit({"error": {"kind": type(exc).__name__, "message": message}}, out_path)
        return 2


if __name__ == "__main__":
    sys.exit(main())
