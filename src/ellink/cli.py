"""Command-line front end: parse patterns, run computations, emit JSON.

Every command writes a single JSON document (or array) to stdout or to
``--out``; every failure is a structured JSON error object and a nonzero
exit status, written to stdout when ``--out`` cannot be written.  Complex
numbers are serialised as [re, im] pairs of decimal strings with 17
significant digits so doubles round-trip exactly.  The output is strict
JSON: a report writes a failing residual that is not finite as null, and
any other NaN or infinite float is refused as a structured error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import cache
from random import Random

from .efun import EFun, ell_class_from_presentation, evaluate, random_point, sample
from .frozen import Frozen
from .identities import SUITES
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
from .theta import TAU_IM_MAX, TAU_IM_MIN, ModularParams
from .typecalc import VarSpace


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as a UsageError instead of exiting, and
    reads a token of a dash and a digit as a value."""

    def error(self, message):
        raise UsageError(message)

    def _parse_optional(self, arg_string):
        # "-3,1" or "-4,2:3>1,4>2" is a value to check, not an unknown option
        return None if arg_string[1:2].isdigit() else super()._parse_optional(arg_string)


# the residual tolerance of a verify run; other commands do not read it
DEFAULT_TOL = 1e-8


class RunConfig(Frozen):
    def __init__(
        self, tau: complex = 1j, tol: float = DEFAULT_TOL, samples: int = 64, seed: int = 0
    ):
        try:
            ModularParams(tau=tau)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        if samples < 1:
            raise UsageError("samples must be >= 1")
        if not (math.isfinite(tol) and tol > 0):
            raise UsageError(f"tol must be finite and positive, got {tol}")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "tol", tol)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "seed", seed)

    @property
    def params(self) -> ModularParams:
        return ModularParams(tau=self.tau)


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
    f = ell_class_from_presentation(pres)
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
    if suite != "all" and suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}; known: {', '.join(SUITES)}, all")
    # looked up per request, so a suite wrapped in SUITES after import is the one run
    runs = SUITES.values() if suite == "all" else [SUITES[suite]]
    args = (config.samples, config.tol, config.params, config.seed)
    reports = [r for run in runs for r in run(*args)]
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
                "distance": lattice.level(p.arc_set()),
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


@cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process, as a parser is full of reference cycles."""
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
                        help=f"imaginary part of tau, in [{TAU_IM_MIN:g}, {TAU_IM_MAX:g}] (default 1.0)")
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
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL,
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


def _emit(doc, out_path: str | None):
    text = json.dumps(doc, indent=2, allow_nan=False)
    if out_path and out_path != "-":
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _run(args) -> tuple[object, int]:
    """The command's JSON document and exit status."""
    if args.command == "orbits":
        return cmd_orbits(args.size), 0
    if args.command == "multiplicities":
        return cmd_multiplicities(args.pattern, args.lam), 0
    config = RunConfig(
        tau=complex(0.0, args.tau_im),
        tol=getattr(args, "tol", DEFAULT_TOL),
        samples=args.samples,
        seed=args.seed,
    )
    if args.command == "compute":
        return cmd_compute(args.pattern, config), 0
    if args.command == "verify":
        reports, ok = cmd_verify(args.suite, config)
        return reports, 0 if ok else 1
    if args.command == "restrict":
        return cmd_restrict(args.pattern, args.sigma, args.raw_mu, config), 0
    if args.command == "weights":
        return cmd_weights(args.pattern, not args.no_rtv, config), 0
    raise UsageError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    out_path = None
    try:
        args = _build_parser().parse_args(argv)
        out_path = args.out
        doc, code = _run(args)
        _emit(doc, out_path)
        return code
    except UsageError as exc:
        kind, message = "usage", str(exc)
    except (PatternError, ValueError, ArithmeticError, KeyError) as exc:
        kind, message = type(exc).__name__, str(exc)
    except (RecursionError, MemoryError) as exc:
        # The work outgrew the interpreter; by now its frames are unwound.
        kind, message = type(exc).__name__, str(exc) or "out of memory"
    except OSError as exc:
        # --out cannot be written, so the error goes to stdout
        kind, message, out_path = type(exc).__name__, str(exc), None
    try:
        _emit({"error": {"kind": kind, "message": message}}, out_path)
    except OSError as exc:
        _emit({"error": {"kind": type(exc).__name__, "message": str(exc)}}, None)
    return 2


if __name__ == "__main__":
    sys.exit(main())
