"""Command-line surface: JSON documents, determinism, structured errors."""

import gc
import json
import subprocess
import sys
import time

import pytest

from ellink.cli import main
from ellink.efun import ell_min
from ellink.identities import SUITES, IdentityReport, flip_sides
from ellink.theta import PoleProximity


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "ellink.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout


def test_compute_minimal_pattern():
    code, out = run_cli("compute", "8,2:7>1,8>2", "--samples", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["minimal_word"] == []
    assert doc["sigma"] == [1, 2]
    assert doc["nu_list"] == []
    assert ["x1", "mu1", "1/2"] in doc["type"]
    assert len(doc["sample_values"]) == 2
    point = doc["sample_values"][0]["point"]
    assert set(point) == {"x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "u", "h", "mu1", "mu2"}


def test_compute_rejects_repeated_endpoint():
    code, out = run_cli("compute", "8,2:7>7")
    assert code == 2
    err = json.loads(out)
    assert err["error"]["kind"] == "DistinctnessError"


def test_compute_deterministic():
    code1, out1 = run_cli("compute", "4,2:3>1,4>2", "--seed", "0", "--samples", "4")
    code2, out2 = run_cli("compute", "4,2:3>1,4>2", "--seed", "0", "--samples", "4")
    assert code1 == code2 == 0
    assert out1 == out2


def test_repeated_requests_leave_little_cyclic_garbage(capsys):
    """In-process requests free their work by reference counting.  Garbage
    in reference cycles waits for a full collection, whose timing varies, so
    a request that left much of it would make a long-running caller's memory
    peak vary from run to run.  The JSON encoder's closures, a few dozen
    objects, are all that is left: after a class, and after the checks that
    build a whole lattice's classes and both sides of the flip relation."""
    for argv in (
        ["compute", "4,2:3>1,4>2", "--samples", "2"],
        ["verify", "independence", "--samples", "2"],
        ["verify", "flip", "--samples", "2"],
    ):
        assert main(argv) == 0
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
        finally:
            left = gc.collect()
            gc.enable()
        capsys.readouterr()
        assert left < 100, (argv, left)


@pytest.mark.parametrize(
    "argv", [["compute", "0,0:"], ["orbits", "0,0"]], ids=["compute", "orbits"]
)
def test_pattern_without_nodes_is_a_pattern_error(argv):
    """m = 0 is rejected by the pattern layer, not the symbol space below it."""
    code, out = run_cli(*argv)
    assert code == 2
    assert json.loads(out)["error"] == {
        "kind": "NoNodes",
        "message": "a pattern needs at least one node, got m = 0",
    }


def test_sample_count_is_capped(capsys):
    """--samples runs from 1 to 1024: one more is a usage error before any
    work is done, and 1024 samples of the one-node pattern compute."""
    start = time.perf_counter()
    assert main(["compute", "3,1:3>1", "--samples", "1025"]) == 2
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "usage",
        "message": "samples must be in [1, 1024], got 1025",
    }
    assert main(["compute", "1,0:", "--samples", "1024"]) == 0
    assert len(json.loads(capsys.readouterr().out)["sample_values"]) == 1024


def test_pattern_size_is_capped(capsys):
    """A pattern text with more than 64 nodes is a pattern error before
    any work is done; the 64-node minimal pattern still computes."""
    start = time.perf_counter()
    assert main(["compute", "65,1:65>1", "--samples", "1"]) == 2
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "TooManyNodes",
        "message": "a pattern may have at most 64 nodes, got m = 65",
    }
    assert main(["compute", "64,1:64>1", "--samples", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["m"], doc["minimal_word"], len(doc["sample_values"])) == (64, [], 1)


def test_verify_fourterm():
    code, out = run_cli("verify", "fourterm", "--samples", "50")
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["name"] == "fourterm"
    assert reports[0]["passed"] is True


def test_verify_unknown_suite():
    code, out = run_cli("verify", "nonsense")
    assert code == 2
    err = json.loads(out)
    assert err["error"]["kind"] == "usage"
    assert err["error"]["message"] == (
        "unknown suite 'nonsense'; known: theta, fourterm, braid, operators, "
        "monstrous, flip, independence, vanishing, all"
    )


def test_orbits():
    code, out = run_cli("orbits", "4,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 12
    top = [p for p in doc["patterns"] if p["distance"] == 5]
    assert len(top) == 1
    assert len(top[0]["nu_multiset"]) == 5
    code, _ = run_cli("orbits", "8,2")
    assert code == 2


# modules a fresh CLI process has no use for: the dataclass machinery (with
# what it imports) and typing
_HEAVY_AT_START = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}


def test_cli_import_skips_the_heavy_standard_modules():
    probe = (
        "import sys; bare = set(sys.modules); import ellink.cli; "
        "print(*sorted(set(sys.modules) - bare))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "ellink.cli" in added
    assert added & _HEAVY_AT_START == set()


def test_fresh_process_prints_what_main_prints(capsys):
    code, out = run_cli("orbits", "4,2")
    assert main(["orbits", "4,2"]) == 0
    assert code == 0
    assert out == capsys.readouterr().out


def test_restrict_identity_is_one():
    code, out = run_cli("restrict", "4,2:3>1,4>2", "--sigma", "1,2", "--samples", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["mu_inverted"] is True
    for sample in doc["sample_values"]:
        re, im = (float(s) for s in sample["value"])
        assert abs(complex(re, im) - 1) < 1e-8


def test_restrict_off_identity_is_zero():
    code, out = run_cli(
        "restrict", "4,2:3>1,4>2", "--sigma", "2,1", "--samples", "2", "--raw-mu"
    )
    assert code == 0
    doc = json.loads(out)
    for sample in doc["sample_values"]:
        re, im = (float(s) for s in sample["value"])
        assert abs(complex(re, im)) < 1e-8


def test_weights_command():
    code, out = run_cli("weights", "5,2:4>1,5>2", "--samples", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3 and doc["rtv_substitution"] is True
    code, out = run_cli("weights", "5,2:4>1,5>2", "--no-rtv", "--samples", "1")
    assert json.loads(out)["rtv_substitution"] is False


def test_multiplicities_command():
    code, out = run_cli("multiplicities", "3,1:1>2", "--lam", "3/7")
    assert code == 0
    doc = json.loads(out)
    assert doc["word"] == [1, 2]
    assert doc["alphas"] == ["13/7", "10/7"]


@pytest.mark.parametrize("lam", ["1e100000000", "1e-100000000", "1e1001"])
def test_multiplicities_refuse_a_large_exponent_at_once(capsys, lam):
    """A --lam exponent beyond MAX_LAM_EXPONENT is a usage error before
    Fraction writes out 10**e; a plain rational still works."""
    start = time.perf_counter()
    assert main(["multiplicities", "3,1:1>2", "--lam", lam]) == 2
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "usage"
    for ok, alphas in [("3/7", ["13/7", "10/7"]), ("1/2", ["2", "3/2"])]:
        assert main(["multiplicities", "3,1:1>2", "--lam", ok]) == 0
        assert json.loads(capsys.readouterr().out)["alphas"] == alphas


def test_math_error_is_structured():
    # weight shape mismatch surfaces as a JSON error object, not a traceback
    code, out = run_cli("weights", "4,2:3>1,4>2")
    assert code == 2
    err = json.loads(out)
    assert err["error"]["kind"] == "NotWeightPattern"


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    assert main(["verify", "fourterm", "--samples", "20", "--out", str(target)]) == 0
    doc = json.loads(target.read_text())
    assert doc[0]["passed"] is True


@pytest.mark.parametrize(
    "exc, message",
    [
        (RecursionError("maximum recursion depth exceeded"), "maximum recursion depth exceeded"),
        (MemoryError(), "out of memory"),
    ],
    ids=["RecursionError", "MemoryError"],
)
def test_resource_exhaustion_is_a_structured_error(monkeypatch, capsys, exc, message):
    def exhausted(pattern_text, config):
        raise exc

    monkeypatch.setattr("ellink.cli.cmd_compute", exhausted)
    assert main(["compute", "4,2:3>1,4>2"]) == 2
    captured = capsys.readouterr()
    err = json.loads(captured.out)
    assert err == {"error": {"kind": type(exc).__name__, "message": message}}
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["compute"], "usage"),
        (["verify", "all", "--samples", "x"], "usage"),
        (["orbits", "4,2", "--tol", "5"], "usage"),
        (["compute", "4,2:3>1,4>2", "--q-terms", "0", "--samples", "1"], "usage"),
        (["compute", "4,2:3>1,4>2", "--q-terms", "-5", "--samples", "1"], "usage"),
        (["multiplicities", "3,1:1>2", "--lam", "abc"], "usage"),
        (["multiplicities", "3,1:1>2", "--lam", "1/0"], "usage"),
        (["compute", "4,2:3>1,4>2", "--samples", "-5"], "usage"),
        # a positional that starts with a dash and a digit is a value
        (["orbits", "-3,1"], "NoNodes"),
        (["compute", "-4,2:3>1,4>2"], "PatternSyntaxError"),
    ],
    ids=[
        "missing-pattern",
        "bad-int",
        "unread-option",
        "q-terms-zero",
        "q-terms-negative",
        "lam-not-rational",
        "lam-zero-denominator",
        "samples-negative",
        "orbits-negative-size",
        "compute-negative-size",
    ],
)
def test_bad_command_line_is_a_structured_error(capsys, argv, kind):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"]["kind"] == kind
    assert captured.err == ""


@pytest.mark.parametrize(
    "text, message",
    [
        ("-4,2:3>1,4>2", "expected an integer, got '-' (at offset 0)"),
        ("4,2:3>1,4>", "expected an integer, got end of input (at offset 10)"),
        ("4;2:3>1,4>2", "expected ',', got ';' (at offset 1)"),
        ("4,2:3>1", "expected ',', got end of input (at offset 7)"),
    ],
    ids=["negative-size", "cut-integer", "wrong-separator", "cut-separator"],
)
def test_pattern_syntax_error_names_what_it_found(capsys, text, message):
    assert main(["compute", text]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"kind": "PatternSyntaxError", "message": message}


def test_config_validation():
    assert main(["verify", "fourterm", "--tau-im", "0.1"]) == 2
    assert main(["verify", "fourterm", "--samples", "0"]) == 2
    assert main(["verify", "fourterm", "--tol", "-1"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "all", "--tau-im", "nan"],
        ["compute", "4,2:3>1,4>2", "--tau-im", "nan", "--samples", "1"],
        ["compute", "4,2:3>1,4>2", "--tau-im", "inf", "--samples", "1"],
        ["compute", "4,2:3>1,4>2", "--tau-im", "1e308", "--samples", "1"],
        ["verify", "all", "--tau-im", "100.01"],
        ["verify", "theta", "--tol", "nan"],
        ["verify", "theta", "--tol", "inf"],
    ],
    ids=["tau-nan-verify", "tau-nan-compute", "tau-inf", "tau-1e308", "tau-above-bound",
         "tol-nan", "tol-inf"],
)
def test_non_finite_config_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "usage"
    if "--tau-im" in argv:
        assert "100]" in error["message"]


def test_verify_all_passes_at_the_tau_bound(capsys):
    """At the largest accepted Im(tau) every suite still passes."""
    assert main(["verify", "all", "--samples", "8", "--tau-im", "100"]) == 0
    assert all(r["passed"] for r in json.loads(capsys.readouterr().out))


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_failing_residual_is_strict_json(monkeypatch, capsys):
    """A NaN residual fails the check as an infinite residual, which the
    report writes as null, not as the non-JSON token Infinity."""
    nan = float("nan")
    # one value per root of the vanishing tape: summand, class, summand, class
    stub = lambda tape, pt: [1.0, nan, 1.0, nan]
    monkeypatch.setattr("ellink.efun.evaluate_many", stub)
    assert main(["verify", "vanishing", "--samples", "10"]) == 1
    out = capsys.readouterr().out
    (report,) = json.loads(out, parse_constant=_reject_constant)
    assert report["max_relative_residual"] is None
    assert report["passed"] is False
    assert '"max_relative_residual": null' in out


def test_flip_sides_of_different_types_fail_the_report(monkeypatch, capsys):
    """Flip sides whose types differ fail their report without sampling,
    with the infinite residual written as null."""

    def mismatched(m, r, k):
        return flip_sides(m, r, k)[0], ell_min(m, r)

    monkeypatch.setattr("ellink.identities.flip_sides", mismatched)
    assert main(["verify", "flip"]) == 1
    reports = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert reports == [
        {"name": name, "samples": 0, "max_relative_residual": None,
         "tolerance": 1e-08, "passed": False, "resamples": 0}
        for name in ("flip_4_2_1", "flip_6_3_1", "flip_6_3_2")
    ]


def test_other_non_finite_floats_are_a_structured_error(monkeypatch, capsys):
    """Only a report writes its residual as null; any other non-finite
    float in a document is refused rather than written as Infinity."""
    monkeypatch.setattr("ellink.cli.cmd_orbits", lambda size: {"x": float("inf")})
    assert main(["orbits", "4,2"]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["kind"] == "ValueError"


def test_verify_runs_the_suites_in_the_registry(monkeypatch, capsys):
    """verify looks each suite up in SUITES per request, so a suite put
    there after import (as a tracer wraps them) is the one that runs."""
    stub = IdentityReport("stub", 1, 0.0, 1e-8, True)
    monkeypatch.setitem(SUITES, "fourterm", lambda samples, tol, params, seed: [stub])
    assert main(["verify", "fourterm"]) == 0
    assert json.loads(capsys.readouterr().out) == [stub.to_json()]
    assert main(["verify", "all", "--samples", "8"]) == 0
    names = [r["name"] for r in json.loads(capsys.readouterr().out)]
    assert names == [
        "theta_laws", "stub", "braid_coefficients", "braid_operator",
        "quadratic_operator", "monstrous", "flip_4_2_1", "flip_6_3_1", "flip_6_3_2",
        "word_independence_3_1", "word_independence_4_2", "vanishing",
    ]


def _report(name, samples, residual, tol):
    return {"name": name, "samples": samples, "max_relative_residual": residual,
            "tolerance": tol, "passed": True, "resamples": 0}


# Residuals re-recorded when theta took its q-product in the pair form
# (1 + q^2n) - q^n (z + 1/z), and again when it became a series on the
# fundamental strip; the sample counts did not move.
PINNED_REPORTS = {
    # (4,2) re-recorded when the lattice's arc sets came to share one tape
    # and one point stream
    "independence": [
        _report("word_independence_3_1", 10, 6.658295693079723e-15, 1e-08),
        _report("word_independence_4_2", 60, 1.8581648585272255e-14, 1e-08),
    ],
    # re-recorded when both classes came onto one tape and one point stream
    "vanishing": [_report("vanishing", 20, 6.819377068263951e-15, 1e-10)],
}


@pytest.mark.parametrize("suite", list(PINNED_REPORTS))
def test_verify_report_is_pinned(capsys, suite):
    """The exact stdout of two class-level suites at seed 0, 16 samples."""
    assert main(["verify", suite, "--seed", "0", "--samples", "16"]) == 0
    assert capsys.readouterr().out == json.dumps(PINNED_REPORTS[suite], indent=2) + "\n"


def test_exhausted_redraws_are_a_structured_error(monkeypatch, capsys):
    """A class that sits on a pole at every point: compute gives up on its
    first sample after RESAMPLE_CAP + 1 = 101 trials."""
    trials = []

    def on_a_pole(f, pt):
        trials.append(pt)
        raise PoleProximity("delta leaf too close to a theta zero")

    monkeypatch.setattr("ellink.cli.evaluate", on_a_pole)
    assert main(["compute", "4,2:3>1,4>2", "--samples", "2"]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err == {
        "error": {
            "kind": "PoleProximity",
            "message": "no pole-free point found in 101 draws;"
            " the last: delta leaf too close to a theta zero",
        }
    }
    assert len(trials) == 101


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["compute", "3,1:3>1", "--samples", "1"], "FileNotFoundError"),
        (["compute", "3,1:3>", "--samples", "1"], "FileNotFoundError"),
        (["orbits", "4,2"], "IsADirectoryError"),
    ],
    ids=["missing-directory", "failed-command", "directory"],
)
def test_unwritable_out_path_is_a_structured_error(tmp_path, capsys, argv, kind):
    """An --out path that cannot be written is reported on stdout, also
    when the command itself failed and its error was meant for that path."""
    target = tmp_path if kind == "IsADirectoryError" else tmp_path / "missing" / "x.json"
    assert main([*argv, "--out", str(target)]) == 2
    captured = capsys.readouterr()
    error = json.loads(captured.out)["error"]
    assert error["kind"] == kind and str(target) in error["message"]
    assert captured.err == ""
