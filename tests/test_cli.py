"""Command-line surface: JSON documents, determinism, structured errors."""

import json
import subprocess
import sys

import pytest

from ellink.cli import main
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
    "argv",
    [
        ["compute"],
        ["verify", "all", "--samples", "x"],
        ["orbits", "4,2", "--tol", "5"],
        ["compute", "4,2:3>1,4>2", "--q-terms", "0", "--samples", "1"],
        ["compute", "4,2:3>1,4>2", "--q-terms", "-5", "--samples", "1"],
        ["multiplicities", "3,1:1>2", "--lam", "abc"],
        ["multiplicities", "3,1:1>2", "--lam", "1/0"],
    ],
    ids=[
        "missing-pattern",
        "bad-int",
        "unread-option",
        "q-terms-zero",
        "q-terms-negative",
        "lam-not-rational",
        "lam-zero-denominator",
    ],
)
def test_bad_command_line_is_a_structured_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"]["kind"] == "usage"
    assert captured.err == ""


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
        ["verify", "theta", "--tol", "nan"],
        ["verify", "theta", "--tol", "inf"],
    ],
    ids=["tau-nan-verify", "tau-nan-compute", "tau-inf", "tol-nan", "tol-inf"],
)
def test_non_finite_config_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "usage"


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_failing_residual_is_strict_json(monkeypatch, capsys):
    """A NaN residual fails the check as an infinite residual, which the
    report writes as null, not as the non-JSON token Infinity."""
    nan = float("nan")
    monkeypatch.setattr("ellink.identities.evaluate_many", lambda tape, pt: [1.0, nan])
    assert main(["verify", "vanishing", "--samples", "10"]) == 1
    out = capsys.readouterr().out
    (report,) = json.loads(out, parse_constant=_reject_constant)
    assert report["max_relative_residual"] is None
    assert report["passed"] is False
    assert '"max_relative_residual": null' in out


def _report(name, samples, residual, tol):
    return {"name": name, "samples": samples, "max_relative_residual": residual,
            "tolerance": tol, "passed": True, "resamples": 0}


PINNED_REPORTS = {
    "independence": [
        _report("word_independence_2_1", 0, 0.0, 1e-08),
        _report("word_independence_3_1", 10, 4.523056709080981e-15, 1e-08),
        _report("word_independence_4_2", 80, 3.533426095670089e-14, 1e-08),
    ],
    "vanishing": [_report("vanishing", 20, 7.789516956985235e-14, 1e-10)],
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
            "message": "no pole-free point found in 101 draws",
        }
    }
    assert len(trials) == 101
