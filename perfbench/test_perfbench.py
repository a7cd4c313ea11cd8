"""Tests of the benchmark itself: each correctness check accepts the
program's real output and rejects a deliberately corrupted one, the tracer
sees internal calls, and the benchmark refuses a tree without sources.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracprop
import run
import tracer
import workloads
from workloads import CheckError

HERE = Path(__file__).resolve().parent


def test_benchmark_json_names_what_run_py_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    # evolve-csv is run by hand only; see README.md
    assert [w["name"] for w in spec["workloads"]] == ["verify-suite", "characterize-profiles"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert [m["name"] for m in spec["per_layer"]] == tracer.metric_names()
    assert all(m["unit"] == tracer.metric_unit(m["name"]) for m in spec["per_layer"])


# --- verify-suite ------------------------------------------------------------

@pytest.fixture(scope="module")
def verify_outputs(tmp_path_factory):
    suite = workloads.VerifySuite(0, tmp_path_factory.mktemp("verify"))
    outputs = {}
    for (alpha, beta), seed in zip(workloads.VERIFY_FAMILIES, suite.seeds):
        if (alpha, beta) in ((1.0, 1.0), (0.0, 0.0)):
            op = suite._operation(alpha, beta, seed, True)
            outputs[alpha, beta] = (seed, op.run())
    return outputs


def _check_verify(outputs, family, stdout=None, code=0, reference=None):
    seed, (_, real) = outputs[family]
    workloads.check_verify_report(code, real if stdout is None else stdout,
                                  family[0], family[1], seed, True, reference)


def test_verify_check_accepts_real_reports(verify_outputs):
    for family in verify_outputs:
        _, (_, stdout) = verify_outputs[family]
        _check_verify(verify_outputs, family, reference=stdout)


@pytest.mark.parametrize("old, new", [
    ("sup=2 ", "sup=1.9999999999 "),          # sup distance off by 1e-10
    ("probe=1.99", "probe=2.00"),             # probe above the sup
    ('"pass": true}', '"pass": false}'),      # overall verdict
])
def test_verify_check_rejects_corrupted_report(verify_outputs, old, new):
    _, (_, stdout) = verify_outputs[1.0, 1.0]
    assert old in stdout
    with pytest.raises(CheckError):
        _check_verify(verify_outputs, (1.0, 1.0), stdout.replace(old, new))


def test_verify_check_rejects_nonzero_sup_for_trivial_group(verify_outputs):
    _, (_, stdout) = verify_outputs[0.0, 0.0]
    with pytest.raises(CheckError):
        _check_verify(verify_outputs, (0.0, 0.0), stdout.replace("sup=0 ", "sup=0.5 "))


def test_verify_check_rejects_exit_code_and_changed_repeat(verify_outputs):
    _, (_, stdout) = verify_outputs[1.0, 1.0]
    with pytest.raises(CheckError):
        _check_verify(verify_outputs, (1.0, 1.0), code=1)
    with pytest.raises(CheckError):
        _check_verify(verify_outputs, (1.0, 1.0), reference=stdout.replace("0", "1", 1))


# --- evolve-csv --------------------------------------------------------------

@pytest.fixture()
def evolve(tmp_path):
    suite = workloads.EvolveCsv(0, tmp_path)
    forward, back = suite._operations(suite.cases[0])
    return suite.cases[0], forward, back


def _perturb_file(path, factor):
    x, values = workloads.read_csv(path)
    workloads.write_csv(path, "x,re,im", x, values * factor)


def test_evolve_checks_accept_real_output(evolve):
    case, forward, back = evolve
    forward.check(forward.run())
    back.check(back.run())


def test_evolve_check_rejects_phase_perturbed_by_1e6(evolve):
    case, forward, back = evolve
    stdout = forward.run()
    _perturb_file(case.forward_out, np.exp(1e-6j))
    with pytest.raises(CheckError):
        forward.check(stdout)


def test_evolve_check_rejects_wrong_beta(evolve):
    case, forward, _ = evolve
    argv = case.argv(case.t, case.input, case.forward_out)
    argv[argv.index("--beta") + 1] = repr(case.beta * (1.0 + 1e-6))
    code, stdout, _ = workloads.run_cli(argv)
    assert code == 0
    with pytest.raises(CheckError):
        forward.check(stdout)


def test_evolve_check_rejects_wrong_norm_and_unreturned_signal(evolve):
    case, forward, back = evolve
    stdout = forward.run()
    report = json.loads(stdout)
    report["norm_out"] *= 1.0 + 1e-9
    with pytest.raises(CheckError):
        forward.check(json.dumps(report))
    stdout = back.run()
    _perturb_file(case.back_out, 1.0 + 1e-6)
    with pytest.raises(CheckError):
        back.check(stdout)


# --- characterize-profiles ---------------------------------------------------

@pytest.fixture(scope="module")
def profiles(tmp_path_factory):
    suite = workloads.CharacterizeProfiles(0, tmp_path_factory.mktemp("profiles"))
    kinds = {}
    for profile in suite.profiles:
        kinds.setdefault(profile.kind, profile)
    # one power law with a nonzero branch integer, too
    kinds["power-law-branch"] = suite.profiles[2]
    return {kind: (p, workloads.characterize(p)) for kind, p in kinds.items()}


def test_characterize_checks_accept_real_output(profiles):
    assert set(profiles) == {"power-law", "power-law-branch", "wrong-pair", "not-power-law"}
    assert json.loads(profiles["power-law-branch"][1]["stdout"])["M"] != 0
    for profile, out in profiles.values():
        workloads.check_characterization(profile, out)


def _identify_field(out, field, value):
    found = json.loads(out["stdout"])
    found[field] = value
    return dict(out, stdout=json.dumps(found))


@pytest.mark.parametrize("corrupt", [
    lambda out: _identify_field(out, "beta", json.loads(out["stdout"])["beta"] * (1 + 1e-6)),
    lambda out: _identify_field(out, "alpha", json.loads(out["stdout"])["alpha"] + 1e-6),
    lambda out: _identify_field(out, "N", json.loads(out["stdout"])["M"] * 2 + 1),
    lambda out: _identify_field(out, "M", json.loads(out["stdout"])["M"] + 1),
    lambda out: dict(out, perturbed=out["given"]),
    lambda out: dict(out, given=out["perturbed"]),
    lambda out: dict(out, verdict=fracprop.classify_product(
        [fracprop.PhaseTerm(1.0, 1.0), fracprop.PhaseTerm(1.0, -0.5)])),
    lambda out: dict(out, continuity=fracprop.ContinuityReport(
        out["continuity"].eps, out["continuity"].omega, False, 1.0)),
    lambda out: dict(out, continuity=fracprop.ContinuityReport(
        out["continuity"].eps, out["continuity"].omega[::-1], True, 1.0)),
])
def test_characterize_check_rejects_corrupted_power_law(profiles, corrupt):
    profile, out = profiles["power-law-branch"]
    with pytest.raises(CheckError):
        workloads.check_characterization(profile, corrupt(out))


@pytest.mark.parametrize("kind", ["wrong-pair", "not-power-law"])
def test_characterize_check_rejects_accepted_bad_profile(profiles, kind):
    profile, out = profiles[kind]
    _, good_out = profiles["power-law"]
    with pytest.raises(CheckError):
        workloads.check_characterization(profile, dict(out, code=0))
    with pytest.raises(CheckError):
        workloads.check_characterization(profile, dict(out, code=4))
    with pytest.raises(CheckError):
        workloads.check_characterization(profile, dict(out, given=good_out["given"]))


def test_expected_branch_integer():
    assert workloads.expected_branch(0.7, 1.0) == 0
    assert workloads.expected_branch(0.7, 5.0) == 1
    assert workloads.expected_branch(0.7, -5.0) == -1


# --- tracer and harness ------------------------------------------------------

TRACED_VERIFY = """
import contextlib, io, json, sys
sys.path.insert(0, {here!r})
from checkout import use_checkout_source
fracprop = use_checkout_source()
import fracprop.cli, fracprop.grids, fracprop.operators
from tracer import Tracer
t = Tracer()
t.install()
assert fracprop.operators.forward_transform is fracprop.grids.forward_transform
assert fracprop.verify.forward_transform is fracprop.grids.forward_transform
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = fracprop.cli.main(["verify", "--alpha", "3", "--beta", "5", "--fast"])
report = json.loads(out.getvalue())
print(json.dumps({{"code": code, "checks": len(report["checks"]),
                  "metrics": t.per_operation(1)}}))
"""


def test_tracer_sees_internal_calls():
    proc = subprocess.run([sys.executable, "-c", TRACED_VERIFY.format(here=str(HERE))],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    m = result["metrics"]
    assert result["code"] == 0
    assert list(m) == tracer.metric_names()
    assert m["cli.main.calls"] == 1 and m["verify.run_verification.calls"] == 1
    assert m["grids.forward_transform.calls"] > 100    # called inside verify and operators
    assert m["grids.Spectrum.calls"] > m["grids.forward_transform.calls"]
    assert m["verify.checks_skipped"] == 1             # order_doubling_signal for (3, 5)
    assert m["verify.checks_run"] + m["verify.checks_skipped"] == result["checks"]
    assert all(m[name] >= 0.0 for name in m if name.endswith(".self_s"))


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-suite",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
