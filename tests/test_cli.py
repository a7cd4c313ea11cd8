"""CLI surface: flags, exit codes, JSON determinism, file handling."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import fracprop as fp
import fracprop.errors as errors
import fracprop.semistability as semistability
import fracprop.symbols as symbols
from fracprop import cli


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(argv):
    """``python -m fracprop.cli argv`` in a fresh process, with this tree's
    package first on the path and Python's default warning filters."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "fracprop.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def make_signal_file(path, n=2048, x_max=40.0, width=0.25, carrier=2.0):
    grid = fp.SpatialGrid(n, x_max)
    packet = fp.gaussian_packet(grid, spectral_width=width, carrier=carrier)
    fp.save_signal_csv(path, packet)
    return packet


def make_symbol_file(path, alpha, beta, r_lo, r_hi, num=4096):
    tab = fp.tabulate(fp.ClosedForm(alpha, beta), r_lo, r_hi, num)
    fp.save_symbol_csv(path, tab)
    return tab


def test_evolve_unitary_and_summary(tmp_path, capsys):
    src = tmp_path / "in.csv"
    out = tmp_path / "out.csv"
    packet = make_signal_file(src)
    code, stdout, _ = run_cli(capsys, [
        "evolve", "--alpha", "2", "--beta", "1", "--t", "1",
        "--input", str(src), "--output", str(out), "--band", "8",
    ])
    assert code == 0
    report = json.loads(stdout)
    assert report["schema"] == 1
    assert abs(report["norm_out"] - report["norm_in"]) <= 1e-10 * report["norm_in"]
    evolved = fp.load_signal_csv(out)
    assert evolved.grid.n == 2048


def test_evolve_zero_coefficient_is_projection(tmp_path, capsys):
    src = tmp_path / "in.csv"
    out = tmp_path / "out.csv"
    packet = make_signal_file(src)
    code, stdout, _ = run_cli(capsys, [
        "evolve", "--alpha", "2", "--beta", "0", "--t", "1",
        "--input", str(src), "--output", str(out), "--band", "8",
    ])
    assert code == 0  # beta = 0 evolves by the identity on the band
    evolved = fp.load_signal_csv(out)
    band = fp.BandSpec(8.0)
    projected = fp.inverse_transform(
        fp.band_project(fp.forward_transform(packet), band)
    )
    err = np.linalg.norm(evolved.values - projected.values) * np.sqrt(evolved.grid.dx)
    assert err <= 1e-12 * projected.norm()


def test_evolve_missing_input_no_partial_output(tmp_path, capsys):
    out = tmp_path / "never.csv"
    code, _, err = run_cli(capsys, [
        "evolve", "--alpha", "2", "--beta", "1", "--t", "1",
        "--input", str(tmp_path / "absent.csv"), "--output", str(out), "--band", "8",
    ])
    assert code == 2
    assert not out.exists()
    assert "not found" in err


def test_evolve_malformed_csv(tmp_path, capsys):
    src = tmp_path / "bad.csv"
    src.write_text("x,re,im\n0,1,0\n1,2,nope\n")
    out = tmp_path / "never.csv"
    code, _, _ = run_cli(capsys, [
        "evolve", "--alpha", "2", "--beta", "1", "--t", "1",
        "--input", str(src), "--output", str(out), "--band", "8",
    ])
    assert code == 2
    assert not out.exists()


def test_evolve_unresolvable_band(tmp_path, capsys):
    src = tmp_path / "in.csv"
    make_signal_file(src, n=64, x_max=8.0)
    code, _, err = run_cli(capsys, [
        "evolve", "--alpha", "2", "--beta", "1", "--t", "1",
        "--input", str(src), "--output", str(tmp_path / "o.csv"), "--band", "12",
    ])
    assert code == 3


def test_evolve_phase_overflow_is_a_usage_error(tmp_path, capsys):
    src = tmp_path / "in.csv"
    out = tmp_path / "o.csv"
    make_signal_file(src)
    code, stdout, err = run_cli(capsys, [
        "evolve", "--alpha", "400", "--beta", "1", "--t", "1",
        "--input", str(src), "--output", str(out), "--band", "8",
    ])
    assert code == 2
    assert stdout == "" and not out.exists()
    assert err.startswith("error: phase 1*|xi|**400 overflows") and err.count("\n") == 1


def test_evolve_grid_consistency_flags(tmp_path, capsys):
    src = tmp_path / "in.csv"
    make_signal_file(src)
    code, _, _ = run_cli(capsys, [
        "evolve", "--alpha", "2", "--beta", "1", "--t", "1",
        "--input", str(src), "--output", str(tmp_path / "o.csv"), "--band", "8",
        "--grid-n", "1024",
    ])
    assert code == 2


@pytest.mark.parametrize("output", ["missing/o.csv", "a_directory"])
def test_evolve_unwritable_output_is_a_usage_error(tmp_path, capsys, output):
    # a missing directory, or a directory where the file should go: one error
    # line, no traceback, and neither the output nor its temp file left behind
    make_signal_file(tmp_path / "in.csv")
    (tmp_path / "a_directory").mkdir()
    before = sorted(p.name for p in tmp_path.rglob("*"))
    out = tmp_path / output
    code, stdout, err = run_cli(capsys, [
        "evolve", "--alpha", "2", "--beta", "1", "--t", "1",
        "--input", str(tmp_path / "in.csv"), "--output", str(out), "--band", "8",
    ])
    assert code == cli.EXIT_USAGE and stdout == ""
    assert err.startswith(f"error: cannot write output file {out}: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.rglob("*")) == before


def test_evolve_overflowing_spectrum_is_a_usage_error(tmp_path, capsys):
    # samples of 1e308 are finite, but their transform overflows: the
    # spectrum's finiteness check raises the error reported, and numpy's
    # overflow warnings are not printed ahead of it
    src = tmp_path / "big.csv"
    fp.save_signal_csv(src, fp.SampledSignal(fp.SpatialGrid(1024, 32.0), np.full(1024, 1e308)))
    out = tmp_path / "o.csv"
    argv = ["evolve", "--alpha", "2", "--beta", "1", "--t", "1",
            "--input", str(src), "--output", str(out), "--band", "4"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_cli(capsys, argv)
    assert result == (cli.EXIT_USAGE, "", "error: samples contain non-finite values\n")
    proc = run_cli_process(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == result
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.csv"]


@pytest.mark.parametrize("row", [0, 128, 200])
def test_evolve_overflowing_inverse_is_a_usage_error(tmp_path, capsys, row):
    # one sample of 1.5e308 on 256 rows at dx = 2: the spectrum is finite,
    # the inverse transform of its band bins is not, and numpy's overflow
    # warnings are not printed ahead of the error
    values = np.zeros(256, dtype=complex)
    values[row] = 1.5e308
    src = tmp_path / "spike.csv"
    fp.save_signal_csv(src, fp.SampledSignal(fp.SpatialGrid(256, 256.0), values))
    argv = ["evolve", "--alpha", "2", "--beta", "1", "--t", "1", "--band", "1.3",
            "--input", str(src), "--output", str(tmp_path / "o.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_cli(capsys, argv)
    assert result == (cli.EXIT_USAGE, "", "error: samples contain non-finite values\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spike.csv"]


def test_evolve_huge_finite_samples_report_their_norm(tmp_path, capsys):
    # samples of 1e200 + 1e200i are finite and so is their spectrum, but
    # sum |f|^2 overflows: the norm is taken scaled, with no overflow warning
    src = tmp_path / "huge.csv"
    fp.save_signal_csv(src, fp.SampledSignal(fp.SpatialGrid(2048, 64.0),
                                             np.full(2048, 1e200 + 1e200j)))
    out = tmp_path / "o.csv"
    argv = ["evolve", "--alpha", "2", "--beta", "1", "--t", "1",
            "--input", str(src), "--output", str(out), "--band", "8"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    report = json.loads(stdout)
    assert report["norm_in"] == pytest.approx(1.6e201, rel=1e-12)
    assert report["norm_out"] == 0.0  # the constant lies at xi = 0, outside the band
    proc = run_cli_process(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, stdout, "")


def test_evolve_report_failure_leaves_no_output(tmp_path, capsys, monkeypatch):
    # the report is rendered before the output is written
    make_signal_file(tmp_path / "in.csv")

    def failing(obj):
        raise errors.InvalidInputError("report cannot be rendered")

    monkeypatch.setattr(cli, "render_json", failing)
    code, stdout, _ = run_cli(capsys, [
        "evolve", "--alpha", "2", "--beta", "1", "--t", "1",
        "--input", str(tmp_path / "in.csv"), "--output", str(tmp_path / "o.csv"),
        "--band", "8",
    ])
    assert (code, stdout) == (cli.EXIT_USAGE, "")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


@pytest.mark.usefixtures("umask_022")
@pytest.mark.parametrize("existing, expected", [(None, 0o644), (0o600, 0o600), (0o664, 0o664)],
                         ids=["new", "kept-0600", "kept-0664"])
def test_evolve_output_file_mode(tmp_path, capsys, existing, expected):
    # a new file gets 0o666 less the umask, as open() would give it, not
    # mkstemp's 0o600; an overwritten file keeps its mode
    make_signal_file(tmp_path / "in.csv")
    out = tmp_path / "o.csv"
    if existing is not None:
        out.write_text("old\n")
        out.chmod(existing)
    code, _, _ = run_cli(capsys, [
        "evolve", "--alpha", "2", "--beta", "1", "--t", "1",
        "--input", str(tmp_path / "in.csv"), "--output", str(out), "--band", "8",
    ])
    assert code == 0
    assert out.stat().st_mode & 0o777 == expected
    assert fp.load_signal_csv(out).grid.n == 2048


def _ripple_profile(path):
    # log-periodic ripple with period ln 2: branch-consistent for (2, 3) but
    # not reproducible by any pure power law
    s = np.linspace(-2.0, 2.0, 2048)
    phi = np.exp(s) + 0.01 * np.sin(2.0 * np.pi * s / np.log(2.0))
    fp.save_symbol_csv(path, fp.Tabulated(np.exp(s), np.exp(1j * phi)))


def _error_table_case(tmp_path, code):
    """An invocation whose library error maps to ``code``."""
    sym = str(tmp_path / "sym.csv")
    if code == cli.EXIT_USAGE:
        return ["verify", "--alpha", "0", "--beta", "1"]
    if code == cli.EXIT_BAND:
        make_signal_file(tmp_path / "in.csv", n=64, x_max=8.0)
        return ["evolve", "--alpha", "2", "--beta", "1", "--t", "1", "--band", "12",
                "--input", str(tmp_path / "in.csv"), "--output", str(tmp_path / "o.csv")]
    if code == cli.EXIT_DEGENERATE:
        make_symbol_file(sym, 2.0, 50.0, np.exp(-3.0), np.exp(3.0), num=64)
        return ["identify", "--symbol", sym, "--a", str(np.sqrt(2.0)), "--b", str(np.sqrt(3.0))]
    if code == cli.EXIT_PAIR:
        make_symbol_file(sym, 2.0, 1.0, np.exp(-2.0), np.exp(2.0))
        return ["identify", "--symbol", sym, "--a", "1.5", "--b", str(np.sqrt(3.0))]
    _ripple_profile(sym)
    return ["identify", "--symbol", sym, "--a", "2", "--b", "3", "--pair-tol", "0.5"]


@pytest.mark.parametrize("code", [cli.EXIT_USAGE, cli.EXIT_BAND, cli.EXIT_DEGENERATE,
                                  cli.EXIT_PAIR, cli.EXIT_MISMATCH])
def test_each_exit_code_prints_one_error_line(tmp_path, capsys, code):
    result = run_cli(capsys, _error_table_case(tmp_path, code))
    assert result[:2] == (code, "")
    assert result[2].startswith("error: ") and result[2].count("\n") == 1
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("error, code", [
    (errors.InvalidInputError, cli.EXIT_USAGE),
    (errors.DomainError, cli.EXIT_USAGE),
    (errors.GridMismatchError, cli.EXIT_USAGE),
    (errors.InsufficientDataError, cli.EXIT_USAGE),
    (errors.IdentificationError, cli.EXIT_USAGE),
    (errors.BandConfigError, cli.EXIT_BAND),
    (errors.SymbolRangeError, cli.EXIT_BAND),
    (errors.DegenerateSymbolError, cli.EXIT_DEGENERATE),
    (errors.UnwrapResolutionError, cli.EXIT_DEGENERATE),
    (errors.InconsistentPairError, cli.EXIT_PAIR),
    (errors.BranchInconsistencyError, cli.EXIT_PAIR),
    (errors.ModelMismatchError, cli.EXIT_MISMATCH),
])
def test_main_maps_every_library_error_to_its_exit_code(capsys, monkeypatch, error, code):
    def raising(*args, **kwargs):
        raise error("message")

    monkeypatch.setattr(cli, "run_verification", raising)
    result = run_cli(capsys, ["verify", "--alpha", "2", "--beta", "1"])
    assert result == (code, "", "error: message\n")


def test_identify_cli_round_trip(tmp_path, capsys):
    sym = tmp_path / "sym.csv"
    make_symbol_file(sym, 0.5, 1.5, np.exp(-6.0), np.exp(6.0))
    code, stdout, _ = run_cli(capsys, [
        "identify", "--symbol", str(sym), "--a", "4", "--b", "9", "--tol", "1e-8",
    ])
    assert code == 0
    report = json.loads(stdout)
    assert report["alpha"] == pytest.approx(0.5, abs=1e-8)
    assert report["beta"] == pytest.approx(1.5, abs=1e-8)
    assert report["is_identity"] is False


def test_identify_cli_negative_exponent_at_default_tolerance(tmp_path, capsys):
    # |phase| spans 7 decades on this window; the increment fit reproduces the
    # profile well inside the default tol of 1e-9
    sym = tmp_path / "sym.csv"
    make_symbol_file(sym, -1.5, -0.1, np.exp(-5.1), np.exp(5.1))
    code, stdout, err = run_cli(capsys, [
        "identify", "--symbol", str(sym), "--a", "0.6299605249474366",
        "--b", "0.4807498567691362",
    ])
    assert code == 0, err
    report = json.loads(stdout)
    assert report["alpha"] == pytest.approx(-1.5, rel=1e-12)
    assert report["beta"] == pytest.approx(-0.1, rel=1e-12)


def test_identify_cli_constant_symbol(tmp_path, capsys):
    sym = tmp_path / "ones.csv"
    r = np.exp(np.linspace(-3, 3, 512))
    fp.save_symbol_csv(sym, fp.Tabulated(r, np.ones(512, dtype=complex)))
    code, stdout, _ = run_cli(capsys, [
        "identify", "--symbol", str(sym), "--a", "2", "--b", "3",
    ])
    assert code == 0
    assert json.loads(stdout)["is_identity"] is True


def test_identify_cli_wrong_pair_exit_5(tmp_path, capsys):
    sym = tmp_path / "sym.csv"
    make_symbol_file(sym, 2.0, 1.0, np.exp(-2.0), np.exp(2.0))
    code, _, err = run_cli(capsys, [
        "identify", "--symbol", str(sym), "--a", "1.5", "--b", str(np.sqrt(3.0)),
        "--tol", "1e-8",
    ])
    assert code == 5
    assert "inconsistent" in err


def test_identify_cli_model_mismatch_exit_6(tmp_path, capsys):
    sym = tmp_path / "ripple.csv"
    _ripple_profile(sym)
    code, _, err = run_cli(capsys, [
        "identify", "--symbol", str(sym), "--a", "2", "--b", "3",
        "--tol", "1e-9", "--pair-tol", "0.5",
    ])
    assert code == 6
    assert "reproduce" in err


def test_identify_cli_unresolvable_profile_exit_4(tmp_path, capsys):
    # aliased tabulation: adjacent samples jump by more than pi
    sym = tmp_path / "sym.csv"
    make_symbol_file(sym, 2.0, 1.0, np.exp(-6.0), np.exp(6.0))
    code, _, _ = run_cli(capsys, [
        "identify", "--symbol", str(sym), "--a", str(np.sqrt(2.0)), "--b", str(np.sqrt(3.0)),
    ])
    assert code == 4


def test_identify_cli_coarse_profile_exit_4(tmp_path, capsys):
    # 64 nodes of exp(50i*r^2) on [e^-3, e^3]: the phase steps pass pi
    sym = tmp_path / "sym.csv"
    make_symbol_file(sym, 2.0, 50.0, np.exp(-3.0), np.exp(3.0), num=64)
    code, out, err = run_cli(capsys, [
        "identify", "--symbol", str(sym), "--a", str(np.sqrt(2.0)), "--b", str(np.sqrt(3.0)),
    ])
    assert code == 4 and out == ""
    assert "too coarsely" in err


def test_identify_after_loading_the_same_file_parses_it_once(tmp_path, capsys, monkeypatch):
    # a caller that loads a profile and then runs identify on the same file
    reads = []
    real = symbols._read_csv_table

    def counted(raw, header, kind):
        reads.append(kind)
        return real(raw, header, kind)

    monkeypatch.setattr(symbols, "_read_csv_table", counted)
    monkeypatch.setattr(symbols, "_last_profile", None)
    sym = tmp_path / "sym.csv"
    make_symbol_file(sym, 0.5, 1.5, np.exp(-6.0), np.exp(6.0))
    argv = ["identify", "--symbol", str(sym), "--a", "4", "--b", "9", "--tol", "1e-8"]
    fp.load_symbol_csv(sym)
    hit = run_cli(capsys, argv)
    assert reads == ["symbol"]
    make_symbol_file(tmp_path / "other.csv", 0.5, 1.5, np.exp(-5.0), np.exp(5.0))
    fp.load_symbol_csv(tmp_path / "other.csv")
    parsed = run_cli(capsys, argv)
    assert len(reads) == 3
    assert hit == parsed and hit[0] == 0


def _not_utf8_file(tmp_path, header):
    path = tmp_path / "latin1.csv"
    path.write_bytes(header.encode("utf-8") + b"\n" + b"0,1,0\n" * 8 + b"caf\xe9\n")
    return path


def _directory(tmp_path, header):
    path = tmp_path / "a_directory"
    path.mkdir()
    return path


def _argv(command, path, out):
    return {"identify": ["identify", "--symbol", path, "--a", "4", "--b", "9"],
            "evolve": ["evolve", "--alpha", "2", "--beta", "1", "--t", "1", "--band", "8",
                       "--input", path, "--output", str(out)],
            "classify": ["classify", "--terms", path]}[command]


@pytest.mark.parametrize("make_input", [_not_utf8_file, _directory])
@pytest.mark.parametrize("command, header", [("identify", "r,re,im"), ("evolve", "x,re,im"),
                                             ("classify", "terms")])
def test_unreadable_input_file_is_a_usage_error(tmp_path, make_input, command, header):
    path = str(make_input(tmp_path, header))
    out = tmp_path / "never.csv"
    argv = _argv(command, path, out)
    proc = run_cli_process(argv)
    assert proc.returncode == cli.EXIT_USAGE
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, kind", [("identify", "symbol"), ("evolve", "signal"),
                                           ("classify", "terms")])
def test_missing_input_file_is_a_usage_error(tmp_path, capsys, command, kind):
    # the loader reports the missing file; there is no separate existence check
    path = str(tmp_path / "absent")
    out = tmp_path / "never.csv"
    code, stdout, err = run_cli(capsys, _argv(command, path, out))
    assert code == cli.EXIT_USAGE and stdout == ""
    assert err == f"error: {kind} file not found: {path}\n"
    assert not out.exists()


# Values every numeric option and table cell of the contract test draws from.
CONTRACT_NUMBERS = ["0", "1", "-1", "2", "0.5", "3", "1e-320", "1e300", "-1e308", "1.5e308",
                    "nan", "inf", "-inf"]
# How the contract test spoils an input file (one in four files is valid).
CONTRACT_INPUTS = ["valid"] * 3 + ["number", "empty", "header-only", "ragged", "not-utf8",
                                   "directory", "missing"]


def _contract_input(directory, command, kind, cell, number):
    """The input file of ``command``, spoiled as ``kind`` says: one table
    cell (or one term coefficient) replaced by ``number``, or the whole file."""
    path = directory / "input"
    if kind == "directory":
        path.mkdir()
        return path
    if kind == "missing":
        return path
    if command == "classify":
        terms = [{"alpha": 2.0, "beta": 1.0}, {"alpha": 2.0, "beta": -1.0}]
        text = json.dumps(terms)
        if kind == "number":
            # json reads NaN and Infinity; the number stands in a coefficient
            literal = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(number, number)
            text = text.replace("-1.0", literal)
        header, lines = None, [text]
    else:
        n = 256
        if command == "evolve":
            header, column = "x,re,im", (np.arange(n) - n // 2) * 0.25
            values = np.exp(-(column / 2.0) ** 2) * np.exp(1j * column)
        else:
            header, column = "r,re,im", np.exp(np.linspace(-2.0, 2.0, n))
            values = np.exp(1j * column)  # semistable for the pair (2, 3)
        rows = [[f"{c:.17g}", f"{v.real:.17g}", f"{v.imag:.17g}"] for c, v in zip(column, values)]
        if kind == "number":
            rows[cell % n][cell % 3] = number
        if kind == "ragged":
            del rows[cell % n][-1]
        lines = [header] + [",".join(row) for row in rows]
    if kind == "empty":
        lines = []
    if kind == "header-only":
        lines = lines[:1] if header else ["[]"]
    data = ("\n".join(lines) + "\n" if lines else "").encode("utf-8")
    if kind == "not-utf8":
        data += b"caf\xe9\n"
    path.write_bytes(data)
    return path


@seed(2024)
@settings(max_examples=100, deadline=None)
@example("evolve", ["2", "1", "1", "0"], "valid", 0, True, True)
@example("evolve", ["2", "1", "1", "1.5e308"], "number", 1, True, True)
@example("identify", ["0", "0", "0", "0"], "valid", 0, True, True)
@example("classify", ["0", "0", "0", "nan"], "number", 0, False, True)
@example("verify", ["2", "-1e308", "0", "0"], "valid", 0, True, False)
@example("identify", ["2", "3", "-inf", "0"], "valid", 0, False, False)
@given(
    st.sampled_from(["evolve", "identify", "verify", "classify"]),
    st.lists(st.sampled_from(CONTRACT_NUMBERS), min_size=4, max_size=4),
    st.sampled_from(CONTRACT_INPUTS),
    st.integers(0, 767),
    st.booleans(),
    st.booleans(),
)
def test_every_command_exits_cleanly_on_any_input(command, numbers, kind, cell, flag, joined):
    # whatever the numbers on the command line, written "--opt=value" or
    # "--opt value", and whatever the input file, a command exits 0..6
    # without a traceback; a failure prints one "error:" line and leaves no
    # output file
    n1, n2, n3, n4 = numbers

    def opt(name, value):
        return [f"{name}={value}"] if joined else [name, value]

    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        out = directory / "out.csv"
        path = str(_contract_input(directory, command, kind, cell, n4))
        argv = {
            "evolve": ["evolve", *opt("--alpha", n1), *opt("--beta", n2), *opt("--t", n3),
                       *opt("--band", "2" if flag else n4), "--input", path,
                       "--output", str(out)],
            "identify": ["identify", "--symbol", path] + (
                ["--a=2", "--b=3"] if flag
                else [*opt("--a", n1), *opt("--b", n2), *opt("--tol", n3)]),
            "verify": ["verify", *opt("--alpha", n1), *opt("--beta", n2), "--seed", "7"] + (
                ["--fast"] if flag else []),
            "classify": ["classify", "--terms", path] + (opt("--alpha-tol", n1) if flag else []),
        }[command]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        err = stderr.getvalue()
        assert code in range(7), (argv, code, err)
        assert "Traceback" not in err
        if code != cli.EXIT_OK:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            assert not out.exists()
        left = sorted(p.name for p in directory.iterdir())
        assert not [name for name in left if name.endswith(".tmp")], left


@pytest.mark.parametrize("beta", ["-1e-3", "-1", "-.5", "-1E+0", "-inf"])
def test_negative_value_after_a_space_reads_as_the_value(capsys, beta):
    # argparse alone takes "-1e-3" and "-inf" for options
    base = ["verify", "--alpha", "2", "--seed", "7", "--fast"]
    spaced = run_cli(capsys, base + ["--beta", beta])
    joined = run_cli(capsys, base + [f"--beta={beta}"])
    assert spaced == joined
    assert spaced[0] == (cli.EXIT_USAGE if beta == "-inf" else cli.EXIT_OK)


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["verify", "--alpha", "2", "--beta", "1", "--bogus"],
    ["verify", "--alpha", "2", "--beta"],
    ["verify", "--alpha", "2", "--beta", "abc"],
    ["verify", "--alpha", "2"],
    ["verify", "--alpha", "2", "--beta", "1", "--fast", "-1"],
    ["classify", "--terms"],
])
def test_usage_error_prints_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_help_exits_zero(capsys):
    code, out, err = run_cli(capsys, ["verify", "--help"])
    assert (code, err) == (cli.EXIT_OK, "")
    assert out.startswith("usage: fracprop verify")


def test_identify_cli_refuses_a_nan_tolerance(tmp_path, capsys):
    # the ripple of 1e-6 leaves a reconstruction error of about 3e-6: a
    # model mismatch at the default tolerance, which --tol=nan once accepted
    r = np.exp(np.linspace(-3.0, 3.0, 4096))
    profile = tmp_path / "rippled.csv"
    fp.save_symbol_csv(profile, fp.Tabulated(
        r, np.exp(1j * (0.8 * r**1.3 + 1e-6 * np.sin(5.0 * np.log(r))))))
    a, b = fp.canonical_pair(1.3).a, fp.canonical_pair(1.3).b
    base = ["identify", "--symbol", str(profile), "--a", repr(a), "--b", repr(b)]
    assert run_cli(capsys, base)[0] == cli.EXIT_MISMATCH
    for tol in (["--tol=nan"], ["--tol", "nan"], ["--tol", "-1"], ["--tol=inf"],
                ["--pair-tol", "nan"]):
        code, out, err = run_cli(capsys, base + tol)
        assert (code, out) == (cli.EXIT_USAGE, ""), tol
        assert err.startswith("error: tolerance ") and err.count("\n") == 1, err


@pytest.mark.parametrize("alpha_tol", ["nan", "inf", "-1"])
def test_classify_cli_refuses_a_bad_alpha_tolerance(tmp_path, capsys, alpha_tol):
    terms = tmp_path / "terms.json"
    terms.write_text(json.dumps([{"alpha": 2, "beta": 1}, {"alpha": 2.0000001, "beta": -1}]))
    code, out, err = run_cli(capsys, ["classify", "--terms", str(terms),
                                      "--alpha-tol", alpha_tol])
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == f"error: alpha tolerance must be finite and >= 0, got {float(alpha_tol)}\n"


def test_verify_cli_pass_and_determinism(capsys):
    argv = ["verify", "--alpha", "2", "--beta", "1", "--seed", "7", "--fast"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == 0 and code2 == 0
    assert out1 == out2  # byte-identical report
    report = json.loads(out1)
    assert report["pass"] is True
    assert report["fast"] is True
    assert report["tolerance_scale"] == 10


def test_verify_cli_invalid_spec(capsys):
    code, _, err = run_cli(capsys, ["verify", "--alpha", "0", "--beta", "1"])
    assert code == 2
    assert "invalid group" in err


@pytest.mark.parametrize("alpha, quantity, fast", [
    ("1e-4", "canonical pair constant 2**(1/alpha)", False),
    ("1e-4", "canonical pair constant 2**(1/alpha)", True),
    ("400", "phase 1*|xi|**400", False),
    ("400", "phase 1*r**400 overflows", True),
    ("240", "phase 1*r**240 overflows", False),
    ("240", "phase 1*r**240 overflows", True),
    ("-240", "phase 1*r**-240 overflows", False),
    ("-240", "phase 1*r**-240 overflows", True),
])
def test_verify_cli_overflow_is_a_usage_error(capsys, alpha, quantity, fast):
    # an exponent whose powers leave the float range is a domain error:
    # exit 2 and one line naming the quantity, no traceback and no warning;
    # the phase named is the symbol's, not a rounding residue like -2.7e-14.
    # The first check to meet the overflow names it: the band's |xi| for
    # 400 in full mode, else the semistability check window's r
    argv = ["verify", "--alpha", alpha, "--beta", "1"] + (["--fast"] if fast else [])
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert quantity in err and "overflows" in err
    assert "e-14" not in err


@pytest.mark.parametrize("fast", [False, True])
@pytest.mark.parametrize("alpha", ["154", "-154"])
def test_verify_cli_large_exponent_passes(capsys, alpha, fast):
    # the rounding of (2**(1/alpha))**alpha grows with alpha; the order and
    # scaling checks must not read it as a failure
    argv = ["verify", "--alpha", alpha, "--beta", "1", "--seed", "7"] + (["--fast"] if fast else [])
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    assert json.loads(out)["pass"] is True


def test_verify_cli_full_suite_runtime(capsys):
    import time

    t0 = time.perf_counter()
    code, stdout, _ = run_cli(capsys, ["verify", "--alpha", "2", "--beta", "1", "--seed", "7"])
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert json.loads(stdout)["pass"] is True
    assert elapsed < 10.0


def test_verify_cli_detects_mutation(capsys, monkeypatch):
    # corrupt the rescaling used by the order check; verify must fail and name it
    real_dilate = semistability.dilate

    def broken(spec, lam):
        return real_dilate(spec, lam * 1.01)

    monkeypatch.setattr(semistability, "dilate", broken)
    code, stdout, err = run_cli(capsys, [
        "verify", "--alpha", "2", "--beta", "1", "--seed", "7", "--fast",
    ])
    assert code == 1
    report = json.loads(stdout)
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert "order_doubling_symbol" in failed
    assert "order_doubling_symbol" in err


def test_classify_cli(tmp_path, capsys):
    terms = tmp_path / "terms.json"
    terms.write_text(json.dumps([{"alpha": 2, "beta": 1}, {"alpha": 2, "beta": -1}]))
    code, stdout, _ = run_cli(capsys, ["classify", "--terms", str(terms)])
    assert code == 0
    report = json.loads(stdout)
    assert report["is_identity"] is True and report["case_label"] == "pair-b"

    terms.write_text(json.dumps([{"alpha": 2, "beta": 0.0}]))
    code, _, _ = run_cli(capsys, ["classify", "--terms", str(terms)])
    assert code == 2


def test_render_json_17_digits():
    s = cli.render_json({"v": 0.1 + 0.2, "i": 3, "b": False, "x": None, "l": [1.5]})
    assert s == '{"v": 0.30000000000000004, "i": 3, "b": false, "x": null, "l": [1.5]}'
    with pytest.raises(ValueError):
        cli.render_json({"v": float("nan")})


def test_main_in_one_process_matches_separate_processes(tmp_path, capsys, monkeypatch):
    # main reuses one parser for every call; each subcommand and a usage
    # error must print and exit as they do in a process of their own
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    make_signal_file(tmp_path / "in.csv")
    make_symbol_file(tmp_path / "sym.csv", 0.5, 1.5, np.exp(-6.0), np.exp(6.0))
    (tmp_path / "terms.json").write_text(json.dumps([{"alpha": 2, "beta": 1},
                                                     {"alpha": 2, "beta": -1}]))
    argvs = [
        ["evolve", "--alpha", "2", "--beta", "1", "--t", "1", "--band", "8",
         "--input", str(tmp_path / "in.csv"), "--output", str(tmp_path / "out.csv")],
        ["identify", "--symbol", str(tmp_path / "sym.csv"), "--a", "4", "--b", "9",
         "--tol", "1e-8"],
        ["verify", "--alpha", "2", "--beta", "1", "--seed", "7", "--fast"],
        ["classify", "--terms", str(tmp_path / "terms.json")],
        ["verify", "--alpha", "2"],  # --beta missing: a usage error
    ]
    shared = [run_cli(capsys, argv) for argv in argvs]
    assert cli.build_parser() is cli.build_parser()
    for argv, (code, out, err) in zip(argvs, shared):
        alone = run_cli_process(argv)
        assert (code, out, err) == (alone.returncode, alone.stdout, alone.stderr), argv
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 2]
