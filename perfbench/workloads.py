"""The benchmark's workloads: inputs made from a seed, one round of
operations, and a check of every output against a computation or property
that does not go through the code under test.

Every operation calls fracprop through a module attribute at call time
(``fracprop.cli.main``, ``fracprop.check_semistable``, ...), so that the
traced run sees the wrappers it installs.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import fracprop
import fracprop.cli


class CheckError(Exception):
    """An output that contradicts its independent computation or property."""


class OperationFailed(Exception):
    """The program refused an input it should have handled."""


class Operation:
    """One closed-loop call: ``run()`` returns the program's output and
    ``check(output)`` raises :class:`CheckError` if that output is wrong."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def run_cli(argv):
    """``fracprop.cli.main`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fracprop.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def write_csv(path, header, column, values):
    """Three-column CSV (``column``, re, im) at 17 significant digits, so every
    double reads back exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        np.savetxt(fh, np.column_stack([column, values.real, values.imag]),
                   fmt="%.17g", delimiter=",")


def read_csv(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return data[:, 0], data[:, 1] + 1j * data[:, 2]


def _parse_report(stdout):
    try:
        return json.loads(stdout)
    except ValueError as exc:
        raise CheckError(f"stdout is not one JSON report: {exc}") from exc


def _relative_error(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


# ---------------------------------------------------------------------------
# verify-suite

VERIFY_FAMILIES = (
    (2.0, 1.0), (1.0, 1.0), (0.5, 2.0), (1.5, -1.0), (-1.0, 1.0),
    # these three skip order_doubling_signal on the fixed verification grid
    (3.0, 5.0), (4.0, 1.0), (0.25, 1.0),
    (0.0, 0.0),  # the trivial group
)
SUP_TOL = 1e-12


def check_verify_report(code, stdout, alpha, beta, seed, fast, reference=None):
    """Exit 0 and ``pass``; the operator sup distance is 2 (0 for the trivial
    group); the probe never exceeds it; a repeat call prints the same bytes."""
    if code != 0:
        raise CheckError(f"verify exited {code}, expected 0")
    report = _parse_report(stdout)
    try:
        if report["pass"] is not True:
            failing = [c["name"] for c in report["checks"] if not c["pass"]]
            raise CheckError(f"verification failed: {failing}")
        echoed = (report["spec"]["alpha"], report["spec"]["beta"], report["seed"], report["fast"])
        if echoed != (alpha, beta, seed, fast):
            raise CheckError(f"report is for {echoed}, asked for {(alpha, beta, seed, fast)}")
        upper = next(c for c in report["checks"] if c["name"] == "operator_distance_upper")
        fields = dict(item.split("=", 1) for item in upper["detail"].split())
        sup, probe = float(fields["sup"]), float(fields["probe"])
    except (KeyError, TypeError, ValueError, StopIteration) as exc:
        raise CheckError(f"malformed verify report: {exc!r}") from exc
    # The suite compares T(1) with T(1 + pi/beta) on the band [1/2, 2]: their
    # symbols differ by exp(i*pi*r**alpha), and |exp(i*pi*r**alpha) - 1|
    # reaches 2 at r = 1.  The trivial group compares the identity with itself.
    expected = 0.0 if beta == 0.0 else 2.0
    if abs(sup - expected) > SUP_TOL:
        raise CheckError(f"operator sup distance {sup!r}, expected {expected}")
    if probe > sup:
        raise CheckError(f"probe {probe!r} exceeds the sup distance {sup!r}")
    if reference is not None and stdout != reference:
        raise CheckError("a repeat call printed different bytes")


class VerifySuite:
    """``fracprop verify``, full and ``--fast``, over VERIFY_FAMILIES."""

    name = "verify-suite"

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.seeds = [int(s) for s in rng.integers(0, 2**31, size=len(VERIFY_FAMILIES))]
        self.first_stdout = {}

    def _operation(self, alpha, beta, seed, fast):
        argv = ["verify", "--alpha", repr(alpha), "--beta", repr(beta), "--seed", str(seed)]
        if fast:
            argv.append("--fast")
        key = " ".join(argv)

        def run():
            code, stdout, stderr = run_cli(argv)
            if code not in (0, 1):
                raise OperationFailed(f"exit {code}: {stderr.strip()}")
            return code, stdout

        def check(output):
            code, stdout = output
            check_verify_report(code, stdout, alpha, beta, seed, fast,
                                reference=self.first_stdout.get(key))
            self.first_stdout.setdefault(key, stdout)

        return Operation(key, run, check)

    def warmup(self):
        (alpha, beta), seed = VERIFY_FAMILIES[0], self.seeds[0]
        return [self._operation(alpha, beta, seed, fast) for fast in (False, True)]

    def operations(self):
        return [self._operation(alpha, beta, seed, fast)
                for (alpha, beta), seed in zip(VERIFY_FAMILIES, self.seeds)
                for fast in (False, True)]


# ---------------------------------------------------------------------------
# evolve-csv

EVOLVE_SIZES = (4096, 8192, 16384, 32768, 65536)
EVOLVE_DX = 1.0 / 16.0
EVOLVE_BANDS = (3.0, 5.0, 6.5, 9.0, 12.0)
EVOLVE_TOL = 1e-10
NORM_TOL = 1e-12


def reference_evolution(values, dx, band, coef, alpha):
    """exp(i*coef*|xi|**alpha) on the bins 1/band <= |xi| <= band, zero
    elsewhere, computed with numpy.fft alone.  The unitary scale factors of
    fracprop's transform pair cancel in an apply, so a plain fft/ifft pair is
    the same operator."""
    xi = 2.0 * np.pi * np.fft.fftfreq(values.size, d=dx)
    r = np.abs(xi)
    keep = (r >= 1.0 / band) & (r <= band)
    spectrum = np.fft.fft(values)
    spectrum[~keep] = 0.0
    spectrum[keep] *= np.exp(1j * coef * r[keep] ** alpha)
    return np.fft.ifft(spectrum)


def _distance_to_band_edges(n, dx, band):
    r = np.abs(2.0 * np.pi * np.fft.fftfreq(n, d=dx))
    return min(np.min(np.abs(r - band)) / band, np.min(np.abs(r - 1.0 / band)) * band)


class EvolveCase:
    """One input file and the evolution parameters used on it."""

    def __init__(self, rng, n, workdir):
        self.n = n
        x_max = n * EVOLVE_DX / 2.0
        self.x = -x_max + EVOLVE_DX * np.arange(n)
        self.alpha = float(rng.uniform(0.5, 2.5))
        self.beta = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        self.t = float(rng.uniform(0.25, 2.0))
        self.band = float(rng.choice(EVOLVE_BANDS))
        # a bin on a band edge would make the reference's mask differ from
        # the program's by its 1e-12 edge slack
        if _distance_to_band_edges(n, EVOLVE_DX, self.band) < 1e-9:
            raise ValueError(f"band {self.band} puts a bin on an edge at n={n}")
        values = 0.01 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        for _ in range(4):
            center = rng.uniform(-0.5, 0.5) * x_max
            width = rng.uniform(0.2, 1.0)
            carrier = rng.uniform(-self.band, self.band)
            u = self.x - center
            values += rng.uniform(0.5, 1.0) * np.exp(-0.5 * (width * u) ** 2 + 1j * carrier * u)
        self.values = values
        self.input = workdir / f"signal-{n}.csv"
        self.forward_out = workdir / f"evolved-{n}.csv"
        self.back_out = workdir / f"returned-{n}.csv"
        write_csv(self.input, "x,re,im", self.x, values)
        self._references = None

    def references(self):
        """(band-projected input, evolved input), computed on first use."""
        if self._references is None:
            projected = reference_evolution(self.values, EVOLVE_DX, self.band, 0.0, self.alpha)
            evolved = reference_evolution(self.values, EVOLVE_DX, self.band,
                                          self.beta * self.t, self.alpha)
            self._references = projected, evolved
        return self._references

    def argv(self, t, source, target):
        return ["evolve", "--alpha", repr(self.alpha), "--beta", repr(self.beta),
                "--t", repr(t), "--band", repr(self.band),
                "--input", str(source), "--output", str(target)]


def check_evolution(case, stdout, path, want, norm_out):
    """The report's output norm and the output file against the reference."""
    report = _parse_report(stdout)
    try:
        reported = float(report["norm_out"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"malformed evolve report: {exc!r}") from exc
    if abs(reported - norm_out) > NORM_TOL * norm_out:
        raise CheckError(f"norm_out {reported!r}, band-projected input has {norm_out!r}")
    try:
        x, values = read_csv(path)
    except (OSError, ValueError) as exc:
        raise CheckError(f"unreadable output {path.name}: {exc}") from exc
    if x.shape != case.x.shape or np.max(np.abs(x - case.x)) > 1e-12 * abs(case.x[0]):
        raise CheckError(f"{path.name} is not on the input grid")
    err = _relative_error(values, want)
    if err > EVOLVE_TOL:
        raise CheckError(f"{path.name} differs from the numpy.fft reference by {err:.3g} relative")


class EvolveCsv:
    """``fracprop evolve`` by t and then by -t on CSV files, n = 4096 .. 65536."""

    name = "evolve-csv"

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.cases = [EvolveCase(rng, n, workdir) for n in EVOLVE_SIZES]

    def _operations(self, case):
        def evolve(argv):
            def run():
                code, stdout, stderr = run_cli(argv)
                if code != 0:
                    raise OperationFailed(f"exit {code}: {stderr.strip()}")
                return stdout
            return run

        def norm_projected():
            projected, _ = case.references()
            return float(np.linalg.norm(projected)) * np.sqrt(EVOLVE_DX)

        def check_forward(stdout):
            _, evolved = case.references()
            check_evolution(case, stdout, case.forward_out, evolved, norm_projected())

        def check_back(stdout):
            projected, _ = case.references()
            check_evolution(case, stdout, case.back_out, projected, norm_projected())

        forward = case.argv(case.t, case.input, case.forward_out)
        back = case.argv(-case.t, case.forward_out, case.back_out)
        return [Operation(f"evolve n={case.n} t={case.t:.4g}", evolve(forward), check_forward),
                Operation(f"evolve n={case.n} t={-case.t:.4g}", evolve(back), check_back)]

    def warmup(self):
        # one call per size: numpy's FFT plans are cached per length
        return [self._operations(case)[0] for case in self.cases]

    def operations(self):
        return [op for case in self.cases for op in self._operations(case)]


# ---------------------------------------------------------------------------
# characterize-profiles

PROFILE_NODES = 4096
PROFILE_LOG_RANGE = 3.0
PROFILES_PER_ROUND = 20
TAB_TOL = 1e-9          # tabulation fidelity of a 4096-node spline; 1e-12 is out of reach
PAIR_PERTURBATION = 1e-3
CONTINUITY_BAND = 2.0
CONTINUITY_EPS = (1e-4, 1e-3, 1e-2)
PARAM_TOL = 1e-9
EXIT_PAIR = fracprop.cli.EXIT_PAIR


def profile_radii():
    return np.exp(np.linspace(-PROFILE_LOG_RANGE, PROFILE_LOG_RANGE, PROFILE_NODES))


def expected_branch(alpha, beta):
    """Branch integer M of phi(a*r) = 2*phi(r) + 2*pi*M for a profile whose
    phase is pinned to its principal value at the node nearest r = 1."""
    s = np.linspace(-PROFILE_LOG_RANGE, PROFILE_LOG_RANGE, PROFILE_NODES)
    theta = beta * np.exp(alpha * s[np.argmin(np.abs(s))])
    k = round((float(np.angle(np.exp(1j * theta))) - theta) / (2.0 * np.pi))
    # phi(r) = beta*r**alpha + 2*pi*k, so phi(a*r) = 2*phi(r) - 2*pi*k
    return -k


class Profile:
    """One tabulated profile file and what a correct characterization says."""

    def __init__(self, kind, alpha, beta, pair, path, values):
        self.kind = kind
        self.alpha = alpha
        self.beta = beta
        self.pair = pair
        self.path = path
        write_csv(path, "r,re,im", profile_radii(), values)


def _canonical(alpha):
    return 2.0 ** (1.0 / alpha), 3.0 ** (1.0 / alpha)


def make_profiles(rng, workdir):
    """18 power laws and two the pipeline must reject with exit 5.

    The parameter box keeps the spline's tabulation error below TAB_TOL with
    a margin of 4 and every phase step far below pi.  One power law in three
    has pi < |beta| < 3*pi, so its branch integer M is not zero.
    """
    r = profile_radii()
    profiles = []
    for i in range(PROFILES_PER_ROUND - 2):
        sign = float(rng.choice([-1.0, 1.0]))
        if i % 3 == 2:
            alpha, beta = float(rng.uniform(0.5, 0.9)), sign * float(rng.uniform(4.0, 8.5))
        else:
            alpha, beta = float(rng.uniform(0.5, 1.6)), sign * float(rng.uniform(0.3, 2.5))
        profiles.append(Profile("power-law", alpha, beta, _canonical(alpha),
                                workdir / f"profile-{i}.csv", np.exp(1j * beta * r**alpha)))
    alpha, beta = float(rng.uniform(0.6, 1.4)), float(rng.uniform(0.5, 2.0))
    profiles.insert(9, Profile("wrong-pair", alpha, beta,
                               _canonical(alpha * float(rng.uniform(1.2, 1.5))),
                               workdir / "profile-wrong-pair.csv", np.exp(1j * beta * r**alpha)))
    alpha, beta = float(rng.uniform(0.6, 1.4)), float(rng.uniform(0.5, 1.5))
    alpha2, beta2 = alpha * float(rng.uniform(0.4, 0.7)), float(rng.uniform(0.5, 1.0))
    profiles.append(Profile("not-power-law", alpha, beta, _canonical(alpha),
                            workdir / "profile-two-powers.csv",
                            np.exp(1j * (beta * r**alpha + beta2 * r**alpha2))))
    return profiles


def characterize(profile):
    """The paper's characterization of one profile file."""
    a, b = profile.pair
    tab = fracprop.load_symbol_csv(profile.path)
    given = fracprop.check_semistable(tab, fracprop.SemistablePair(a, b), tol=TAB_TOL)
    perturbed = fracprop.check_semistable(
        tab, fracprop.SemistablePair(a * (1.0 + PAIR_PERTURBATION), b), tol=TAB_TOL)
    continuity = fracprop.continuity_modulus(tab, fracprop.BandSpec(CONTINUITY_BAND),
                                             CONTINUITY_EPS)
    code, stdout, stderr = run_cli(["identify", "--symbol", str(profile.path),
                                    "--a", repr(a), "--b", repr(b)])
    verdict = None
    if code == 0:
        found = json.loads(stdout)
        verdict = fracprop.classify_product([fracprop.PhaseTerm(found["alpha"], found["beta"]),
                                             fracprop.PhaseTerm(found["alpha"], -found["beta"])])
    elif profile.kind == "power-law":
        raise OperationFailed(f"identify exit {code}: {stderr.strip()}")
    return {"given": given, "perturbed": perturbed, "continuity": continuity,
            "code": code, "stdout": stdout, "verdict": verdict}


def check_characterization(profile, out):
    continuity = out["continuity"]
    if not continuity.luc_flag:
        raise CheckError(f"LUC flag false: omega={continuity.omega.tolist()}")
    if np.any(np.diff(continuity.omega) < 0.0):
        raise CheckError(f"omega decreases: {continuity.omega.tolist()}")
    given = out["given"]
    if profile.kind != "power-law":
        if given.passed:
            raise CheckError(f"{profile.kind} profile passes check_semistable")
        if out["code"] != EXIT_PAIR:
            raise CheckError(f"identify exit {out['code']} on a {profile.kind} profile, "
                             f"expected {EXIT_PAIR}")
        return
    if not given.passed:
        raise CheckError(f"generating pair rejected: residuals "
                         f"{given.res2:.3g}, {given.res3:.3g}, {given.sym_res:.3g}")
    if out["perturbed"].passed:
        raise CheckError("check_semistable accepts a perturbed pair")
    found = _parse_report(out["stdout"])
    try:
        alpha, beta, m, n = found["alpha"], found["beta"], found["M"], found["N"]
    except KeyError as exc:
        raise CheckError(f"malformed identify report: {exc!r}") from exc
    if abs(alpha - profile.alpha) > PARAM_TOL or abs(beta - profile.beta) > PARAM_TOL * max(1.0, abs(profile.beta)):
        raise CheckError(f"recovered ({alpha!r}, {beta!r}), generated "
                         f"({profile.alpha!r}, {profile.beta!r})")
    want_m = expected_branch(profile.alpha, profile.beta)
    if m != want_m or n != 2 * m:
        raise CheckError(f"branch integers (M, N) = ({m}, {n}), expected ({want_m}, {2 * want_m})")
    verdict = out["verdict"]
    if verdict is None or not verdict.is_identity or verdict.case_label != "pair-b":
        raise CheckError(f"term times its inverse classified as {verdict!r}")


class CharacterizeProfiles:
    """check_semistable, continuity_modulus, ``fracprop identify`` and
    classify_product on tabulated profile files."""

    name = "characterize-profiles"

    def __init__(self, seed, workdir):
        self.profiles = make_profiles(np.random.default_rng(seed), workdir)

    @staticmethod
    def _operation(profile):
        return Operation(f"characterize {profile.path.name}",
                         lambda: characterize(profile),
                         lambda out: check_characterization(profile, out))

    def warmup(self):
        first_bad = next(p for p in self.profiles if p.kind != "power-law")
        return [self._operation(self.profiles[0]), self._operation(first_bad)]

    def operations(self):
        return [self._operation(p) for p in self.profiles]


WORKLOADS = {cls.name: cls for cls in (VerifySuite, EvolveCsv, CharacterizeProfiles)}


def make(name, seed, workdir):
    return WORKLOADS[name](seed, Path(workdir))
