"""Uniform grids, the discrete unitary Fourier transform pair, band projection,
and reproducible band-limited probe generation.

Conventions
-----------
The spatial window is ``[-x_max, x_max)`` sampled at ``n`` points (n a power of
two).  The dual grid carries the FFT bin ordering ``k = 0, 1, ..., n/2-1,
-n/2, ..., -1`` with spacing ``dxi = 2*pi/(n*dx)``, so ``dx*dxi*n == 2*pi`` to
the last ulp.  Transforms use the unitary normalization ``(2*pi)**-0.5``; a
forward/inverse round trip is exact to round-off and discrete Plancherel holds.
"""

import io

import numpy as np

from .errors import BandConfigError, InvalidInputError

TWO_PI = 2.0 * np.pi
_SQRT_TWO_PI = np.sqrt(TWO_PI)

# Relative slack used when a band edge falls exactly on a frequency bin, so
# membership does not depend on the rounding of dxi.
_EDGE_SLACK = 1e-12

# Band bins a grid keeps, one entry per band parameter R, oldest dropped
# first.  One verify run uses at most two R values per grid.
_BAND_CACHE_SIZE = 4

# Bands and rescaled supports reach at most xi_max*(1 - BAND_MARGIN).
BAND_MARGIN = 0.125


class SpatialGrid:
    """Periodic sampling grid and its dual frequency grid."""

    __slots__ = ("n", "x_max", "dx", "dxi", "x", "xi", "_parity", "_scale", "_bands")

    def __init__(self, n, x_max):
        n = int(n)
        if n < 8 or (n & (n - 1)) != 0:
            raise InvalidInputError(f"sample count must be a power of two >= 8, got {n}")
        x_max = float(x_max)
        if not np.isfinite(x_max) or x_max <= 0:
            raise InvalidInputError(f"x_max must be finite and positive, got {x_max}")
        self.n = n
        self.x_max = x_max
        self.dx = 2.0 * x_max / n
        self.dxi = TWO_PI / (n * self.dx)
        x = -x_max + self.dx * np.arange(n)
        k = np.concatenate([np.arange(0, n // 2), np.arange(-n // 2, 0)])
        xi = self.dxi * k
        parity = np.where(k % 2 == 0, 1.0, -1.0)  # exp(i*xi_k*x_max) = (-1)^k
        # the forward transform's one scaling pass; a sign flip is exact, so
        # this rounds as the parity pass followed by the scalar pass would
        scale = parity * (self.dx / _SQRT_TWO_PI)
        for arr in (x, xi, parity, scale):
            arr.setflags(write=False)
        self.x = x
        self.xi = xi
        self._parity = parity
        self._scale = scale
        self._bands = {}

    def _band_bins(self, R):
        """``(mask, idx, radius)`` of the bins with 1/R <= |xi| <= R, DC
        excluded: the boolean mask, its indices in FFT order and |xi| there.

        Read-only and computed once per R; the grid keeps the last
        ``_BAND_CACHE_SIZE`` values of R.
        """
        bins = self._bands.get(R)
        if bins is None:
            r = np.abs(self.xi)
            lo = (1.0 / R) * (1.0 - _EDGE_SLACK)
            hi = R * (1.0 + _EDGE_SLACK)
            mask = (r >= lo) & (r <= hi) & (self.xi != 0.0)
            idx = np.flatnonzero(mask)
            bins = (mask, idx, r[idx])
            for arr in bins:
                arr.setflags(write=False)
            if len(self._bands) >= _BAND_CACHE_SIZE:
                del self._bands[next(iter(self._bands))]
            self._bands[R] = bins
        return bins

    @property
    def xi_max(self):
        """Nyquist frequency pi/dx."""
        return self.dxi * (self.n // 2)

    def __eq__(self, other):
        return (
            isinstance(other, SpatialGrid)
            and self.n == other.n
            and self.x_max == other.x_max
        )

    def __hash__(self):
        return hash((self.n, self.x_max))

    def __repr__(self):
        return f"SpatialGrid(n={self.n}, x_max={self.x_max})"


def _as_complex_values(values, n):
    vals = np.asarray(values, dtype=complex)
    # converting a list or a non-complex array allocates a new array that
    # nothing else holds, and an owned read-only array cannot change under
    # the wrapper; copy the rest, which the caller could still write through
    converted = (vals is not values and vals.base is None
                 and isinstance(values, (np.ndarray, list, tuple)))
    if not converted and (vals.flags.writeable or vals.base is not None):
        vals = vals.copy()
    if vals.shape != (n,):
        raise InvalidInputError(f"expected {n} samples, got shape {vals.shape}")
    # a sum of |v|**2 is finite only if every sample is; huge finite samples
    # can overflow it, so only then does the elementwise test decide (a
    # complex value is finite only if both of its parts are)
    if (not np.isfinite(np.vdot(vals, vals).real)
            and not np.isfinite(vals.view(float)).all()):
        raise InvalidInputError("samples contain non-finite values")
    vals.setflags(write=False)
    return vals


def _l2_norm(vals):
    """``norm(vals)``; where its sum of squares overflows, ``m * norm(vals / m)``
    with ``m = max|v|``, so huge finite samples keep a finite norm (only then,
    so every other norm keeps its last bits)."""
    with np.errstate(over="ignore"):
        out = float(np.linalg.norm(vals))
    if not np.isfinite(out):
        m = float(np.max(np.abs(vals)))
        out = m * float(np.linalg.norm(vals / m))
    return out


def _fresh(cls, grid, vals):
    """``cls(grid, vals)`` for a complex array the library has just allocated:
    frozen in place first, it is wrapped without a copy, and the shape and
    finiteness checks still run (an overflowing transform still raises)."""
    vals.setflags(write=False)
    return cls(grid, vals)


class SampledSignal:
    """Complex samples f(x_j) on a :class:`SpatialGrid`."""

    __slots__ = ("grid", "values")

    def __init__(self, grid, values):
        self.grid = grid
        self.values = _as_complex_values(values, grid.n)

    def norm(self):
        """Discrete L2 norm sqrt(sum |f|^2 dx)."""
        return _l2_norm(self.values) * np.sqrt(self.grid.dx)

    def __repr__(self):
        return f"SampledSignal(n={self.grid.n}, norm={self.norm():.6g})"


class Spectrum:
    """Complex samples F(xi_k) on the dual grid, FFT bin order."""

    __slots__ = ("grid", "values")

    def __init__(self, grid, values):
        self.grid = grid
        self.values = _as_complex_values(values, grid.n)

    def norm(self):
        return _l2_norm(self.values) * np.sqrt(self.grid.dxi)

    def __repr__(self):
        return f"Spectrum(n={self.grid.n}, norm={self.norm():.6g})"


class BandSpec:
    """Annulus R**-1 <= |xi| <= R of resolvable frequencies, R > 1."""

    __slots__ = ("R",)

    def __init__(self, R):
        R = float(R)
        if not np.isfinite(R) or R <= 1.0:
            raise BandConfigError(f"band parameter must satisfy R > 1, got {R}")
        self.R = R

    def validate_for(self, grid):
        """Check the band is resolvable on ``grid``: ``1/R >= dxi`` and
        ``R <= xi_max*(1 - BAND_MARGIN)``; raise BandConfigError if not."""
        r_lo = 1.0 / self.R
        if r_lo < grid.dxi:
            raise BandConfigError(
                f"inner band edge 1/R = {r_lo:.6g} is below the frequency "
                f"resolution dxi = {grid.dxi:.6g}"
            )
        limit = grid.xi_max * (1.0 - BAND_MARGIN)
        if self.R > limit:
            raise BandConfigError(
                f"outer band edge R = {self.R:.6g} exceeds "
                f"xi_max*(1-margin) = {limit:.6g}"
            )

    def __repr__(self):
        return f"BandSpec(R={self.R})"


def forward_transform(f):
    """Unitary discrete Fourier transform of a sampled signal.

    Returns samples of (2*pi)**-0.5 * integral f(x) exp(-i*xi*x) dx evaluated
    at the dual grid, i.e. the scaled FFT with the window-offset phase folded in.
    """
    g = f.grid
    # an overflowing spectrum is rejected by _fresh, not reported by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.fft.fft(f.values)
        out *= g._scale
    return _fresh(Spectrum, g, out)


def inverse_transform(F):
    """Inverse of :func:`forward_transform`; exact to round-off."""
    g = F.grid
    # unscaled, so one pass applies 1/n and the unitary factor together;
    # n is a power of two, so this rounds as the two passes would.  An
    # overflowing signal is rejected by _fresh, not reported by numpy.
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.fft.ifft(F.values * g._parity, norm="forward")
        out *= g.dxi / _SQRT_TWO_PI
    return _fresh(SampledSignal, g, out)


def band_project(F, band):
    """Zero all bins outside R**-1 <= |xi| <= R.  Idempotent, norm non-increasing."""
    band.validate_for(F.grid)
    idx = F.grid._band_bins(band.R)[1]
    out = np.zeros(F.grid.n, dtype=complex)
    out[idx] = F.values[idx]
    return _fresh(Spectrum, F.grid, out)


def probe_rng(seed, stream=0):
    """Counter-based generator (Philox-4x64) keyed by (seed, stream).

    Distinct (seed, stream) pairs give independent, reproducible streams; the
    same pair always yields the bit-identical sequence.
    """
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(stream & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def random_band_signal(band, grid, seed, stream=0):
    """Unit-norm random spectrum supported inside the band; deterministic in (seed, stream).

    Only the ``k`` band bins are drawn: the first ``k`` standard normals of
    ``probe_rng(seed, stream)`` are the real parts and the next ``k`` the
    imaginary parts, in FFT bin order; every other bin is exactly 0.
    """
    band.validate_for(grid)
    idx = grid._band_bins(band.R)[1]
    k = idx.size
    if k == 0:
        raise BandConfigError("band contains no frequency bins")
    rng = probe_rng(seed, stream)
    z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    z /= np.linalg.norm(z) * np.sqrt(grid.dxi)
    vals = np.zeros(grid.n, dtype=complex)
    vals[idx] = z
    return _fresh(Spectrum, grid, vals)


def gaussian_packet(grid, center=0.0, spectral_width=1.0, carrier=0.0):
    """Modulated Gaussian exp(-w^2 (x-x0)^2 / 2 + i*xi0*(x-x0)).

    Its transform is a Gaussian bump of width ``spectral_width`` centered at
    ``carrier``; with both tails several widths away from the window edge and
    the band edges, wrap-around and band clipping stay below round-off.
    """
    w = float(spectral_width)
    if w <= 0:
        raise InvalidInputError("spectral_width must be positive")
    u = grid.x - center
    vals = np.exp(-0.5 * (w * u) ** 2 + 1j * carrier * u)
    return SampledSignal(grid, vals)


# ---------------------------------------------------------------------------
# Signal file format: CSV with header "x,re,im", uniform strictly increasing x.

def save_signal_csv(path, f):
    _write_csv_table(path, "x,re,im", f.grid.x, f.values)


def _file_bytes(path, kind):
    """The bytes of the file at ``path``; a file that cannot be read (a
    directory, a missing file, no permission) raises
    :class:`InvalidInputError`."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError as exc:
        raise InvalidInputError(f"{kind} file not found: {path}") from exc
    except OSError as exc:
        raise InvalidInputError(f"cannot read {kind} file {path}: {exc.strerror or exc}") from exc


def _write_csv_table(path, header, column, values):
    """Write ``header`` and a ``column,re,im`` row per sample, at 17
    significant digits so every float reads back exactly."""
    lines = [header]
    for c, v in zip(column, values):
        lines.append(f"{c:.17g},{v.real:.17g},{v.imag:.17g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_csv_table(raw, header, kind):
    """Rows of a three-column numeric CSV file, given as its bytes ``raw``,
    under a fixed header line.

    The bytes are decoded as ``open(path, encoding="utf-8")`` reads the file,
    universal newlines included.  Blank and whitespace-only lines are skipped
    and spaces around fields are allowed; bytes that are not UTF-8, and
    anything else that is not ``>= 8`` rows of exactly three numbers (comment
    lines included), raise :class:`InvalidInputError`, which the CLI reports
    with exit 2.  Shared by the signal and the symbol file formats.
    :func:`fracprop.symbols.load_symbol_csv` holds the one profile it built
    last, about 0.6 MB at 4096 rows, and returns that same read-only profile
    without calling this parser for a file with the same bytes.
    """
    try:
        with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8") as fh:
            first = fh.readline().strip()
            if first != header:
                raise InvalidInputError(f"bad {kind} header {first!r}, expected {header!r}")
            rows = [line for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{kind} file is not UTF-8: {exc}") from exc
    # counted before parsing, so numpy never sees (and warns about) an empty body
    if len(rows) < 8:
        raise InvalidInputError(f"{kind} file must have >= 8 rows of {header}")
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise InvalidInputError(f"unparsable {kind} row: {exc}") from exc
    if data.shape[1] != 3:
        raise InvalidInputError(f"{kind} file must have >= 8 rows of {header}")
    return data


def load_signal_csv(path):
    """Read a signal CSV and reconstruct its grid.

    Rejects non-uniform spacing (1e-9 relative), unordered x, windows that are
    not symmetric about 0, and sample counts that are not a power of two.
    Every call reads and parses the file: unlike profiles, signals are not
    kept.  A file that cannot be read or is not UTF-8 raises
    :class:`InvalidInputError`.
    """
    data = _read_csv_table(_file_bytes(path, "signal"), "x,re,im", "signal")
    x = data[:, 0]
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise InvalidInputError("x values must be strictly increasing")
    step = dx.mean()
    if np.max(np.abs(dx - step)) > 1e-9 * abs(step):
        raise InvalidInputError("x spacing is not uniform within 1e-9 relative")
    n = data.shape[0]
    x_max = n * step / 2.0
    if abs(x[0] + x_max) > 1e-9 * x_max:
        raise InvalidInputError("window is not symmetric: expected x[0] == -n*dx/2")
    grid = SpatialGrid(n, x_max)
    return SampledSignal(grid, data[:, 1] + 1j * data[:, 2])
