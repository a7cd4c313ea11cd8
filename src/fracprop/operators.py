"""Apply multiplier operators to signals: evolution, translation, rescaling,
conjugation by dilation, and randomized operator-distance probing.

Everything acts through the frequency side.  Translation and symbol
application are exact per-bin operations; signal dilation needs band-limited
(trigonometric) interpolation of the spectrum at off-grid frequencies and is
the one operation with a discretization budget (~1e-8 for spatially decaying
signals), so every identity that crosses it carries that tolerance.  The
interpolation itself is exact: the rescaled frequencies lie on a uniform grid,
so each run of them is a fractional DFT, evaluated by Bluestein's chirp-z in
O(n log n) time and O(n) memory.
"""

import numpy as np

from .errors import DomainError, SymbolRangeError
from .grids import (
    BandSpec,
    SampledSignal,
    Spectrum,
    _SQRT_TWO_PI,
    band_mask,
    band_project,
    forward_transform,
    inverse_transform,
    random_band_signal,
)
from .symbols import _sup_distance_with_argmax, _zoom_max, evaluate


def apply(spec, f, band):
    """Evolve a signal: project onto the band, multiply each surviving bin by
    the symbol value, transform back.  Unitary on the band for unimodular
    symbols (output norm equals the norm of the band-projected input)."""
    band.validate_for(f.grid)
    F = forward_transform(f)
    keep = band_mask(f.grid, band)
    out = np.zeros(f.grid.n, dtype=complex)
    out[keep] = evaluate(spec, f.grid.xi[keep]) * F.values[keep]
    return inverse_transform(Spectrum(f.grid, out))


def translate(f, a):
    """Shift f(x) -> f(x - a) via the spectral phase exp(-i*a*xi).

    Exact (to round-off) for the periodic band-limited model; norms are
    preserved bin by bin.
    """
    F = forward_transform(f)
    shifted = F.values * np.exp(-1j * float(a) * f.grid.xi)
    return inverse_transform(Spectrum(f.grid, shifted))


def _chirp_spectrum(values, grid, lam, k0, m):
    """Spectrum of the samples at the m frequencies lam*dxi*(k0 + q), q < m.

    The sum (dx/sqrt(2*pi)) * sum_j f_j exp(-i*xi_q*x_j) is a fractional DFT
    with angle theta = 2*pi*lam/n, evaluated exactly by Bluestein's chirp-z:
    with centered indices J = j - n/2 (so x_j = dx*J) and Q = q - c, the
    identity Q*J = (Q^2 + J^2 - (Q - J)^2)/2 turns it into one linear
    convolution with the chirp exp(i*theta*D^2/2), done by FFTs of length at
    least n + m - 1.  Every phase is an exact integer times theta/2, so its
    rounding does not grow along the run.
    """
    n = grid.n
    c = (m - 1) // 2
    J = np.arange(-(n // 2), n // 2, dtype=np.int64)
    Q = np.arange(-c, m - c, dtype=np.int64)
    D = np.arange(Q[0] - J[-1], Q[-1] - J[0] + 1, dtype=np.int64)
    turns = round(lam)
    frac = lam - turns

    def chirp(I):
        # exp(-i*pi*lam*I/n) for integers I; the whole part of lam acts
        # through I mod 2n exactly, only the fraction's phase is rounded
        return np.exp(-1j * np.pi / n * ((turns * (I % (2 * n))) % (2 * n) + frac * I))

    size = 1 << (n + m - 2).bit_length()
    a = values * chirp(2 * (k0 + c) * J + J * J)
    h = np.conj(chirp(D * D))
    conv = np.fft.ifft(np.fft.fft(a, size) * np.fft.fft(h, size))[n - 1:n - 1 + m]
    return conv * chirp(Q * Q) * (grid.dx / _SQRT_TWO_PI)


def dilate_signal(f, lam):
    """Rescale: (1/|lam|) * f(x/lam), computed as spectrum resampling F(lam*xi).

    The output support is the input support divided by |lam|; if that escapes
    the resolvable part of the grid the call fails with the violated
    inequality.  Norm scales by |lam|**-0.5 within ~1e-8 for signals whose
    spatial tails die out inside the window.
    """
    lam = float(lam)
    if lam == 0.0 or not np.isfinite(lam):
        raise DomainError(f"dilation factor must be nonzero and finite, got {lam}")
    g = f.grid
    F = forward_transform(f)
    mags = np.abs(F.values)
    # round-off from earlier transforms leaves ~1e-16 dust outside the true
    # support; a relative floor keeps the support reading stable
    occupied = mags > 1e-13 * mags.max(initial=0.0)
    if not np.any(occupied):
        return SampledSignal(g, np.zeros(g.n, dtype=complex))
    radii = np.abs(g.xi[occupied])
    r_min, r_max = float(radii.min()), float(radii.max())
    a = abs(lam)
    out_hi = r_max / a
    out_lo = r_min / a
    limit = g.xi_max * (1.0 - 0.125)
    if out_hi > limit:
        raise SymbolRangeError(
            f"rescaled support violates r_max/|lam| <= xi_max*(1-margin): "
            f"{out_hi:.6g} > {limit:.6g}"
        )
    if out_lo < g.dxi:
        raise SymbolRangeError(
            f"rescaled support violates r_min/|lam| >= dxi: {out_lo:.6g} < {g.dxi:.6g}"
        )
    slack = 1.0 + 1e-12
    keep = (np.abs(g.xi) >= out_lo / slack) & (np.abs(g.xi) <= out_hi * slack)
    out = np.zeros(g.n, dtype=complex)
    # kept bins form one contiguous run of integer bin numbers per sign
    idx = np.flatnonzero(keep)
    bins = np.where(idx < g.n // 2, idx, idx - g.n)
    breaks = np.flatnonzero(np.diff(bins) != 1) + 1
    for run, k in zip(np.split(idx, breaks), np.split(bins, breaks)):
        out[run] = _chirp_spectrum(f.values, g, lam, int(k[0]), k.size)
    return inverse_transform(Spectrum(g, out))


def conjugated_apply(spec, lam, f, band):
    """Conjugate the operator by dilation: rescale by 1/lam, apply, rescale back.

    Agrees with applying the lam-rescaled symbol directly (within the ~1e-8
    dilation budget); the inner application uses the enlarged band that holds
    the rescaled support.
    """
    lam = float(lam)
    if not np.isfinite(lam) or lam <= 0:
        raise DomainError(f"conjugation factor must be positive, got {lam}")
    band.validate_for(f.grid)
    scale = max(lam, 1.0 / lam)
    inner_band = BandSpec(band.R * scale) if scale > 1.0 else band
    inner_band.validate_for(f.grid)
    projected = inverse_transform(band_project(forward_transform(f), band))
    shrunk = dilate_signal(projected, 1.0 / lam)
    evolved = apply(spec, shrunk, inner_band)
    return dilate_signal(evolved, lam)


def _probe_ratio(m1, m2, probe_spectrum, band):
    sig = inverse_transform(probe_spectrum)
    d = apply(m1, sig, band).values - apply(m2, sig, band).values
    num = np.linalg.norm(d) * np.sqrt(sig.grid.dx)
    return float(num / sig.norm())


def _target_radii(m1, m2, band, sup, r_star, limit=8):
    """Radii worth concentrating a probe on.

    An oscillatory mismatch attains its sup at many radii with very different
    local slopes, and a narrow bump reads the mismatch best where it varies
    slowest, so the near-sup local maxima are ranked by flatness and the
    candidates are polished together, one bracket zoom over all of them.
    """
    s = np.linspace(-np.log(band.R), np.log(band.R), 4096)
    r = np.exp(s)
    d = np.abs(evaluate(m1, r) - evaluate(m2, r))
    peaked = np.zeros(d.size, dtype=bool)
    peaked[1:-1] = (d[1:-1] >= d[:-2]) & (d[1:-1] >= d[2:])
    peaked[0] = d[0] >= d[1]
    peaked[-1] = d[-1] >= d[-2]
    # the scan undershoots a true crossing by up to (slope*ds)^2/4, so the
    # near-sup cut must be loose relative to the scan resolution
    idx = np.where(peaked & (d >= sup - 1e-3))[0]
    if idx.size > limit:
        curvature = np.abs(
            d[np.clip(idx + 1, 0, d.size - 1)]
            - 2.0 * d[idx]
            + d[np.clip(idx - 1, 0, d.size - 1)]
        )
        idx = idx[np.argsort(curvature)][:limit]
    s_best, _ = _zoom_max(m1, m2, s[np.maximum(idx - 1, 0)], s[np.minimum(idx + 1, s.size - 1)])
    return np.unique(np.append(np.exp(s_best), r_star))


def probe_operator_distance(m1, m2, band, grid, trials, seed):
    """Randomized lower estimate of the operator distance on the band.

    Random unit-norm band probes never exceed the exact symbol sup distance
    (beyond round-off); targeted probes, Gaussian bumps about three bins wide
    centered where the symbol mismatch peaks, concentrate spectrally and close
    the gap to within the grid's discretization slack.
    """
    trials = int(trials)
    if trials < 1:
        raise DomainError("need at least one probe trial")
    band.validate_for(grid)
    sup, r_star = _sup_distance_with_argmax(m1, m2, band, 4096)

    probes = [random_band_signal(band, grid, seed, stream=i) for i in range(trials)]
    sigma = 0.75 * grid.dxi
    keep = band_mask(grid, band)
    for center in _target_radii(m1, m2, band, sup, r_star):
        bump = np.exp(-0.5 * ((grid.xi - center) / sigma) ** 2)
        bump = np.where(keep, bump, 0.0)
        nrm = np.linalg.norm(bump) * np.sqrt(grid.dxi)
        if nrm > 0:
            probes.append(Spectrum(grid, bump.astype(complex) / nrm))

    return max(_probe_ratio(m1, m2, p, band) for p in probes)
