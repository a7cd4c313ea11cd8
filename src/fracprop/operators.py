"""Apply multiplier operators to signals: evolution, rescaling, conjugation
by dilation, and operator-distance probing by an exact spike on the band bin
where the two symbols differ most.

Everything acts through the frequency side.  Symbol application is an exact
per-bin operation; signal dilation needs band-limited (trigonometric)
interpolation of the spectrum at off-grid frequencies and is the one
operation with a discretization budget (~1e-8 for spatially decaying
signals), so every identity that crosses it carries that tolerance.  The
interpolation itself is exact: the rescaled frequencies lie on a uniform grid,
so one centred run of them is a fractional DFT, evaluated by Bluestein's
chirp-z in O(n log n) time and O(n) memory.
"""

import numpy as np

from .errors import DomainError, SymbolRangeError
from .grids import (
    BAND_MARGIN,
    BandSpec,
    SampledSignal,
    Spectrum,
    _SQRT_TWO_PI,
    _fresh,
    band_project,
    forward_transform,
    inverse_transform,
)
from .symbols import evaluate


def apply(spec, f, band):
    """Evolve a signal: project onto the band, multiply each surviving bin by
    the symbol value, transform back.  Unitary on the band for unimodular
    symbols (output norm equals the norm of the band-projected input)."""
    F = forward_transform(f)
    return _apply_spectrum(_on_band(spec, F.grid, band), F, band)


def _on_band(spec, grid, band):
    """The symbol's values on the band bins of ``grid``, in the order of
    ``grid._band_bins``; the band is checked to be resolvable first."""
    band.validate_for(grid)
    return evaluate(spec, grid._band_bins(band.R)[2])


def _apply_spectrum(mvals, F, band):
    """:func:`apply` on the spectrum ``F`` of the signal, given the symbol's
    values ``mvals`` from :func:`_on_band`, so callers that already hold
    either share it: one forward transform, or one symbol evaluation."""
    return inverse_transform(_multiply_on_band(mvals, F, band))


def _multiply_on_band(mvals, F, band):
    """The spectrum :func:`_apply_spectrum` transforms back: ``mvals`` times
    ``F`` on the band bins, 0 elsewhere."""
    g = F.grid
    idx = g._band_bins(band.R)[1]
    out = np.zeros(g.n, dtype=complex)
    out[idx] = mvals * F.values[idx]
    return _fresh(Spectrum, g, out)


def _chirp_spectrum(values, grid, lam, K):
    """Spectrum of the samples at the 2K + 1 frequencies lam*dxi*q, |q| <= K.

    The sum (dx/sqrt(2*pi)) * sum_j f_j exp(-i*xi_q*x_j) is a fractional DFT
    with angle theta = 2*pi*lam/n, evaluated exactly by Bluestein's chirp-z:
    with centered indices J = j - n/2 (so x_j = dx*J), the identity
    q*J = (q^2 + J^2 - (q - J)^2)/2 turns it into one linear convolution with
    the chirp exp(i*theta*D^2/2), done by FFTs of length at least n + 2K.
    Every phase is an exact integer times theta/2, so its rounding does not
    grow along the run.
    """
    n = grid.n
    J = np.arange(-(n // 2), n // 2, dtype=np.int64)
    Q = np.arange(-K, K + 1, dtype=np.int64)
    D = np.arange(-K - J[-1], K - J[0] + 1, dtype=np.int64)
    turns = round(lam)
    frac = lam - turns

    def chirp(I):
        # exp(-i*pi*lam*I/n) for integers I; the whole part of lam acts
        # through I mod 2n exactly, only the fraction's phase is rounded
        return np.exp(-1j * np.pi / n * ((turns * (I % (2 * n))) % (2 * n) + frac * I))

    size = 1 << (n + 2 * K - 1).bit_length()
    a = values * chirp(J * J)
    h = np.conj(chirp(D * D))
    conv = np.fft.ifft(np.fft.fft(a, size) * np.fft.fft(h, size))[n - 1:n + 2 * K]
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
        return _fresh(SampledSignal, g, np.zeros(g.n, dtype=complex))
    radii = np.abs(g.xi[occupied])
    r_min, r_max = float(radii.min()), float(radii.max())
    a = abs(lam)
    out_hi = r_max / a
    out_lo = r_min / a
    limit = g.xi_max * (1.0 - BAND_MARGIN)
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
    # keep reads |xi| only, and the unpaired Nyquist bin lies past the limit,
    # so the kept bin numbers are symmetric about 0: one centred run
    # |q| <= K <= 7n/16 holds both signs (the gap around 0 is dropped), and
    # its FFTs stay of length 2n
    idx = np.flatnonzero(keep)
    bins = np.where(idx < g.n // 2, idx, idx - g.n)
    K = int(np.abs(bins).max(initial=0))
    out = np.zeros(g.n, dtype=complex)
    out[idx] = _chirp_spectrum(f.values, g, lam, K)[bins + K]
    return inverse_transform(_fresh(Spectrum, g, out))


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


def _probe_ratio(v1, v2, probe_spectrum, band):
    sig = inverse_transform(probe_spectrum)
    F = forward_transform(sig)
    d = _apply_spectrum(v1, F, band).values - _apply_spectrum(v2, F, band).values
    num = np.linalg.norm(d) * np.sqrt(sig.grid.dx)
    return float(num / sig.norm())


def probe_operator_distance(m1, m2, band, grid):
    """Lower estimate of the operator distance on the band:
    ``|| (T1 - T2) p || / || p ||`` for the exact spike ``p``, unit mass on
    the band bin of largest mismatch ``max_k |m1(xi_k) - m2(xi_k)|``.

    Both operators are multipliers, so every band bin is an eigenvector of
    each, and no probe reads more than that mismatch.  The spike reads it to
    round-off, so the estimate never exceeds the symbol sup distance (beyond
    round-off) and falls short of it only by the mismatch's variation within
    half a bin.
    """
    v1, v2 = _on_band(m1, grid, band), _on_band(m2, grid, band)
    worst = grid._band_bins(band.R)[1][np.argmax(np.abs(v1 - v2))]
    spike = np.zeros(grid.n, dtype=complex)
    spike[worst] = 1.0 / np.sqrt(grid.dxi)
    return _probe_ratio(v1, v2, _fresh(Spectrum, grid, spike), band)
