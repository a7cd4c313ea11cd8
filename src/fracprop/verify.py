"""Self-check suite for a given symbol family (alpha, beta).

Runs the library's defining identities end to end on deterministic seeded
probes and reports one residual per check.  Used by the ``verify`` CLI
subcommand; any broken building block (transforms, rescaling, group law,
probing) surfaces as a named failing check.
"""

import numpy as np

from .grids import (
    BAND_MARGIN,
    BandSpec,
    SpatialGrid,
    band_project,
    forward_transform,
    gaussian_packet,
    inverse_transform,
    probe_rng,
    random_band_signal,
)
from .groups import GroupSpec, check_group_law, check_scaling, member
from .operators import (
    _multiply_on_band,
    _on_band,
    apply,
    conjugated_apply,
    probe_operator_distance,
)
from .semistability import canonical_pair, check_semistable, order_doubling_residual
from .symbols import band_sup_distance


def _check(name, residual, tolerance, detail=None):
    entry = {
        "name": name,
        "residual": float(residual),
        "tolerance": float(tolerance),
        "pass": bool(residual <= tolerance),
        "skipped": False,
    }
    if detail:
        entry["detail"] = detail
    return entry


def _skip(name, reason):
    return {"name": name, "residual": None, "tolerance": None, "pass": True,
            "skipped": True, "detail": reason}


def _group_delay(group, edges):
    """Largest group delay |alpha*beta|*xi**(alpha - 1) of one application of
    the group's time-1 member over the band edges ``edges``."""
    return abs(group.alpha) * abs(group.beta) * max(e ** (group.alpha - 1.0) for e in edges)


def run_verification(alpha, beta, seed, fast=False):
    """Run the property suite; returns a JSON-ready report dict."""
    group = GroupSpec(alpha, beta)  # validates the (alpha, beta) combination
    spec = member(group, 1.0)
    scale = 10.0 if fast else 1.0
    n = 2048 if fast else 4096
    trials = 50 if fast else 100

    checks = []

    # Transform pair and unitary evolution: one inverse and one forward
    # transform per probe, the probe being T F for a random band spectrum F.
    # T F = inv(G), G = m*F on the band bins, is apply's own path (F is 0 off
    # the band).  Unitarity reads ||T F|| against ||F||, Plancherel reads
    # fwd(T F) against ||T F||, and the round trip reads fwd(inv(G)) against
    # G: on square maps that is the same identity as inv(fwd(f)) = f.
    grid = SpatialGrid(n, 128.0)
    band = BandSpec(4.0 if fast else 8.0)
    worst_plancherel = 0.0
    worst_roundtrip = 0.0
    worst_unitarity = 0.0
    mvals = _on_band(spec, grid, band)
    for i in range(trials):
        F = random_band_signal(band, grid, seed, stream=i)
        G = _multiply_on_band(mvals, F, band)
        g = inverse_transform(G)
        ng = g.norm()
        nF = F.norm()
        worst_unitarity = max(worst_unitarity, abs(ng - nF) / nF)
        Fg = forward_transform(g)
        worst_plancherel = max(worst_plancherel, abs(Fg.norm() - ng) / ng)
        worst_roundtrip = max(
            worst_roundtrip,
            np.linalg.norm(Fg.values - G.values) * np.sqrt(grid.dxi) / ng,
        )
    checks.append(_check("plancherel", worst_plancherel, 1e-12 * scale))
    checks.append(_check("transform_roundtrip", worst_roundtrip, 1e-12 * scale))
    checks.append(_check("unitarity", worst_unitarity, 1e-12 * scale))

    # Scale-doubling/tripling relations with the canonical pair.
    if group.is_trivial:
        checks.append(_skip("semistability_canonical", "trivial group: no canonical pair"))
        checks.append(_skip("order_doubling_symbol", "trivial group: no order"))
        checks.append(_skip("order_doubling_signal", "trivial group: no order"))
        checks.append(_skip("scaling_identity", "trivial group: no order"))
    else:
        pair = canonical_pair(group.alpha)
        report = check_semistable(spec, pair, tol=1e-12 * scale)
        checks.append(_check("semistability_canonical",
                             max(report.res2, report.res3, report.sym_res),
                             1e-12 * scale))
        checks.append(_check("order_doubling_symbol",
                             order_doubling_residual(spec), 1e-12 * scale))

        lam_star = 2.0 ** (1.0 / abs(group.alpha))
        width = 0.25 if fast else 0.3
        carrier = 2.0 if fast else 3.0
        # the evolved packet is displaced by the group delay of the symbol's
        # phase over the packet support; if that escapes the window the probe
        # wraps around and the check is meaningless at its tolerance
        xi_edges = (max(1.0 / band.R, carrier - 4.0 * width), carrier + 4.0 * width)
        delay = 2.0 * _group_delay(group, xi_edges)
        # conjugated_apply evolves the packet once more in a frame where its
        # spectrum is scaled by pair.a and its width by 1/pair.a: for alpha < 0
        # it is wider there and its delay larger.  Its tails fall below the
        # tolerance k widths out and reach about the delay and the spread
        # combined in quadrature, as a dispersing Gaussian's width does.
        tol = 1e-7 * scale
        k = np.sqrt(-2.0 * np.log(tol))
        inner_edges = (pair.a * max(1.0 / band.R, carrier - k * width),
                       pair.a * (carrier + k * width))
        inner_delay = _group_delay(group, inner_edges)
        inner_spread = k / (width * pair.a)
        xi_limit = grid.xi_max * (1.0 - BAND_MARGIN)
        margin_ok = (band.R * lam_star <= xi_limit
                     and 1.0 / (band.R * lam_star) >= grid.dxi)
        if not margin_ok:
            checks.append(_skip(
                "order_doubling_signal",
                f"rescaling by {lam_star:.4g} not representable on the "
                f"verification grid (admissible factors end at "
                f"{min(xi_limit / band.R, 1.0 / (band.R * grid.dxi)):.4g})",
            ))
        elif delay > 0.95 * grid.x_max:
            checks.append(_skip(
                "order_doubling_signal",
                f"group delay ~{delay:.3g} exceeds the window half-width "
                f"{grid.x_max:g}; no admissible probe at this resolution",
            ))
        elif np.hypot(inner_delay, inner_spread) > 0.95 * grid.x_max:
            checks.append(_skip(
                "order_doubling_signal",
                f"group delay ~{inner_delay:.3g} with packet spread "
                f"~{inner_spread:.3g} after rescaling by {pair.a:.4g} exceeds "
                f"the window half-width {grid.x_max:g}; no admissible probe "
                f"at this resolution",
            ))
        else:
            packet = gaussian_packet(grid, spectral_width=width, carrier=carrier)
            f = inverse_transform(band_project(forward_transform(packet), band))
            twice = apply(spec, apply(spec, f, band), band)
            conj = conjugated_apply(spec, pair.a, f, band)
            res = np.linalg.norm(twice.values - conj.values) * np.sqrt(grid.dx) / f.norm()
            checks.append(_check("order_doubling_signal", res, tol))

        worst_scaling = max(check_scaling(group, t) for t in (0.25, 8.0))
        checks.append(_check("scaling_identity", worst_scaling, 1e-12 * scale))

    # Group law on random time pairs.
    rng = probe_rng(seed, stream=10_000)
    f = inverse_transform(random_band_signal(band, grid, seed, stream=10_001))
    worst_law = 0.0
    for _ in range(25 if fast else 50):
        t1, t2 = rng.uniform(-3.0, 3.0, size=2)
        worst_law = max(worst_law, check_group_law(group, t1, t2, f, band))
    # phases add exactly, but their rounding scales with the magnitude
    # |beta*t*xi^alpha|; for extreme parameters that floor exceeds 1e-12
    phase_max = abs(group.beta) * 12.0 * band.R ** abs(group.alpha)
    law_tol = max(1e-12 * scale, 4.0 * np.finfo(float).eps * phase_max)
    checks.append(_check("group_law", worst_law, law_tol))

    # Operator distance: probes versus the exact symbol sup distance.  The
    # comparison member is chosen so the phase mismatch sweeps through exactly
    # a half turn at the middle of the band: the sup (= 2) is then attained at
    # r = 1, where the mismatch 2*|sin(pi*r**alpha/2)| falls by at most
    # (pi*alpha*dxi)**2/16 on the worst band bin, at most half a bin away, so
    # the spike there loses no more.  The lower tolerance is twice that plus
    # the upper check's round-off allowance.  The grid refines with |alpha|
    # because the mismatch slope at the maximum grows with it.
    m1 = member(group, 2.0 if group.is_trivial else 1.0 + np.pi / group.beta)
    grow = min(max(1.0, 1.5 * abs(group.alpha)), 2.0 if fast else 4.0)
    dist_grid = SpatialGrid(n, 320.0 * grow)
    lower_tol = (np.pi * abs(group.alpha) * dist_grid.dxi) ** 2 / 8.0 + 1e-12 * scale
    dist_band = BandSpec(2.0)
    sup = band_sup_distance(m1, spec, dist_band)
    probed = probe_operator_distance(m1, spec, dist_band, dist_grid)
    checks.append(_check("operator_distance_upper", max(probed - sup, 0.0),
                         1e-12 * scale,
                         detail=f"sup={sup:.17g} probe={probed:.17g}"))
    checks.append(_check("operator_distance_lower", max(sup - probed, 0.0),
                         lower_tol,
                         detail="worst-bin spike gap"))

    return {
        "schema": 1,
        "tool": "fracprop-verify",
        "spec": {"alpha": group.alpha, "beta": group.beta},
        "seed": int(seed),
        "fast": bool(fast),
        "tolerance_scale": scale,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
