"""Reference per-layer figures: one call of the FFT pair, ``apply``,
``dilate_signal`` and ``conjugated_apply`` at n = 4096, 8192 and 16384, each
function and size in a fresh process with the benchmark's thread settings.

    python3 perfbench/sweep.py

The input is the verification suite's order-doubling probe: a Gaussian
packet (spectral width 0.3, carrier 3) projected onto the band R = 8, on a
window with dx = 1/16; the symbol is exp(i*|xi|**2) and the dilation factor
2**(1/2).  Prints a Markdown table of the median wall time per call and the
process's peak RSS before and after the calls.
"""

import json
import resource
import statistics
import subprocess
import sys
import time

from checkout import use_checkout_source

FUNCTIONS = ("fft_pair", "apply", "dilate_signal", "conjugated_apply")
SIZES = (4096, 8192, 16384)
MAX_CALLS = 7
BUDGET_S = 20.0


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def measure_one(function, n):
    fp = use_checkout_source()
    grid = fp.SpatialGrid(n, n / 32.0)
    band = fp.BandSpec(8.0)
    packet = fp.gaussian_packet(grid, spectral_width=0.3, carrier=3.0)
    f = fp.inverse_transform(fp.band_project(fp.forward_transform(packet), band))
    spec = fp.ClosedForm(2.0, 1.0)
    lam = 2.0 ** 0.5
    call = {
        "fft_pair": lambda: fp.inverse_transform(fp.forward_transform(f)),
        "apply": lambda: fp.apply(spec, f, band),
        "dilate_signal": lambda: fp.dilate_signal(f, 1.0 / lam),
        "conjugated_apply": lambda: fp.conjugated_apply(spec, lam, f, band),
    }[function]
    rss_before = _peak_rss_mb()
    times = []
    started = time.perf_counter()
    while len(times) < MAX_CALLS and time.perf_counter() - started < BUDGET_S:
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return {"function": function, "n": n, "calls": len(times),
            "median_s": statistics.median(times), "rss_before_mb": rss_before,
            "peak_rss_mb": _peak_rss_mb()}


def main():
    from run import child_environment

    print("| function | n | calls | median per call | peak RSS before | peak RSS after |")
    print("|---|---|---|---|---|---|")
    for function in FUNCTIONS:
        for n in SIZES:
            proc = subprocess.run([sys.executable, __file__, "--one", function, str(n)],
                                  capture_output=True, text=True, timeout=120,
                                  env=child_environment(), check=True)
            r = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"| {function} | {n} | {r['calls']} | {r['median_s'] * 1e3:.4g} ms "
                  f"| {r['rss_before_mb']:.0f} MB | {r['peak_rss_mb']:.0f} MB |", flush=True)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--one"]:
        print(json.dumps(measure_one(sys.argv[2], int(sys.argv[3]))))
    else:
        main()
