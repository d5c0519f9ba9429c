"""Walk one instance per regime: classify, certify, and cross-check.

For each of the six regimes this certifies the extremal constants, rescans
the two-value profile on a fresh grid, and reports how closely the grid
extremes reproduce the certificate.  A quick end-to-end smoke test of the
whole pipeline:

    python3 scripts/regime_gallery.py
    python3 scripts/regime_gallery.py --grid 1000000 --samples 100000
"""

import argparse

from meangap.constants import best_constants
from meangap.means import ExponentPair
from meangap.oracle import MIN_GRID, check_bounds, monte_carlo_extremes
from meangap.regimes import classify

# one representative per regime; r chosen exactly via from_r
GALLERY = (
    (3, -1.0),
    (4, 0.5),
    (3, 1.4),
    (5, 2.0),
    (3, 5.0),
    (5, 5.0),
)


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid", type=int, default=MIN_GRID)
    ap.add_argument("--samples", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=0)
    return ap.parse_args()


def main() -> None:
    args = parse_args()
    all_ok = True
    for n, r in GALLERY:
        e = ExponentPair.from_r(r)
        regime = classify(n, e)
        cert = best_constants(n, e)
        report = monte_carlo_extremes(
            cert, samples=args.samples, seed=args.seed, grid=args.grid)
        chk = check_bounds(report)
        all_ok = all_ok and chk.ok
        ge = report.grid_extreme
        print(f"n={n} r={r:g}  {regime.tag.value}")
        print(f"  bounds   [{cert.lower_bound:.12g}, {cert.upper_bound:.12g}]"
              f"  ({cert.lower_kind} / {cert.upper_kind})")
        if cert.omega is not None:
            print(f"  interior omega={cert.omega:.15g} at x*={cert.x_star:.12g}"
                  f"  (mu={cert.mu:.12g})")
        print(f"  grid     min={ge.min_value:.12g} max={ge.max_value:.12g}"
              f"  ({ge.points} points)")
        print(f"  sampled  min={report.observed_min:.12g}"
              f" max={report.observed_max:.12g}"
              f"  violations={report.violations}")
        print(f"  check    {'ok' if chk.ok else 'FAILED'}")
        for line in chk.failures:
            print(f"           {line}")
    raise SystemExit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
