"""Print how the certified interior constant moves with the tuple length.

Usage:
    python3 scripts/omega_sweep.py --alpha 2 --n-max 30
"""

import argparse

from meangap.cli import _overall, _trends
from meangap.constants import sweep_constants
from meangap.means import ExponentPair


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=float, required=True)
    ap.add_argument("--n-min", type=int, default=3)
    ap.add_argument("--n-max", type=int, required=True)
    return ap.parse_args()


def main() -> None:
    args = parse_args()
    e = ExponentPair.from_alpha(args.alpha)
    certs = sweep_constants(e, args.n_min, args.n_max)
    print(f"alpha = {e.alpha:g}, r = {e.r:g}")
    print(f"{'n':>4}  {'regime':<16} {'lower':>22} {'upper':>22} {'omega':>22}")
    for cert in certs:
        omega = cert.omega
        print(f"{cert.n:>4}  {cert.regime.value:<16}"
              f" {cert.lower_bound:>22.15g} {cert.upper_bound:>22.15g}"
              f" {'' if omega is None else format(omega, '>22.15g'):>22}")
    # the verdict `meangap sweep` prints
    print(f"omega trend: {_overall(_trends([cert.omega for cert in certs]))}")


if __name__ == "__main__":
    main()
