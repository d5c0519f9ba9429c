"""Seeded instance lists, one per workload.

A pass is the list of meangap argument lists one run repeats until its
time is up.  Every seed gives a pass of the same make-up: the seed moves
each instance inside a fixed cell (regime, range of n, form of alpha),
so the cost of a pass and its mix of operations do not drift between
seeds.  Instances whose certificates are known to be wrong are the same
in every pass (``KNOWN_FAULTS``) and never depend on the seed.

Cell ranges keep seeded instances where the program answers today, as
measured against the reference; see README.md for the fault map that
sets them.  Each fault the cells leave out has a fixed instance in
``KNOWN_FAULTS``, so that a fix or a regression there shows.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# (n, alpha) certificates that miss the reference by more than their
# stated omega_abs tolerance, each with a cap on its miss (relative to
# max(1, |constant|)) of about three times the miss measured today.  A
# miss up to the cap counts as a failed operation in every pass; a larger
# miss, or any other problem, is an unexpected failure.
KNOWN_FAULTS = {
    # the profile rebuilds the small coordinate by cancellation (large n
    # NEG_R and FRAC_R): misses 7.0e-12, 1.8e-6, 2.5e-11, 2.7e-12
    ("100", "-1"): 2e-11,
    ("1000", "-1"): 5e-6,
    ("3000", "2"): 1e-10,
    ("30", "-1/2"): 1e-11,
    # the extremum lies closer to an end of the interval than the search
    # reaches, and the certificate stops at the search's edge (small-n
    # turning regimes with r or 1/(1 - alpha) close to n, NEG_R with
    # alpha near 0): misses 1.7e-3, 7.0e-9, 1.5e-2
    ("7", "1/10"): 5e-3,
    ("5", "5/6"): 2e-8,
    ("200", "-0.3"): 5e-2,
}

# one instance per regime, n from 3 to 3000; the seed does not move them
PROFILE_INSTANCES = (
    ("3", "-1"),
    ("300", "-1/2"),
    ("12", "2"),
    ("4", "9/10"),
    ("5", "1/20"),
    ("3000", "3/4"),
)

SWEEP_N_MAX = 40


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _ns(rng: random.Random, lo: int, hi: int, count: int) -> list:
    # one n from each of `count` log-spaced buckets of [lo, hi]
    edges = [lo * (hi / lo) ** (k / count) for k in range(count + 1)]
    return [int(round(_log_uniform(rng, edges[k], edges[k + 1]))) for k in range(count)]


def _alpha_text(alpha: float, fraction: bool) -> str:
    """alpha as a CLI argument: a p/q fraction or a 6-digit decimal."""
    if fraction:
        q = Fraction(alpha).limit_denominator(12)
        return f"{q.numerator}/{q.denominator}"
    return f"{alpha:.6g}"


def _neg(rng, fraction):
    # NEG_R: alpha in [-4, -0.4]
    return _alpha_text(-_log_uniform(rng, 0.4, 4.0), fraction)


def _frac(rng, fraction):
    # FRAC_R: alpha in [1.2, 8]
    return _alpha_text(_log_uniform(rng, 1.2, 8.0), fraction)


def _low_small(rng, n, fraction):
    # LOW_R_SMALL_N needs n < m = 1/(1-alpha); certificates are right only
    # with m >= 2.5 n (README, fault map)
    m = _log_uniform(rng, 2.5 * n, min(40.0 * n, 100.0))
    if fraction:
        m = round(m)
        return f"{m - 1}/{m}"
    return _alpha_text(1.0 - 1.0 / m, False)


def _high_small(rng, n, fraction):
    # HIGH_R_SMALL_N needs n < r; certificates are right only with
    # r >= 2.5 n, and r <= 60 keeps n^(r-1) finite
    r = _log_uniform(rng, 2.5 * n, 60.0)
    if fraction:
        return f"1/{round(r)}"
    return _alpha_text(1.0 / r, False)


def _low_large(rng, fraction):
    # LOW_R_LARGE_N for n >= 11: alpha in [1/2, 0.9]
    return _alpha_text(rng.uniform(0.5, 0.9), fraction)


def _high_large(rng, n, fraction):
    # HIGH_R_LARGE_N: 2 < r <= min(n, 20)
    r = _log_uniform(rng, 2.2, min(float(n), 20.0))
    if fraction:
        return f"1/{max(3, min(n, int(round(r))))}"
    return _alpha_text(1.0 / r, False)


def certify(seed: int) -> list:
    rng = random.Random(f"certify:{seed}")
    ops = []

    def add(n, alpha):
        ops.append(["constants", "--n", str(n), "--alpha", alpha])

    for k, n in enumerate(_ns(rng, 3, 14, 6)):
        add(n, _neg(rng, k % 2 == 1))
    for k, n in enumerate(_ns(rng, 3, 14, 6)):
        add(n, _frac(rng, k % 2 == 1))
    for k, n in enumerate((3, 4, 5, 5)):
        add(n, _low_small(rng, n, k % 2 == 1))
    for k, n in enumerate((3, 4, 5, 4)):
        add(n, _high_small(rng, n, k % 2 == 1))
    for k, n in enumerate(_ns(rng, 11, 3000, 4)):
        add(n, _low_large(rng, k % 2 == 1))
    for k, n in enumerate(_ns(rng, 20, 3000, 4)):
        add(n, _high_large(rng, n, k % 2 == 1))
    for n, alpha in KNOWN_FAULTS:
        add(n, alpha)
    return ops


def sweep(seed: int) -> list:
    # up to n = 40 certificates are right for alpha in [1.5, 8] and
    # [-4, -1]; alpha = 1.23 misses from n = 32 on (README, fault map).
    # The seeded negative exponent stays below -1.2 for margin.
    rng = random.Random(f"sweep:{seed}")
    alphas = ["2", "-1"]
    alphas.append(_alpha_text(_log_uniform(rng, 1.5, 8.0), rng.random() < 0.5))
    alphas.append(_alpha_text(-_log_uniform(rng, 1.2, 4.0), rng.random() < 0.5))
    return [["sweep", "--n-max", str(SWEEP_N_MAX), "--alpha", a] for a in alphas]


def verify(seed: int) -> list:
    # n is fixed per cell, the seed moves alpha: an op's cost grows with n
    # (sampler and sample rows) and with n^2 for alpha > 0 (boundary probes)
    rng = random.Random(f"verify:{seed}")
    ops = []

    def add(n, alpha):
        ops.append(["verify", "--n", str(n), "--alpha", alpha, "--workers", "1"])

    add(5, _neg(rng, False))
    add(10, _frac(rng, True))
    add(3, _low_small(rng, 3, False))
    # verify's grid misreads the x = 0 endpoint once n^(r-1) passes ~1e7
    # (README): the HIGH_R cells keep n^(r-1) <= 1e6
    add(4, f"1/{rng.choice((10, 11))}")
    add(20, _low_large(rng, True))
    add(25, _alpha_text(1.0 / _log_uniform(rng, 2.2, 1.0 + 6.0 / math.log10(25)), False))
    # the largest n sets the tail, so it stays fixed; two such operations
    # put 22 or more executions above every other, so the tail (ten beyond
    # it) sits inside them and not on the edge of a single operation's
    add(100, "1/4")
    add(100, "2/3")
    return ops


REDUCE3_R = ("2", "0.5", "-1")


def tabulate(seed: int) -> list:
    rng = random.Random(f"tabulate:{seed}")
    ops = [
        ["profile", "--n", n, "--alpha", alpha, "--which", "g,p,f,U,V,W,fprime"]
        for n, alpha in PROFILE_INSTANCES
    ]
    for r in REDUCE3_R:
        s = _log_uniform(rng, 1.0, 100.0)
        prod = s**3 / 27.0 * rng.uniform(0.05, 0.9)
        ops.append(["reduce3", "--sum", f"{s:.6g}", "--prod", f"{prod:.6g}", "--r", r])
    return ops


def options(args: list) -> dict:
    """The '--key value' pairs of one argument list, keys without dashes."""
    return {key[2:]: value for key, value in zip(args[1::2], args[2::2])}


def known_miss(args: list):
    """The miss cap of an operation that is a known fault, else None."""
    if args[0] != "constants":
        return None
    opts = options(args)
    return KNOWN_FAULTS.get((opts["n"], opts["alpha"]))


WORKLOADS = {
    "certify": certify,
    "sweep": sweep,
    "verify": verify,
    "tabulate": tabulate,
}

# the calibration kernel each workload's times are scaled by: `verify`
# spends its time in numpy kernels over 1e6-point arrays, whose speed
# follows the machine's memory; the others in the interpreter
CALIBRATION = {
    "certify": "scalar",
    "sweep": "scalar",
    "verify": "vector",
    "tabulate": "scalar",
}

# a fixed first operation per workload, run by a fresh interpreter to
# time set-up; it does not depend on the seed
SETUP_OPS = {
    "certify": ["constants", "--n", "4", "--alpha", "2"],
    "sweep": ["sweep", "--n-max", "20", "--alpha", "2"],
    "verify": ["verify", "--n", "4", "--alpha", "2", "--workers", "1"],
    "tabulate": ["profile", "--n", "4", "--alpha", "2", "--which", "g,p,f,U,V,W,fprime"],
}
