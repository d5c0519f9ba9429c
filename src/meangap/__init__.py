"""meangap: certified extremal constants for the (A - G)/(P_alpha - G) ratio.

The arithmetic, geometric, and order-alpha power means of a positive
tuple satisfy sharp two-sided comparisons; this package computes the
extremal constants for each (n, alpha), certifies how they arise from a
one-variable profile, and cross-checks them with independent grid and
Monte Carlo oracles.
"""

from . import constants, means, oracle, profile, reduction, regimes, solver  # noqa: F401

__version__ = "0.1.0"
