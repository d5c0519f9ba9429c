"""Certified constants against an independent high-precision reference.

SHARP holds the sharp constants (inf, sup) of the gap ratio over the
two-value family, rounded to 20 significant digits.  They were produced
once with the benchmark's 50-digit mpmath reference, from `bench/`:

    python3 -c "import reference as R; print(R.sharp_constants(n, R.exponent(alpha)))"

which works from A, G and P_alpha of the tuple written in its small
coordinate and shares no code with the package (no profile, regime
table or solver).  Freezing them keeps mpmath out of the test
dependencies.  A certified bound must match its constant to 1e-13
relative; which side of the constant it falls on is not checked here.
"""

from fractions import Fraction

import pytest

from meangap.constants import best_constants
from meangap.means import ExponentPair

SHARP = {
    (3, "-1"): ("-inf", "-0.90096030150908884983"),
    (10, "-1"): ("-inf", "-0.41339818966565060375"),
    (30, "-1"): ("-inf", "-0.17469829520329929615"),
    (100, "-1"): ("-inf", "-0.064961289236532091445"),
    (300, "-1"): ("-inf", "-0.025631988177348977029"),
    (1000, "-1"): ("-inf", "-0.0090220381874191834217"),
    (3000, "-1"): ("-inf", "-0.0034137170092959741885"),
    (10000, "-1"): ("-inf", "-0.0011570265560631158226"),
    (3, "-1/2"): ("-inf", "-1.7793911127863836097"),
    (10, "-1/2"): ("-inf", "-0.76287958229496163532"),
    (30, "-1/2"): ("-inf", "-0.31150766626900632213"),
    (100, "-1/2"): ("-inf", "-0.11465367348772570031"),
    (300, "-1/2"): ("-inf", "-0.04536116488009311038"),
    (1000, "-1/2"): ("-inf", "-0.016086502854916151049"),
    (3000, "-1/2"): ("-inf", "-0.0061331137795476203749"),
    (10000, "-1/2"): ("-inf", "-0.0020948923761470955965"),
    (3, "2"): ("0.47421657693679141183", "0.81649658092772603273"),
    (10, "2"): ("0.30687713097605933464", "0.9486832980505137996"),
    (30, "2"): ("0.18211905150676321243", "0.98319208025017505562"),
    (100, "2"): ("0.099997339571279740675", "0.99498743710661995473"),
    (300, "2"): ("0.057735025887734146705", "0.99833194212479581799"),
    (1000, "2"): ("0.031622776601683442918", "0.99949987493746091014"),
    (3000, "2"): ("0.018257418583505537115", "0.99983331944212914726"),
    (10000, "2"): ("0.01", "0.99994999874993749609"),
    # LOW_R_SMALL_N, alpha = (3n-1)/(3n)
    (3, "8/9"): ("1.0519895055086441272", "1.1511249345022443557"),
    (10, "29/30"): ("1.0036397290143856875", "1.0826367338740995274"),
    (30, "89/90"): ("1.0003809888687932184", "1.0389553123247221319"),
    # HIGH_R_SMALL_N, alpha = 1/(floor(2.5 n) + 1)
    (3, "1/8"): ("6.6919922535793871633", "2187"),
    (10, "1/26"): ("7.4234979046896929085", "1e25"),
    (30, "1/76"): ("7.3908525759584051276", "6.0826678771335770912e110"),
    # |alpha| = 60, the largest order the CLI tests exercise
    (3, "-60"): ("-inf", "-0.015393471653996690916"),
    (3, "60"): ("0.015413244935859650625", "0.6711870912854229344"),
}

RTOL = 1e-13


def exponent(text: str) -> ExponentPair:
    # as `meangap --alpha p/q` reads it: r is the exact reciprocal, rounded once
    q = Fraction(text)
    return ExponentPair(alpha=float(q), r=float(1 / q))


@pytest.mark.parametrize("n,alpha", sorted(SHARP, key=lambda k: (k[1], k[0])))
def test_bounds_match_reference(n, alpha):
    cert = best_constants(n, exponent(alpha))
    for bound, text in zip((cert.lower_bound, cert.upper_bound), SHARP[(n, alpha)]):
        ref = float(text)
        assert bound == ref or abs(bound - ref) <= RTOL * abs(ref), (bound, text)


def test_n1000_witness_lies_below_the_upper_bound():
    # 999 coordinates at x = 0.0010010008555648628 and one at 1 - 999x:
    # the reference's ratio of this tuple is -0.0090220392257003044 at
    # 50 digits, so no sharp upper constant can lie below it
    cert = best_constants(1000, exponent("-1"))
    assert cert.upper_bound >= -0.0090220392257003044
