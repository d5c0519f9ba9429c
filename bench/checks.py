"""Per-operation output checks against the reference, and their self-test.

``Checker.check(args, code, out)`` returns the list of problems with one
operation's exit code and JSON envelope; an empty list means the output
is right.  Certificates are compared with ``reference.sharp_constants``;
profile rows, reduce3 rows and verify envelopes with the reference or
with properties the method must have.  ``self_test`` feeds the checks
deliberately broken copies of real outputs and reports any that pass.
"""

from __future__ import annotations

import copy
import json

from mpmath import mpf

import reference
from workloads import options

# sup/inf of the gap ratio must match the reference to the certificate's
# tol.omega_abs, relative to max(1, |constant|): a double cannot hold
# n^(r-1) ~ 1e13 to an absolute 1e-12
def _bound_miss(bound: str, ref):
    return abs(mpf(bound) - ref) / max(1, abs(ref))


# profile columns: the program's value must lie within RTOL of the exact
# value at some point within _X_REL of the printed x (a few ulps), since
# 1 - (n-1) x is ill-conditioned near x = 1/(n-1) for any evaluator
PROFILE_RTOL = {
    "g": mpf("1e-12"),
    "p": mpf("1e-12"),
    "f": mpf("1e-10"),
    "U": mpf("1e-11"),
    "V": mpf("1e-12"),
    "W": mpf("1e-11"),
    "fprime": mpf("1e-7"),
}
_X_REL = mpf(2) ** -50
CENTER_BAND = mpf("1e-9")
# the first row, x = 1e-9/n, is known to be wrong (ROADMAP item 1): the
# program forms a = n x - 1, whose spacing near -1 is 2^-53, so it sees
# n x only to within 2^-53.  That row is checked against the exact values
# within that resolution, two spacings either side, and no wider.
FIRST_ROW_NX = mpf("1e-9")
_FIRST_ROW_X_REL = 2 * mpf(2) ** -53 / FIRST_ROW_NX

# reduce3: the product is pinned by construction (x = prod/(t z)); the sum
# passes through a square root that closes up at both ends of the curve
REDUCE3_PROD_RTOL = mpf("1e-13")
REDUCE3_SUM_RTOL = mpf("1e-6")
REDUCE3_H_RTOL = mpf("1e-12")


# problems of a known fault within its stated cap start with this
KNOWN = "known fault: "


def _omega_abs_from_width(width: str):
    # what `constants` states as tol.omega_abs for a bracket width
    w = mpf(width)
    return max(w * w, mpf("1e-12"))


class Checker:
    def __init__(self):
        self._sharp_cache = {}

    def sharp(self, n: int, alpha: str):
        key = (n, alpha)
        if key not in self._sharp_cache:
            self._sharp_cache[key] = reference.sharp_constants(n, reference.exponent(alpha))
        return self._sharp_cache[key]

    def check(self, args: list, code: int, out: str, known_miss=None) -> list:
        """Problems with one operation's output; [] when it is right.

        ``known_miss`` is the cap of a known fault (``workloads.KNOWN_FAULTS``):
        a certificate bound that misses the reference by more than its
        stated tolerance but by no more than the cap gives a problem that
        starts with ``KNOWN``; every other problem is unexpected.
        """
        want = 0
        if code != want:
            return [f"exit code {code}, want {want}"]
        try:
            env = json.loads(out)
            payload = env["payload"]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"no JSON envelope: {exc}"]
        try:
            return getattr(self, "_" + args[0])(options(args), payload, env, known_miss)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return [f"malformed payload: {type(exc).__name__}: {exc}"]
        except reference.UnreliableReference as exc:
            return [f"unchecked: {exc}"]

    # -- certificates -----------------------------------------------------

    def certificate(self, cert: dict, n: int, alpha: str, omega_abs, known_miss=None) -> list:
        problems = []
        if cert["n"] != n:
            problems.append(f"certificate is for n={cert['n']}, asked {n}")
        lo_ref, hi_ref = self.sharp(n, alpha)
        for side, ref in (("lower", lo_ref), ("upper", hi_ref)):
            bound, kind = cert[f"{side}_bound"], cert[f"{side}_kind"]
            if ref == mpf("-inf"):
                if kind != "unbounded" or mpf(bound) != ref:
                    problems.append(f"{side} bound {bound} ({kind}) should be unbounded")
                continue
            miss = _bound_miss(bound, ref)
            if miss > omega_abs:
                known = known_miss is not None and miss <= known_miss
                problems.append(
                    (KNOWN if known else "")
                    + f"n={n} alpha={alpha}: {side} bound {bound} ({kind}) misses the "
                    f"reference {ref} by {float(miss):.3g} > omega_abs {float(omega_abs):.3g}"
                )
            if kind == "certified-extremum" and cert["omega"] != bound:
                problems.append(f"omega {cert['omega']} is not the {side} bound {bound}")
        return problems

    def _constants(self, opts, payload, env, known_miss):
        omega_abs = mpf(payload["tol"]["omega_abs"])
        return self.certificate(payload, int(opts["n"]), opts["alpha"], omega_abs, known_miss)

    def _sweep(self, opts, payload, env, known_miss):
        alpha = opts["alpha"]
        n_min, n_max = int(opts.get("n-min", 3)), int(opts["n-max"])
        omega_abs = _omega_abs_from_width(env["metadata"]["tolerances"]["nu_bracket_width"])
        rows = payload["rows"]
        problems = []
        if [row["n"] for row in rows] != list(range(n_min, n_max + 1)):
            problems.append("rows do not cover n_min..n_max in order")
        for row in rows:
            problems += self.certificate(row, row["n"], alpha, omega_abs, known_miss)
        # the paper's direction: omega_1 increases with n, omega_2 decreases
        a = reference.exponent(alpha)
        want = "increasing" if a < 0 else "decreasing" if a > 1 else None
        if want:
            omegas = [mpf(row["omega"]) for row in rows if row["omega"] is not None]
            pairs = list(zip(omegas, omegas[1:]))
            ordered = all(b > a_ for a_, b in pairs) if want == "increasing" else all(
                b < a_ for a_, b in pairs
            )
            if len(omegas) != len(rows) or not ordered:
                problems.append(f"omega is not strictly {want} in n")
            if payload["verdict"]["omega"] != want:
                problems.append(f"verdict {payload['verdict']['omega']!r}, want {want!r}")
        return problems

    # -- verify -------------------------------------------------------------

    def _verify(self, opts, payload, env, known_miss):
        problems = []
        if payload["ok"] is not True or payload["check"]["ok"] is not True:
            problems.append("verify reports ok = false")
        if payload["check"]["failures"]:
            problems.append(f"verify lists failures: {payload['check']['failures']}")
        cert = payload["certificate"]
        n, alpha = int(opts["n"]), opts["alpha"]
        problems += self.certificate(cert, n, alpha, mpf(cert["tol"]["omega_abs"]), known_miss)
        rep = payload["report"]
        if rep["samples"] < 100_000 or rep["grid_extreme"]["points"] < 1_000_000:
            problems.append("verify ran below the default sizes")
        lower, upper = mpf(cert["lower_bound"]), mpf(cert["upper_bound"])
        slack = mpf(env["metadata"]["tolerances"]["violation_slack"])
        scale = max(1, abs(upper), abs(lower) if lower != mpf("-inf") else 1)
        grid = rep["grid_extreme"]
        for label, value in (
            ("observed_min", rep["observed_min"]),
            ("observed_max", rep["observed_max"]),
            ("grid min", grid["min_value"]),
            ("grid max", grid["max_value"]),
        ):
            v = mpf(value)
            if v < lower - slack * scale or v > upper + slack * scale:
                problems.append(f"{label} {value} lies outside [{lower}, {upper}]")
        return problems

    # -- tabulate -------------------------------------------------------------

    def _profile(self, opts, payload, env, known_miss):
        n, alpha_text = int(opts["n"]), opts["alpha"]
        alpha = reference.exponent(alpha_text)
        names = opts["which"].split(",")
        rows = payload["rows"]
        problems = []
        if len(rows) != int(opts.get("points", 201)):
            problems.append(f"{len(rows)} rows")
        x_hi = mpf(1) / (n - 1)
        prev = mpf(0)
        for row in rows:
            x = mpf(row["x"])
            if not prev < x < x_hi:
                problems.append(f"x = {row['x']} out of order or outside (0, 1/(n-1))")
                break
            prev = x
            in_band = abs(n * x - 1) <= CENTER_BAND
            first_row = abs(n * x / FIRST_ROW_NX - 1) <= mpf("1e-6")
            x_rel = _FIRST_ROW_X_REL if first_row else _X_REL
            ref = reference.profile_row(n, alpha, x)
            near = [
                reference.profile_row(n, alpha, x * (1 + s * x_rel)) for s in (-1, 1)
            ]
            for name in names:
                value = row[name]
                if name == "fprime" and value is None:
                    if abs(n * x - 1) > CENTER_BAND * (1 + mpf("1e-6")):
                        problems.append(f"fprime empty at x = {row['x']}, outside the center band")
                    continue
                if in_band:
                    continue  # inside the band the program returns the limit value
                exact = ref[name]
                allowed = PROFILE_RTOL[name] * abs(exact) + max(
                    abs(other[name] - exact) for other in near
                )
                if abs(mpf(value) - exact) > allowed:
                    problems.append(
                        f"{name}({row['x']}) = {value}, reference {exact}, "
                        f"off by {float(abs(mpf(value) - exact)):.3g} > {float(allowed):.3g}"
                    )
        return problems

    def _reduce3(self, opts, payload, env, known_miss):
        s, prod, r = mpf(opts["sum"]), mpf(opts["prod"]), mpf(opts["r"])
        rows = payload["rows"]
        problems = []
        if len(rows) != int(opts.get("grid", 101)):
            problems.append(f"{len(rows)} rows")
        hs = []
        for row in rows:
            x, y, z = (mpf(row[k]) for k in ("x", "y", "z"))
            if row["t"] != row["y"] or not x <= y * (1 + mpf("1e-12")) or not y <= z * (
                1 + mpf("1e-12")
            ):
                problems.append(f"row t={row['t']} is not an ordered triple with y = t")
            if abs(x * y * z - prod) > REDUCE3_PROD_RTOL * prod:
                problems.append(f"row t={row['t']}: product {x * y * z} != {prod}")
            if abs(x + y + z - s) > REDUCE3_SUM_RTOL * s:
                problems.append(f"row t={row['t']}: sum {x + y + z} != {s}")
            h = reference.power_sum((x, y, z), r)
            if abs(mpf(row["h"]) - h) > REDUCE3_H_RTOL * abs(h):
                problems.append(f"row t={row['t']}: h {row['h']} != {h}")
            hs.append(h)
        # the paper: the power sum falls along the curve for r > 1 and
        # rises for r < 1
        want = "strictly decreasing" if r > 1 else "strictly increasing"
        steps = [b - a for a, b in zip(hs, hs[1:])]
        if not all((d < 0) if r > 1 else (d > 0) for d in steps):
            problems.append(f"reference h along the rows is not {want}")
        if payload["monotone"] != want:
            problems.append(f"verdict {payload['monotone']!r}, want {want!r}")
        return problems


# -- self-test: every check must reject a broken copy of a real output ------

def _mutations(args: list, code: int, out: str, known_miss=None):
    """(label, code, out, expect) variants of one output that passes, or fails
    only as its known fault: each must fail with a problem that contains
    `expect` and is not excused as the known fault."""
    env = json.loads(out)
    kind = args[0]
    variants = []

    def emit(label, new_env, expect):
        variants.append((label, code, json.dumps(new_env), expect))

    def moved(cert, omega_abs):
        # move the first finite bound by 10x its stated tolerance
        for side in ("lower", "upper"):
            b = cert[f"{side}_bound"]
            if mpf(b) != mpf("-inf"):
                step = 10 * omega_abs * max(1, abs(mpf(b)))
                cert[f"{side}_bound"] = format(float(mpf(b) + step), ".17g")
                if cert[f"{side}_kind"] == "certified-extremum":
                    cert["omega"] = cert[f"{side}_bound"]
                return side
        raise ValueError("no finite bound")

    if kind == "constants" and known_miss is not None:
        e = copy.deepcopy(env)
        moved(e["payload"], float(known_miss))
        emit("known-fault certificate bound moved by 10x its cap", e, "misses the reference")
    elif kind == "constants":
        e = copy.deepcopy(env)
        moved(e["payload"], float(e["payload"]["tol"]["omega_abs"]))
        emit("certificate bound moved by 10x omega_abs", e, "misses the reference")
    elif kind == "verify":
        e = copy.deepcopy(env)
        e["payload"]["ok"] = False
        e["payload"]["check"]["ok"] = False
        emit("verify envelope with ok: false", e, "ok = false")
        e = copy.deepcopy(env)
        moved(e["payload"]["certificate"], float(e["payload"]["certificate"]["tol"]["omega_abs"]))
        emit("verify certificate bound moved by 10x omega_abs", e, "misses the reference")
    elif kind == "sweep":
        e = copy.deepcopy(env)
        rows = e["payload"]["rows"]
        i = len(rows) // 2
        rows[i]["omega"], rows[i + 1]["omega"] = rows[i + 1]["omega"], rows[i]["omega"]
        emit("sweep with one omega out of order", e, "not strictly")
    elif kind == "reduce3":
        e = copy.deepcopy(env)
        row = e["payload"]["rows"][len(e["payload"]["rows"]) // 2]
        row["x"] = format(float(row["x"]) * (1 + 10 * float(REDUCE3_PROD_RTOL)), ".17g")
        emit("reduce3 row with a perturbed product", e, "product")
    elif kind == "profile":
        e = copy.deepcopy(env)
        row = e["payload"]["rows"][len(e["payload"]["rows"]) // 3]
        row["g"] = format(float(row["g"]) * (1 + 1e-9), ".17g")
        emit("profile row with g off by 1e-9", e, "g(")
    return variants


def self_test(checker: Checker, samples: list) -> list:
    """samples: (args, code, out, known_miss) of outputs that pass, or fail only
    as their known fault; returns checks that let a broken copy pass."""
    vacuous = []
    for args, code, out, known_miss in samples:
        for label, bad_code, bad_out, expect in _mutations(args, code, out, known_miss):
            problems = checker.check(args, bad_code, bad_out, known_miss)
            if not any(expect in p and not p.startswith(KNOWN) for p in problems):
                vacuous.append(f"{label}: not caught ({' '.join(args)})")
    return vacuous
