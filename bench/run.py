"""meangap benchmark: one run of one workload.

    python3 bench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Run it from the root of a meangap checkout; the program is imported from
``src/`` there, so nothing needs installing.  A run

1. checks the 50-digit reference against published figures,
2. times set-up: fresh interpreters running a fixed first operation as
   ``python3 -m meangap.cli`` would (``setup_probe.py``), median of
   several, in reference seconds,
3. runs the workload's seeded pass in a closed loop, one thread, in a
   worker process of its own (``worker.py``), whole passes until
   ``--seconds`` have gone by, each operation next to a calibration
   kernel (``calibration.py``) that scales its times to reference
   seconds,
4. checks every operation's output against the reference
   (``checks.py``) and runs the checks' self-test,
5. prints one JSON line: end-to-end metrics with ``--trace 0``,
   per-layer metrics with ``--trace 1``.

Details of the run (failures, the op list, spans of a traced run) go to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402  (next to this file)
import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 7
IMPORT_RUNS = 5
# a run must end within this many seconds of its start
DEADLINE_S = 170.0
# the reference checks of one run take at most this long
CHECK_RESERVE_S = 25.0

IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy, click; "
    "t1 = time.perf_counter(); import meangap.cli; t2 = time.perf_counter(); "
    "print(t1 - t0, t2 - t1)"
)


class BenchError(RuntimeError):
    pass


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    # single-threaded: no BLAS or OpenMP pool may add CPU behind the loop
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(cmd, root, env, timeout=60.0, stdin="") -> subprocess.CompletedProcess:
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=timeout, input=stdin)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[-6:])} exited {proc.returncode}: {proc.stderr[-500:]}")
    return proc


def time_setup(args, root, env) -> list:
    """Reference seconds of fresh interpreters running `meangap <args>`
    (``setup_probe.py``); the first warms caches.

    The wall time leaves out the probe's two calibration kernel runs, and
    is scaled to reference seconds by their mean time.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), *args]
    nominal = calibration.NOMINAL_S["startup"]
    samples = []
    for k in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        proc = _spawn(cmd, root, env)
        wall = time.perf_counter() - t0
        kernels = json.loads(proc.stderr.splitlines()[-1])
        if k:
            samples.append((wall - sum(kernels)) / statistics.mean(kernels) * nominal)
    return samples


def time_imports(root, env):
    deps, own = [], []
    for _ in range(IMPORT_RUNS):
        proc = _spawn([sys.executable, "-c", IMPORT_PROBE], root, env)
        a, b = proc.stdout.split()
        deps.append(float(a))
        own.append(float(b))
    return statistics.median(deps), statistics.median(own)


def scaled(res: dict, key: str, kind: str) -> list:
    """Per pass, each execution's `key` time in reference seconds: times
    the kernel's nominal time over its time measured around the execution.

    Wall times count time off the CPU only up to ``calibration.on_cpu``.
    """
    nominal = calibration.NOMINAL_S[kind]
    values = res[key]
    if key == "wall":
        values = [list(map(calibration.on_cpu, walls, cpus))
                  for walls, cpus in zip(res["wall"], res["cpu"])]
    return [
        [value / kernel * nominal for value, kernel in zip(row, kernels)]
        for row, kernels in zip(values, res[f"kernel_{key}"])
    ]


def per_op(times: list) -> list:
    """Each operation's median time over its repeats, one per pass."""
    return [statistics.median(repeats) for repeats in zip(*times)]


def tail(times: list) -> float:
    """The highest latency with at least ten beyond it, over every execution."""
    ranked = sorted(t for row in times for t in row)
    return ranked[len(ranked) - 11]


def end_to_end(res: dict, setup: list, kind: str) -> dict:
    scaled_wall = scaled(res, "wall", kind)
    wall, cpu = per_op(scaled_wall), per_op(scaled(res, "cpu", kind))
    return {
        "ops_per_s": (len(wall) / sum(wall), "1/s"),
        "latency_p50_ms": (statistics.median(wall) * 1e3, "ms"),
        "latency_tail_ms": (tail(scaled_wall) * 1e3, "ms"),
        "cpu_ms_per_op": (sum(cpu) / len(cpu) * 1e3, "ms"),
        "peak_rss_mb": (res["maxrss_kb"] / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def per_layer(res: dict, imports) -> dict:
    metrics = {k: tuple(v) for k, v in res["layers"].items()}
    deps, own = imports
    metrics["setup.meangap_import_ms"] = (own * 1e3, "ms")
    metrics["setup.deps_import_ms"] = (deps * 1e3, "ms")
    plain_wall = [w for record in res["wall"] for w in record]
    plain = len(plain_wall) / sum(plain_wall)
    traced = len(res["traced_wall"]) / sum(res["traced_wall"])
    metrics["trace.ops_per_s"] = (traced, "1/s")
    metrics["trace.untraced_ops_per_s"] = (plain, "1/s")
    metrics["trace.overhead_pct"] = ((plain / traced - 1.0) * 100.0, "%")
    return metrics


def check_outputs(ops, res):
    """Per-op problems of the first pass, the ops that fail only as their
    known fault, and checks that let broken output pass."""
    checker = checks.Checker()
    problems, expected, samples = {}, set(), {}
    for i, (args, rec) in enumerate(zip(ops, res["first"])):
        known_miss = workloads.known_miss(args)
        found = checker.check(args, rec["code"], rec["out"], known_miss)
        if found and all(p.startswith(checks.KNOWN) for p in found):
            expected.add(i)
        elif found:
            problems[i] = found + ([rec["err"].strip()[-300:]] if rec["err"].strip() else [])
            continue
        # one sample per command, and one of a known fault, for the self-test
        samples.setdefault((args[0], known_miss is not None),
                           (args, rec["code"], rec["out"], known_miss))
    vacuous = checks.self_test(checker, list(samples.values()))
    return problems, expected, vacuous


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd()
    src = root / "src"
    if not (src / "meangap" / "cli.py").is_file():
        print(f"bench: no meangap source at {src}; run from a checkout's root",
              file=sys.stderr)
        return 2
    if opts.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {opts.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    bad_reference = reference.self_check()
    if bad_reference:
        print("bench: reference self-check failed: " + "; ".join(bad_reference),
              file=sys.stderr)
        return 1

    ops = workloads.WORKLOADS[opts.workload](opts.seed)
    env = child_env(src)
    try:
        if opts.trace:
            imports = time_imports(root, env)
        else:
            setup = time_setup(workloads.SETUP_OPS[opts.workload], root, env)
        kind = workloads.CALIBRATION[opts.workload]
        job = {"ops": ops, "seconds": opts.seconds, "trace": bool(opts.trace),
               "calibration": kind}
        budget = DEADLINE_S - CHECK_RESERVE_S - (time.perf_counter() - started)
        proc = _spawn([sys.executable, str(HERE / "worker.py")], root, env, timeout=budget,
                      stdin=json.dumps(job))
    except subprocess.TimeoutExpired as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout)

    problems, expected, vacuous = check_outputs(ops, res)
    unexpected = sorted(problems)
    mismatched = [m for m in res["mismatches"] if m[1] not in problems and m[1] not in expected]
    passes = res["passes"]
    attempted = passes * len(ops)
    failed = passes * (len(problems) + len(expected)) + len(mismatched)
    correct = not unexpected and not mismatched and not vacuous

    if opts.trace:
        metrics = per_layer(res, imports)
    else:
        metrics = end_to_end(res, setup, kind)

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{opts.workload}-seed{opts.seed}-trace{opts.trace}"
    detail = {
        "workload": opts.workload, "seed": opts.seed, "seconds": opts.seconds,
        "ops_per_pass": len(ops), "passes": passes, "pass": ops,
        "known_faults": [" ".join(ops[i]) for i in sorted(expected)],
        "unexpected_failures": {" ".join(ops[i]): problems[i] for i in unexpected},
        "output_changed_between_passes": mismatched,
        "self_test_not_caught": vacuous,
        "setup_samples_s": None if opts.trace else setup,
        "wall_s_per_pass": res["wall"],
        "cpu_s_per_pass": res["cpu"],
        "calibration": kind,
        "kernel_wall_s_per_pass": res["kernel_wall"],
        "kernel_cpu_s_per_pass": res["kernel_cpu"],
        "metrics": metrics,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if opts.trace:
        (out_dir / f"{opts.workload}-seed{opts.seed}.spans.json").write_text(
            json.dumps({"fields": ["op", "span", "parent", "name", "start", "end"],
                        "spans": res["spans"]}))

    for i in unexpected:
        print(f"unexpected failure: {' '.join(ops[i])}: {problems[i][0]}")
    for line in vacuous:
        print(f"checker self-test: {line}")
    print(f"{opts.workload} seed {opts.seed}: {attempted} ops in {passes} passes of "
          f"{len(ops)}, {failed} failed ({len(expected)} known faults per pass)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
