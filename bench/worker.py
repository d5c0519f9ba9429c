"""Closed-loop runner for one workload, in a process of its own.

Reads a job from stdin:

    {"ops": [[arg, ...], ...], "seconds": 15, "trace": false,
     "calibration": "scalar"}

and repeats whole passes over ``ops``: untimed passes for WARMUP_S, then
timed passes until ``seconds`` have gone by and at least MIN_PASSES ran.
Each operation is one in-process call of the ``meangap`` click entry
point; the next starts when the previous has returned.  Only the call is
timed: capturing its output happens around the timed interval and
checking it happens in the parent, after this process has exited.  A
calibration kernel (``calibration.py``) runs before the first operation
and after every operation, so each operation has a kernel time on
either side of it.

Writes one JSON object to stdout: wall and CPU times per pass and op,
the longer wall time (counting time off the CPU only up to
``calibration.on_cpu``) and CPU time of the kernel runs on either side
of each, the first pass's outputs (later passes must repeat them byte
for byte, the elapsed-time field aside), the process's peak RSS and, for
a traced run, the per-layer figures from ``tracer.Tracer``.  Imports
nothing from the benchmark's reference, so its memory is the program's
own.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import resource
import sys
import time

import calibration

# the only field of an envelope that changes between identical calls
_ELAPSED = re.compile(r'"elapsed_s": "[^"]*"')

# untimed passes first, until caches and the CPU have settled
WARMUP_S = 2.0
# timed passes at least: the tail (ten executions beyond it) then rests on
# at least 44 executions in the workload with the shortest pass
MIN_PASSES = 11


def call(main, args, out, err):
    """Run one CLI call; return (code, stdout, stderr, wall s, cpu s).

    ``out`` and ``err`` are the same two StringIO objects on every call:
    click caches a text wrapper per stream and the cache entry keeps the
    stream alive, so a fresh stream per call would grow the process by
    one output per operation.
    """
    for stream in (out, err):
        stream.seek(0)
        stream.truncate()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            main(args, prog_name="meangap")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:  # an uncaught error: the shell would see exit 1
            code = 1
            err.write(f"{type(exc).__name__}: {exc}")
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return code, out.getvalue(), err.getvalue(), wall, cpu


def run(job: dict) -> dict:
    from meangap.cli import main

    ops, seconds, trace = job["ops"], job["seconds"], job["trace"]
    kind = job["calibration"]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    streams = io.StringIO(), io.StringIO()

    first = []
    timed = []  # per untraced timed pass: [(wall, cpu, kernel wall, kernel cpu), ...]
    traced_wall = []
    mismatches = []
    passes = 0
    start = time.perf_counter()
    timed_start = None
    before = calibration.timed(kind)
    while True:
        warm = passes == 0 or time.perf_counter() - start < WARMUP_S
        if not warm and timed_start is None:
            timed_start = time.perf_counter()
            timed_passes = 0
        # a traced run alternates untraced and traced passes, so both see
        # the same machine state
        traced = trace and not warm and timed_passes % 2 == 1
        if traced:
            tracer.install()
        record = []
        for i, args in enumerate(ops):
            if traced:
                tracer.begin_op()
            code, out, err, w, c = call(main, args, *streams)
            after = calibration.timed(kind)
            kernel = (max(calibration.on_cpu(*before), calibration.on_cpu(*after)),
                      max(before[1], after[1]))
            before = after
            if traced:
                tracer.end_op(w, args, out)
                traced_wall.append(w)
            else:
                record.append((w, c, *kernel))
            out = _ELAPSED.sub('"elapsed_s": ""', out)
            if passes == 0:
                first.append({"code": code, "out": out, "err": err[-2000:]})
            elif code != first[i]["code"] or out != first[i]["out"]:
                mismatches.append([passes, i])
        if traced:
            tracer.uninstall()
        passes += 1
        if warm:
            continue
        timed_passes += 1
        if not traced:
            timed.append(record)
        enough = len(timed) >= (1 if trace else MIN_PASSES) and (
            not trace or traced_wall
        )
        if enough and time.perf_counter() - timed_start >= seconds:
            break

    result = {
        "passes": passes,
        "wall": [[rec[0] for rec in record] for record in timed],
        "cpu": [[rec[1] for rec in record] for record in timed],
        "kernel_wall": [[rec[2] for rec in record] for record in timed],
        "kernel_cpu": [[rec[3] for rec in record] for record in timed],
        "first": first,
        "mismatches": mismatches,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace:
        result["traced_wall"] = traced_wall
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.spans
    return result


if __name__ == "__main__":
    job = json.load(sys.stdin)
    json.dump(run(job), sys.stdout)
