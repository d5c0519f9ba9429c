"""A fresh interpreter's first meangap operation, between two calibration runs.

    python3 bench/setup_probe.py constants --n 4 --alpha 2

Runs the ``startup`` calibration kernel, imports ``meangap.cli`` and runs
the operation as ``python3 -m meangap.cli`` would, then runs the kernel
again.  The last line of stderr is the two kernel times in seconds, as a
JSON list; the exit code is the operation's.  The caller times the whole
process and takes the kernels' time out of it, so what it scales is the
set-up every shell invocation pays: starting Python, importing numpy,
click and meangap, and a first operation.
"""

import json
import sys

import calibration

before = calibration.timed("startup")[0]
from meangap.cli import main  # noqa: E402  (the import is what is timed)

try:
    main(sys.argv[1:], prog_name="meangap")
    code = 0
except SystemExit as exc:
    code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
after = calibration.timed("startup")[0]
sys.stderr.write("\n" + json.dumps([before, after]) + "\n")
sys.exit(code)
