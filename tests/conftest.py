import io
import os
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Optional
from unittest.mock import patch

import hypothesis
import pytest

# numerical searches inside properties can be slow on CI boxes; examples
# stay deterministic so the deadline adds noise, not safety
hypothesis.settings.register_profile(
    "meangap",
    deadline=None,
    max_examples=60,
    derandomize=True,
)
hypothesis.settings.load_profile("meangap")


@dataclass(frozen=True)
class Result:
    """One in-process call of the CLI: its exit code and what it printed."""

    exit_code: int
    stdout: str
    stderr: str
    exception: Optional[SystemExit]  # the exit, when its code is not 0

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


class Runner:
    @staticmethod
    def invoke(main, args, env=None) -> Result:
        """Call main(args) with stdout and stderr captured and, during the
        call, `env` set in the environment."""
        out, err = io.StringIO(), io.StringIO()
        code, exception = 0, None
        # patch.dict restores the whole environment on exit, which costs
        # more than a certificate: it is entered only with an env to set
        environ = patch.dict(os.environ, env) if env else nullcontext()
        with environ, redirect_stdout(out), redirect_stderr(err):
            try:
                main(args)
            except SystemExit as exc:
                code = exc.code or 0
                exception = exc if code else None
        return Result(code, out.getvalue(), err.getvalue(), exception)


@pytest.fixture()
def runner():
    return Runner()


@pytest.fixture()
def objective_probes(monkeypatch):
    """(n, name, v) of every probe of a `Side.objective` made while the
    test runs, in order: the W - 1 and f' probes of the certificate
    searches."""
    from meangap.profile import Side

    probes = []
    objective = Side.objective

    def counted(self, name):
        fn = objective(self, name)
        n = self.params.n

        def probe(v):
            probes.append((n, name, v))
            return fn(v)

        return probe

    monkeypatch.setattr(Side, "objective", counted)
    return probes
