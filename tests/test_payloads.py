"""The benchmark's operations print frozen bytes.

FROZEN holds the sha256 of the stdout of every `tabulate` and `sweep`
operation at the benchmark's seeds 1 and 2 (`bench/workloads.py`), in
JSON and in CSV, and of every `verify` operation at seed 1, also in both
formats, with the envelope's `elapsed_s` masked.  They were taken from the output
before the envelope got its own JSON writer (the CSV of `reduce3` before
its curve was evaluated as columns, that of `sweep` before tables were
written as columns, the `verify` JSON before the grid ran in place), so
a change to the writer, the row layout, a profile kernel, the curve or
the grid scan that moves any byte shows here.

FAILING holds the bytes of a `verify` that fails: the real certificate of
(5, 2) with its upper bound moved inside the range of the ratio, so that
samples and the grid violate it.  Its exit code is 1, and it is the one
frozen check of the failure text and of the CSV cell that holds
`violation_examples` as JSON.  The `verify` CSV and FAILING hashes were
taken before the payload builders handed the writers floats.

CERTIFY_PASSES holds one sha256 per seed and format over a whole pass
of the `certify` workload: each `constants` operation's masked stdout
and exit code, in pass order.

The `reduce3`, `sweep` and `verify` hashes and both certify passes were
taken again when the 1-d searches moved from Illinois false position to
Brent-Dekker narrowing, which moves the last digits of every searched
value, and the curve's ends were made to merge their two coordinates.
"""

import dataclasses
import hashlib
import importlib.util
import re
from pathlib import Path

import pytest

from meangap import cli
from meangap.cli import main

ROOT = Path(__file__).resolve().parents[1]
WHICH = "--which g,p,f,U,V,W,fprime"

FROZEN = {
    f"profile --n 3 --alpha -1 {WHICH} --format json":
        "c28fa935af415be26bd7a6ccfd4bb6d9f7cbb022a4cb4d1d23b5cf6ae8bdb239",
    f"profile --n 3 --alpha -1 {WHICH} --format csv":
        "5caa2bbe885df87e2797ba6fcf95f2139953d104d3812f8b17c4d07dbaacf8bb",
    f"profile --n 300 --alpha -1/2 {WHICH} --format json":
        "ca07850ad26d3d6cdd354cefd9f28147ef6ba23f4e19a887520938e3c674a50a",
    f"profile --n 300 --alpha -1/2 {WHICH} --format csv":
        "1ae0b4d068a30b6e4c478ec4cf02598b5b3dafef50e63233414e85275d452e05",
    f"profile --n 12 --alpha 2 {WHICH} --format json":
        "560f75b51a12089cd77e7d123b070880d0dc72b527aed5c538ba6e14be105357",
    f"profile --n 12 --alpha 2 {WHICH} --format csv":
        "4f5882ec47f3c4219f421f45a08033730ed5fd328c346f2c671c52ef3af31592",
    f"profile --n 4 --alpha 9/10 {WHICH} --format json":
        "a8271216f4c322cbbe8f21b4bc25ff1cfa632fe24fa3a3c37bef3c1a2a84afa0",
    f"profile --n 4 --alpha 9/10 {WHICH} --format csv":
        "9c660ddc91a4cb89b11d6eed84de8ab459358ece28516d9d5786b4655c9f3c36",
    f"profile --n 5 --alpha 1/20 {WHICH} --format json":
        "9b33765fe0483672a6b95c18cac85dd34f6349ced52b85a8b9578f075691f05b",
    f"profile --n 5 --alpha 1/20 {WHICH} --format csv":
        "0f8d5d0f7763fa09d30eb35d35d3e2ec3da622caa7bedbae62197725a7f67633",
    f"profile --n 3000 --alpha 3/4 {WHICH} --format json":
        "a2a9f7542d68a017f829fcede1b792b5b4cafe45d847acd3f0c25649216843f8",
    f"profile --n 3000 --alpha 3/4 {WHICH} --format csv":
        "22ca9540d90e841597818c8e9e4be8ca813b73e84c5ce546e8f50a928321b573",
    # seed 1
    "reduce3 --sum 83.2966 --prod 1112.99 --r 2 --format json":
        "dec0ddb1431da7b4eef52288d3257aec2b2105708d9b3116ceef2bd0cf0cac04",
    "reduce3 --sum 32.5259 --prod 473.643 --r 0.5 --format json":
        "548d02127017a5a8a6905214f5233a617b21c9f2b55cb70f1b85a229375a6e4e",
    "reduce3 --sum 1.0385 --prod 0.0258408 --r -1 --format json":
        "3d26f04269a5266d300897adcf7c1e09710eb6ff4c247383da6fd450a862305e",
    "reduce3 --sum 83.2966 --prod 1112.99 --r 2 --format csv":
        "b7f4643c5ba4ac61b27cbd5efd5bd3a6bd8719dc0d3e6be8ac49ee65fc009ba0",
    "reduce3 --sum 32.5259 --prod 473.643 --r 0.5 --format csv":
        "58a79815a7e942b6aea22293051754d10c8df900bcc43332f976cc50b9abc8a2",
    "reduce3 --sum 1.0385 --prod 0.0258408 --r -1 --format csv":
        "10bb6fe02dd951050839f65cf1b22a313da203b292704eb7bc98832ca720c48d",
    "sweep --n-max 40 --alpha 2 --format json":
        "ed1b7642e110502b17439dbe60d43554ad778f7f57bff4305b6bf5a515d62c8d",
    "sweep --n-max 40 --alpha -1 --format json":
        "0e8abd1071d95c3596bd3b2bda70322310b2e8c954ae147befa90afe2e648305",
    "sweep --n-max 40 --alpha 2.88201 --format json":
        "b467de9ff6ed0720713fbe2df6a66b1c5ce56111fe7a70707bf326e4cb4991c1",
    "sweep --n-max 40 --alpha -2.20435 --format json":
        "5f57fb37961a3e92ec5ec745c6762abbfe0845c0443e4d9f09e58b76b1682a2b",
    "sweep --n-max 40 --alpha 2 --format csv":
        "6bbe6524a19b2223b5fed0b87311eda031d01c2daaaf548fb3773fdd9f299179",
    "sweep --n-max 40 --alpha -1 --format csv":
        "1abc5980adbe9f59f278b8bf8e3b054e84e3052df20aaff560e3ee76889c6fcf",
    "sweep --n-max 40 --alpha 2.88201 --format csv":
        "6d6adf318da9e8ec443d230ab48f841488cb801567aa1f0201c40a9de94b1349",
    "sweep --n-max 40 --alpha -2.20435 --format csv":
        "8852327eecbebcb8e08e2468d6efe6ecbeeee21818253d64a03916b29f9d281b",
    # seed 2
    "reduce3 --sum 73.364 --prod 1195.85 --r 2 --format json":
        "c6785476a93a33a3493644cf951a5df27dcced119c53ac392be95ba40d7010f4",
    "reduce3 --sum 9.13646 --prod 2.70958 --r 0.5 --format json":
        "8ea0637eda0ea6025983b81063d2d778424740fca05d33a4590a5be59dc5309a",
    "reduce3 --sum 82.0926 --prod 15368.8 --r -1 --format json":
        "49be3470b16d8bb9552a9d730868e3780204d5050fbbaef69987cb0afcb60d2e",
    "reduce3 --sum 73.364 --prod 1195.85 --r 2 --format csv":
        "440f0bfc6d69383db45096d2954e0de43b519442e668ee4311bd78e798c7bdb0",
    "reduce3 --sum 9.13646 --prod 2.70958 --r 0.5 --format csv":
        "13fb89a8ffa37ff1cb692ef1afa752b3df8ba5dd4f764239189f1cdf184534b0",
    "reduce3 --sum 82.0926 --prod 15368.8 --r -1 --format csv":
        "e3345981475de276585cef2bfcb819957e789f199397b91b498bf610b2d7dd0f",
    "sweep --n-max 40 --alpha 3.42431 --format json":
        "41527db92e470d0bff932664e7c6f5b11ea76917a03a02e2e9cd4bebf04ecb5c",
    "sweep --n-max 40 --alpha -2.64118 --format json":
        "d57b46f941c179106c61d8c85ae6b83f7cdde71de76364ce5d73e64b5c7a5e43",
    "sweep --n-max 40 --alpha 3.42431 --format csv":
        "8394c8d8bb8b7f40834271a4baa28398b27d9795b3fca06d5842377220187fb4",
    "sweep --n-max 40 --alpha -2.64118 --format csv":
        "e60aaf96f304175013e9c56174003c72f7375e6dd81937c4419bb0c5737f295c",
    # verify, seed 1
    "verify --n 5 --alpha -1.84313 --workers 1 --format json":
        "11d2754a26970f13662f6859e47347b5231851d094ec0e44947d423a4c9f4b88",
    "verify --n 10 --alpha 32/5 --workers 1 --format json":
        "a02269701d43c73bd9b7d91a8697cfdd1fac77f5567c4edcc63fa0dc04ad297d",
    "verify --n 3 --alpha 0.890063 --workers 1 --format json":
        "dc41407b6ab7d19fd8df4a42aa7826d25bfef9c16da2ea44589c44ce9b7eeb6a",
    "verify --n 4 --alpha 1/10 --workers 1 --format json":
        "915a44ac37ddbf63dfabe27985479910ce8710509882e02d0cb69db705eedccc",
    "verify --n 20 --alpha 4/5 --workers 1 --format json":
        "22b7668b165564712e242b6fdc8e8a1c179c056d7235591bf0956509136688d8",
    "verify --n 25 --alpha 0.24436 --workers 1 --format json":
        "e0583ae3c17b61318628d05337d5bab78274fcbcebeafb224aaf69f94a916909",
    "verify --n 100 --alpha 1/4 --workers 1 --format json":
        "4165e0716181ec0de97df4f0f046217631f092582009f2fb0c4fefa262091224",
    "verify --n 100 --alpha 2/3 --workers 1 --format json":
        "57689d0eda35fdfb2d7292693b2a013ebd83a1d0584a6c4a5aee961af1c60a1c",
    "verify --n 5 --alpha -1.84313 --workers 1 --format csv":
        "3a04e81941c11224161416b6b74a9ea959cf52de16db3a84e6b080be61b0c913",
    "verify --n 10 --alpha 32/5 --workers 1 --format csv":
        "2727803dbb9a9df93d0bd0cde679a7f6d88ebce955a46099595e33c591ade88e",
    "verify --n 3 --alpha 0.890063 --workers 1 --format csv":
        "1611055a39e50ae7258733a39f104160ebfc22747f32282dd8172b09af5e29df",
    "verify --n 4 --alpha 1/10 --workers 1 --format csv":
        "6b5c42b6fd2f31d272f8cb37f166514f6b291cfef8f5e5adc9fbfe6973d8fd0c",
    "verify --n 20 --alpha 4/5 --workers 1 --format csv":
        "f45ade622c02cbb085b93d644f853dcb3fdc1052922d551e7ff0afc740d33c4d",
    "verify --n 25 --alpha 0.24436 --workers 1 --format csv":
        "6dca05e22b0d7d808683237b3e158ebb257d41286ead850a95f3c1de82a31c22",
    "verify --n 100 --alpha 1/4 --workers 1 --format csv":
        "6f3d3f2e5292bd2b5d3f2158eb52cc0ae5db56953546a623576d56ddc91ac78f",
    "verify --n 100 --alpha 2/3 --workers 1 --format csv":
        "4b61a5cd8dd8774c1ae84b7dcc3b82c6826c0893ed2ec17f8d6bad2968626380",
}

FAILING_ARGS = "verify --n 5 --alpha 2 --samples 10000 --grid 300000"
FAILING = {
    "json": "818fb56005526e9613d13fe96ed79b032c25c2482e99b4457eb2847df983d1f5",
    "csv": "45b7b0569b0f2c9e3ddae82bdf5217df93b9720be29e1b83715a6fc9dcd613d0",
}

CERTIFY_PASSES = {
    (1, "json"): "5883cf4beb6874baccef6298a6228089aea84a091e4849b24e81dd4503cc4b53",
    (1, "csv"): "7aa50e1a1ed48179ede081c40b80517854ef5d28a528f76dc7477cda64b1816d",
    (2, "json"): "c58b786d54838c2a27f7b045ead865762ac27c95b2157c318d3ebc4acde74ef8",
    (2, "csv"): "4532c0bcd64b171aafb689e74e3122eada0f676ede444cdc85e184f3e01e2561",
}

_ELAPSED = re.compile(r'"elapsed_s": "[^"]*"')


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_frozen_operations_are_the_benchmarks():
    workloads = _workloads()
    ops = set()
    for seed in (1, 2):
        for args in workloads.tabulate(seed) + workloads.sweep(seed):
            for fmt in ("json", "csv"):
                ops.add(" ".join(args + ["--format", fmt]))
    for args in workloads.verify(1):
        for fmt in ("json", "csv"):
            ops.add(" ".join(args + ["--format", fmt]))
    assert ops == set(FROZEN)
    # the certify passes at the same seeds, in both formats
    assert set(CERTIFY_PASSES) == {(seed, fmt) for seed in (1, 2)
                                   for fmt in ("json", "csv")}


@pytest.mark.parametrize("op", sorted(FROZEN))
def test_operation_prints_frozen_bytes(runner, op):
    result = runner.invoke(main, op.split())
    assert result.exit_code == 0, result.output
    masked = _ELAPSED.sub('"elapsed_s": "X"', result.output)
    assert hashlib.sha256(masked.encode()).hexdigest() == FROZEN[op]


@pytest.mark.parametrize("fmt", sorted(FAILING))
def test_failing_verify_prints_frozen_bytes(runner, monkeypatch, fmt):
    real = cli.best_constants

    def moved(n, e):
        cert = real(n, e)
        return dataclasses.replace(cert, upper_bound=cert.lower_bound + 1e-3)

    monkeypatch.setattr(cli, "best_constants", moved)
    result = runner.invoke(main, FAILING_ARGS.split() + ["--format", fmt])
    assert result.exit_code == 1, result.output
    assert result.stderr == ""
    masked = _ELAPSED.sub('"elapsed_s": "X"', result.stdout)
    assert hashlib.sha256(masked.encode()).hexdigest() == FAILING[fmt]


@pytest.mark.parametrize("seed,fmt", sorted(CERTIFY_PASSES))
def test_certify_pass_prints_frozen_bytes(runner, seed, fmt):
    digest = hashlib.sha256()
    for args in _workloads().certify(seed):
        result = runner.invoke(main, args + ["--format", fmt])
        digest.update(_ELAPSED.sub('"elapsed_s": "X"', result.stdout).encode())
        digest.update(f"exit {result.exit_code}\n".encode())
    assert digest.hexdigest() == CERTIFY_PASSES[seed, fmt]
