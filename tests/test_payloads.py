"""The benchmark's operations print frozen bytes.

FROZEN holds the sha256 of the stdout of every `tabulate` and `sweep`
operation at the benchmark's seeds 1 and 2 (`bench/workloads.py`), in
JSON and in CSV, and of every `verify` operation at seed 1 in JSON, with
the envelope's `elapsed_s` masked.  They were taken from the output
before the envelope got its own JSON writer (the CSV of `reduce3` before
its curve was evaluated as columns, that of `sweep` before tables were
written as columns, the `verify` JSON before the grid ran in place), so
a change to the writer, the row layout, a profile kernel, the curve or
the grid scan that moves any byte shows here.

CERTIFY_PASSES holds one sha256 per seed and format over a whole pass
of the `certify` workload: each `constants` operation's masked stdout
and exit code, in pass order.  They were taken while the extremum
search width was still a `--tol` option, at its default.
"""

import hashlib
import importlib.util
import re
from pathlib import Path

import pytest

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
        "dccc3d98b7e19fe5914bcab8f15dc990646cb0862be0241c1d1147e1261fa264",
    "reduce3 --sum 32.5259 --prod 473.643 --r 0.5 --format json":
        "b398e6337ee84f3b1750938af64f74581c4a83437baa2d53edda4bdf2831445c",
    "reduce3 --sum 1.0385 --prod 0.0258408 --r -1 --format json":
        "d07566ef0234780e376a8026af78356cfe98397feb1b2f7e4d9b822ad16369ed",
    "reduce3 --sum 83.2966 --prod 1112.99 --r 2 --format csv":
        "48aea52d20596c07d2062570caeee82bac7f7d52ff8399d689c0ddc39cb98c38",
    "reduce3 --sum 32.5259 --prod 473.643 --r 0.5 --format csv":
        "2814ceec0a0b7047f47943bd76d935352cb28e8d06ca610e7d6711603cf2a398",
    "reduce3 --sum 1.0385 --prod 0.0258408 --r -1 --format csv":
        "7a5e9f653ad6c7cfbd2c385500cb35ddc4a7be4c5fae47d55120423375c68978",
    "sweep --n-max 40 --alpha 2 --format json":
        "aad853b6c7561b7ff9ac8976684513ed62d0d403f0cebb22e44265b1de296f6c",
    "sweep --n-max 40 --alpha -1 --format json":
        "d4cc771a616b05a0fe517170a6130e8e4b5037ce1c1bbda90877702459f96385",
    "sweep --n-max 40 --alpha 2.88201 --format json":
        "abcfcb00def83a618142880d915ff236c5e92160379fd80252d63581122198c7",
    "sweep --n-max 40 --alpha -2.20435 --format json":
        "c301921675e7b48f4027b22ef774da08683ff86e96ffcae67421b3527be5bd17",
    "sweep --n-max 40 --alpha 2 --format csv":
        "c6691b57f97ce947afab63cd5af55cd2b91ecc8a389d8d7e14ee58d63dc2cb4d",
    "sweep --n-max 40 --alpha -1 --format csv":
        "7849ace33ee0ef881a3bde191a3f08022e7de162308f21c49358cc4e581e666c",
    "sweep --n-max 40 --alpha 2.88201 --format csv":
        "a652f59846387a3e59090ee9c820f10a57ab594180116caa8f0d6f31e3cf82b7",
    "sweep --n-max 40 --alpha -2.20435 --format csv":
        "1dbc1ed4180e6db9d0274a69d6085505e1c63d08ca1df4d568e348f2a699b963",
    # seed 2
    "reduce3 --sum 73.364 --prod 1195.85 --r 2 --format json":
        "b97cb798daed0c77a3f1618b16f9a44c2a71b9f172c221a6a4df6411034e48ba",
    "reduce3 --sum 9.13646 --prod 2.70958 --r 0.5 --format json":
        "68b3d84cce830eb83a6ad9abac66ff18b361ce00afa56505058a2c7eee501617",
    "reduce3 --sum 82.0926 --prod 15368.8 --r -1 --format json":
        "697932f2a5b78f787f80b950b9e09fb4d99f246b6054634854fd331d7dc10517",
    "reduce3 --sum 73.364 --prod 1195.85 --r 2 --format csv":
        "9c9e26838c1c596e10807e9c66c833e6a1795e3fba0d2d65f0f84aada15a1658",
    "reduce3 --sum 9.13646 --prod 2.70958 --r 0.5 --format csv":
        "9c62872cc177c7df032e16c27c53d9582125078ebf9f6260f1c3858e1dcb594b",
    "reduce3 --sum 82.0926 --prod 15368.8 --r -1 --format csv":
        "ead8874222ff0bd92d6b762e300b8abc1cafd698efaafe6820e68dcd8a7a3e0f",
    "sweep --n-max 40 --alpha 3.42431 --format json":
        "4145aa0ab0b4ee71464359174b1bbbdccfef7d1ee19e623f2d27afd24e5d4fd6",
    "sweep --n-max 40 --alpha -2.64118 --format json":
        "75073388e55bd59dbf43291572c7936b4e04b47b6c2daa0a59b477f3b2c0b0f8",
    "sweep --n-max 40 --alpha 3.42431 --format csv":
        "70394dfafa6984199c076158f962a7e7e5d0ba3db64948cb183f485889733cf1",
    "sweep --n-max 40 --alpha -2.64118 --format csv":
        "f165b0a62c658e2994cce839635e43d452401b80599bbd0a24cd97dda5aa0f2d",
    # verify, seed 1
    "verify --n 5 --alpha -1.84313 --workers 1 --format json":
        "964c775ab039fd6f755454e2b362b9abeb0bced3e646225ee823124ba03e63df",
    "verify --n 10 --alpha 32/5 --workers 1 --format json":
        "a995fea44bd5c4ef7b5d036e841f5bcd7d5b90f48172a449f63c6c440dd97c40",
    "verify --n 3 --alpha 0.890063 --workers 1 --format json":
        "da5c192a028d0ba7ac58b768fa48d2760b5e25ce7ad5f20f5dfef4c6a4bb2011",
    "verify --n 4 --alpha 1/10 --workers 1 --format json":
        "8aa7bbc32b15f8720a6de9599ccfac3017028d2a89faa9d16883ec9dab8e5baa",
    "verify --n 20 --alpha 4/5 --workers 1 --format json":
        "22b7668b165564712e242b6fdc8e8a1c179c056d7235591bf0956509136688d8",
    "verify --n 25 --alpha 0.24436 --workers 1 --format json":
        "e0583ae3c17b61318628d05337d5bab78274fcbcebeafb224aaf69f94a916909",
    "verify --n 100 --alpha 1/4 --workers 1 --format json":
        "4165e0716181ec0de97df4f0f046217631f092582009f2fb0c4fefa262091224",
    "verify --n 100 --alpha 2/3 --workers 1 --format json":
        "57689d0eda35fdfb2d7292693b2a013ebd83a1d0584a6c4a5aee961af1c60a1c",
}

CERTIFY_PASSES = {
    (1, "json"): "6f4aa5c430c13be4af126022f77815a97ee9ae2b74a4d2607f32ab5155d9d11d",
    (1, "csv"): "c4f9c3150ca2d61d6f91a8b78fef35bb3c67d7e6f8777d1d18218dcc1dd0b3be",
    (2, "json"): "9bf68e48bb80d6e32c1b496395378be9f19f51be5d0c044eadca9319a0dad8da",
    (2, "csv"): "b74f4704b614bc17a3e6002a7c7f337d49178a8f4323dff4d5e27b88375cd842",
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
        ops.add(" ".join(args + ["--format", "json"]))
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


@pytest.mark.parametrize("seed,fmt", sorted(CERTIFY_PASSES))
def test_certify_pass_prints_frozen_bytes(runner, seed, fmt):
    digest = hashlib.sha256()
    for args in _workloads().certify(seed):
        result = runner.invoke(main, args + ["--format", fmt])
        digest.update(_ELAPSED.sub('"elapsed_s": "X"', result.stdout).encode())
        digest.update(f"exit {result.exit_code}\n".encode())
    assert digest.hexdigest() == CERTIFY_PASSES[seed, fmt]
