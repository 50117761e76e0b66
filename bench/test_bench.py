"""Tests of the benchmark itself; run with `python -m pytest bench`.

They check that a seed fixes the inputs, that the metrics printed are the
ones BENCHMARK.json declares, that the yardstick scaling ignores a stray
sample, and that short runs of every workload pass their own checks.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import climix  # noqa: E402
import inprocess  # noqa: E402
import run  # noqa: E402
import yardstick  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def fingerprint(item) -> str:
    """Every generated input field, as text."""
    return repr(sorted((k, repr(v)) for k, v in vars(item).items() if k != "ref"))


def workload_factories():
    factories = {name: cls for name, cls in inprocess.WORKLOADS.items()}
    factories["cli-mix"] = lambda seed: climix.CliMix(seed, ROOT)
    return factories


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_gives_identical_inputs(name):
    make = workload_factories()[name]
    first, second, other = make(7), make(7), make(8)
    indices = (-3, -1, 0, 1, 2, 3, 16, 40)
    assert [fingerprint(first.make(i)) for i in indices] == \
        [fingerprint(second.make(i)) for i in indices]
    assert [fingerprint(first.make(i)) for i in indices] != \
        [fingerprint(other.make(i)) for i in indices]


def test_declared_metrics_match_the_runner():
    assert DECLARED["workloads"] and [w["name"] for w in DECLARED["workloads"]] == \
        list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == run.PER_LAYER
    assert DECLARED["command"] == ["python3", "bench/run.py"]


def test_yardstick_scaling_ignores_one_stray_sample():
    class Stick:
        nominal_s = 2.0
    ticks = [1.0] * 6 + [50.0] + [4.0] * 10
    # Operation 3 sits amid samples of 1.0, the stray 50.0 among them;
    # operation 14 sits amid samples of 4.0.
    assert yardstick.scale_each(Stick, ticks, [(0.5, 3), (0.5, 14)]) == [1.0, 0.25]


def test_planted_degeneracies_are_predicted():
    workload = inprocess.ExactPairing(3)
    planted = [workload.make(i) for i in range(inprocess.PLANT_AT, 200,
                                               inprocess.PLANT_PERIOD)]
    assert {item.expect[0] for item in planted} == {"DegenerateInterpolant", "NuVanishes"}


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", ("0", "1"))
def test_smoke_run_prints_every_declared_metric(name, trace):
    done = bench("--workload", name, "--seed", "5", "--seconds", "0.5", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = DECLARED["end_to_end" if trace == "0" else "per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], done.stderr


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "exact-pairing", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
