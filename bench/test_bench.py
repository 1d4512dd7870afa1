"""Tests of the benchmark itself, at smoke sizes (seconds, not minutes).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_result_schema(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, out.stderr
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    if trace:
        assert (ROOT / "bench" / ".work" / f"spans-{workload}-seed3.json").is_file()
        assert result["metrics"]["trace_coverage_frac"]["value"] > 0.9
        if workload == run.SCAN:  # counted by wrapping Window.residuals
            assert 0 < result["metrics"]["projection.accept_ratio"]["value"] < 1


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_checks_count_every_mismatch():
    pins = {"files": {"a.qtile": run.sha256(b"a"), "b.svg": run.sha256(b"b")},
            "counts": {"triangles.count": 340, "grouping.kinds": {"ThinRhomb": 60}}}
    checks = run.Checks()
    run.check_outputs(checks, pins, {"a.qtile": b"a", "b.svg": b"B"},
                      {"triangles.count": 340, "grouping.kinds": {"ThinRhomb": 61}})
    assert checks.attempted == 4
    assert len(checks.failures) == 2
    checks = run.Checks()
    run.check_outputs(checks, pins, {"c.csv": b"c"}, {})
    assert len(checks.failures) == 3  # an unpinned file and two missing counts


def test_scan_path_samples_criterion_11_path():
    import numpy as np

    ff = run.load_program()
    z10 = ff.projection.symmetric_gamma()
    z5 = (0.0, 0.0, z10[2] + 0.12)
    generic = (0.021, 0.034, z10[2] + 0.19)
    path = [tuple(np.array(z10) + (np.array(z5) - np.array(z10)) * k / 24)
            for k in range(25)]
    path += [tuple(np.array(z5) + (np.array(generic) - np.array(z5)) * k / 24)
             for k in range(1, 26)]
    assert run.criterion_11_path(ff.projection, 0) == path
    assert run.criterion_11_path(ff.projection, 8) == path
    assert run.criterion_11_path(ff.projection, 5)[:25] == path[:25]
    assert run.criterion_11_path(ff.projection, 5)[25:] != path[25:]
    sampled = run.scan_path(ff.projection, 0, smoke=False)
    assert sampled == path[::4] and len(sampled) == 13
    assert np.allclose([sampled[0], sampled[6], sampled[12]], [z10, z5, generic])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    out = bench("--workload", "scan-c11", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
