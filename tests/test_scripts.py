"""The scripts in `scripts/` run end to end at a tiny size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bqp
from bqp.exact import ENUMERATION_ROW_LIMIT

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_small_instance_study(tmp_path):
    proc = run_script("small_instance_study.py", "--size", "6x8", "--seeds", "1", "--iters", "5", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = [row.split()[:2] for row in proc.stdout.splitlines()[2:]]
    algs = ["G", "A(G)", "F(G)", "Vex1", "M(Vex1)"]
    assert rows == [[family, alg] for family in bqp.FAMILIES for alg in algs]


def test_small_instance_study_skips_empty_expressions(tmp_path):
    proc = run_script(
        "small_instance_study.py", "--size", "6x8", "--seeds", "1", "--algs", "G,,A", cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    rows = [row.split()[:2] for row in proc.stdout.splitlines()[2:]]
    assert rows == [[family, alg] for family in bqp.FAMILIES for alg in ("G", "A")]


def test_build_testbed_with_certificates(tmp_path):
    out = tmp_path / "testbed"
    proc = run_script(
        "build_testbed.py", "--out", str(out), "--sizes", "6x8,5x7", "--seeds", "2", "--certify",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"wrote {4 * len(bqp.FAMILIES)} instances" in proc.stdout
    for family in bqp.FAMILIES:
        for m, n in ((6, 8), (5, 7)):
            for seed in range(2):
                stem = f"{family}-{m}x{n}-s{seed}"
                text = (out / f"{stem}.bqp").read_text()
                assert text == bqp.write_instance(bqp.generate_instance(family, m, n, seed))
                inst = bqp.read_instance(text)
                _, _, sol = bqp.read_solution((out / f"{stem}.bqpsol").read_text(), inst)
                assert sol.objective == bqp.enumerate_exact(inst).objective


@pytest.mark.parametrize(
    "name, args",
    [
        ("small_instance_study.py", ["--size", "12"]),
        ("small_instance_study.py", ["--size", f"{ENUMERATION_ROW_LIMIT + 1}x4"]),
        ("small_instance_study.py", ["--size", "6x8", "--seeds", "0"]),
        ("build_testbed.py", ["--sizes", "4"]),
        ("build_testbed.py", ["--sizes", "6x8,0x3"]),
        ("small_instance_study.py", ["--size", "6x8", "--algs", "G,X"]),
        ("small_instance_study.py", ["--size", "6x8", "--algs", ","]),
        ("small_instance_study.py", ["--size", "4x5", "--seeds", "1", "--algs", "Rls1"]),
        ("small_instance_study.py", ["--size", "1x5", "--seeds", "1", "--algs", "P2"]),
        ("build_testbed.py", ["--seeds", "-2"]),
    ],
)
def test_bad_arguments_exit_with_a_usage_error(tmp_path, name, args):
    proc = run_script(name, *args, cwd=tmp_path)
    assert proc.returncode != 0
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []  # refused before anything is written
