"""Every demo script runs to completion against src/ and prints exactly its
pinned output (the sha256 of its stdout bytes)."""

import hashlib
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
STDOUT_SHA256 = {
    "demo_congruence.py": "b7dcb1931113feb49725fb636f5ba380bfe9a813f796f2c6f0fb5bf9593ee78f",
    "demo_fig8.py": "fce58c31ccbab6bc0772bae711b5440ab5c9e640f155de1f0f39ace722eaf583",
    "demo_general.py": "3069805efaf4ac4b35330e5def2586c3e7c8c14bf9a615e6e1f81730c763e8d1",
}


@cache  # one run per demo serves both tests
def run_demo(demo):
    src = str(ROOT / "src")
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, str(demo)], capture_output=True,
                          env={**os.environ, "PYTHONPATH": pythonpath}, timeout=120)


def test_demos_present():
    assert DEMOS, "no demos found; the parametrized tests below would be empty"
    assert [demo.name for demo in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_stdout_is_pinned(demo):
    proc = run_demo(demo)
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name], proc.stdout.decode()
