"""The heap regime ``import voxhunt`` sets, each case in a fresh interpreter."""

import os
import subprocess
import sys

import pytest

from .test_cli import _child_env


def on_glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, OSError, ValueError):
        return False


def run_child(code: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


# Builds and drops three 1280x128 float64 temporaries (1.3 MB each, the size
# of a scoring pass's layer outputs) per pass, and prints the minor page
# faults of ten passes after a warm-up. Huge pages are switched off for the
# process where the kernel allows it, so every fault is one 4 KiB page.
CHURN = """if True:
    import ctypes, resource
    try:
        ctypes.CDLL(None).prctl(41, 1, 0, 0, 0)  # PR_SET_THP_DISABLE
    except (AttributeError, OSError):
        pass
    import voxhunt
    import numpy as np

    def churn():
        a = np.ones((1280, 128))
        b = a * 2.0
        c = a + b
        return float(c[0, 0])

    for _ in range(5):
        churn()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        churn()
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not on_glibc(), reason="the heap regime is set on glibc only")
def test_freed_temporaries_stay_in_the_heap():
    # glibc's default would trim the heap top after each pass and fault the
    # same pages in again: about 900 faults per pass.
    assert int(run_child(CHURN)) == 0


# Imports voxhunt with os.confstr and ctypes.CDLL patched as argv[1] says,
# and prints the libc calls the import made.
PATCHED_IMPORT = """if True:
    import ctypes, json, os, sys

    calls = []

    class Libc:
        def __getattr__(self, name):
            return lambda *args: calls.append([name, *args])

    def fail(*args, **kwargs):
        raise OSError("patched to fail")

    if sys.argv[1] == "confstr fails":
        os.confstr = fail
    if sys.argv[1] == "CDLL fails":
        ctypes.CDLL = fail
    else:
        ctypes.CDLL = lambda *args, **kwargs: Libc()
    import voxhunt
    print(json.dumps(calls))
"""


@pytest.mark.parametrize("patch", ["confstr fails", "CDLL fails"])
def test_import_without_glibc_sets_nothing(patch):
    assert run_child(PATCHED_IMPORT, patch) == "[]"


@pytest.mark.skipif(not on_glibc(), reason="the heap regime is set on glibc only")
def test_import_on_glibc_sets_both_thresholds():
    calls = run_child(PATCHED_IMPORT, "none")
    assert calls == f"[[\"mallopt\", -3, {32 << 20}], [\"mallopt\", -1, {64 << 20}]]"
