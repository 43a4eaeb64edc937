"""Every output of the three-soil case study matches its golden digest.

``tests/golden/three_soil.json`` holds the sha256 of the 26 files that
``tractionmap run scenarios/three_soil.yaml``, ``replay --truth`` and
``replay --resolution 0.25`` write, runtime lines left out;
``tests/golden/step_digests.json`` the sha256 of the filter step's
records in four configurations on a 30 s three-soil stream at 1x and 5x
speed noise.  A change that moves outputs on purpose regenerates both
with ``python scripts/golden_digests.py`` and lists the moved files.
A failure names the moved digests and the Python, numpy, C library and
OpenBLAS kernel of the digests and of this run.

The step digests must also come out the same in child processes that
force OpenBLAS's Haswell kernel or switch off numpy's AVX-512 dispatch:
the filter's bits may not depend on either.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "golden_digests", ROOT / "scripts" / "golden_digests.py")
golden_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_digests)


# How ``versions`` keys read in a failure message.
LABELS = {"python": "Python", "numpy": "numpy", "libc": "libc",
          "openblas_core": "OpenBLAS core"}


def _made_and_now(golden: dict) -> str:
    """Where the digests were made and where this run is: a moved digest
    with the same Python and numpy points at the C library or at the
    OpenBLAS kernel this CPU selects.  A golden file that predates a key
    reads ``not recorded`` for it; a key it records that ``versions`` no
    longer has is left out."""
    now = golden_digests.versions()

    def line(where):
        return ", ".join(f"{LABELS[k]} {where.get(k, 'not recorded')}"
                         for k in now)
    return f"digests made with {line(golden)}; this run has {line(now)}"


def test_three_soil_outputs_match_golden_digests(tmp_path):
    golden = json.loads(golden_digests.GOLDEN.read_text())
    got = golden_digests.digests(tmp_path)
    assert len(golden["sha256"]) == 26
    moved = golden_digests.moved(golden["sha256"], got)
    assert not moved, (f"outputs moved: {', '.join(moved)}; "
                       f"{_made_and_now(golden)}")


def test_step_records_match_golden_digests():
    golden = json.loads(golden_digests.STEP_GOLDEN.read_text())
    assert len(golden["sha256"]) == 8
    moved = golden_digests.moved(golden["sha256"],
                                 golden_digests.step_digests())
    assert not moved, (f"step records moved: {', '.join(moved)}; "
                       f"{_made_and_now(golden)}")


def test_failure_message_names_libc_and_openblas_core():
    note = _made_and_now({"python": "3.11.7", "numpy": "2.4.6"})
    assert note.startswith("digests made with Python 3.11.7, numpy 2.4.6, "
                           "libc not recorded, OpenBLAS core not recorded; "
                           "this run has Python ")
    now = golden_digests.versions()
    assert note.endswith(f"libc {now['libc']}, "
                         f"OpenBLAS core {now['openblas_core']}")


# Settings a child process runs ``step_digests`` under, each against a
# child with neither variable set, and the CPU flags without which the
# setting cannot run or changes nothing.
PORTABILITY = {
    "haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, {"avx2", "fma"}),
    "no_avx512": ({"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
                  {"avx512f"}),
}
_CHILD = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
          "import golden_digests; print(json.dumps(golden_digests.step_digests()))")


def _cpu_flags() -> set[str]:
    """The flags of the first CPU in /proc/cpuinfo; empty where there is
    no such file."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


def _child_step_digests(env: dict[str, str]) -> dict[str, str]:
    """``step_digests()`` in a child process with ``env`` set on top of
    this process's environment without the two variables."""
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    out = subprocess.run([sys.executable, "-c", _CHILD, str(ROOT / "scripts")],
                         env={**base, **env}, capture_output=True, text=True,
                         check=True, timeout=300)
    return json.loads(out.stdout)


@pytest.fixture(scope="module")
def default_step_digests():
    return _child_step_digests({})


@pytest.mark.parametrize("setting", list(PORTABILITY))
def test_step_digests_hold_across_kernels_and_dispatch(setting,
                                                       default_step_digests):
    env, needs = PORTABILITY[setting]
    missing = needs - _cpu_flags()
    if missing:
        pytest.skip(f"{setting} needs CPU flags {sorted(missing)}, "
                    "which /proc/cpuinfo does not list")
    moved = golden_digests.moved(default_step_digests,
                                 _child_step_digests(env))
    assert not moved, f"step records moved under {env}: {', '.join(moved)}"
