"""Every output of the three-soil case study matches its golden digest.

``tests/golden/three_soil.json`` holds the sha256 of the 26 files that
``tractionmap run scenarios/three_soil.yaml``, ``replay --truth`` and
``replay --resolution 0.25`` write, runtime lines left out;
``tests/golden/step_digests.json`` the sha256 of the filter step's
records in four configurations on a 30 s three-soil stream at 1x and 5x
speed noise.  A change that moves outputs on purpose regenerates both
with ``python scripts/golden_digests.py`` and lists the moved files.
A failure names the moved digests and the Python, numpy, C library,
OpenBLAS kernel and numpy ``power`` dispatch of the digests and of this
run.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "golden_digests", ROOT / "scripts" / "golden_digests.py")
golden_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_digests)


# How ``versions`` keys read in a failure message.
LABELS = {"python": "Python", "numpy": "numpy", "libc": "libc",
          "openblas_core": "OpenBLAS core",
          "power_dispatch": "numpy power dispatch"}


def _made_and_now(golden: dict) -> str:
    """Where the digests were made and where this run is: a moved digest
    with the same Python and numpy points at the C library, at the
    OpenBLAS kernel this CPU selects or at the target numpy dispatches
    its float64 ``power`` loop to.  A golden file that predates a key
    reads ``not recorded`` for it."""
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
                           "libc not recorded, OpenBLAS core not recorded, "
                           "numpy power dispatch not recorded; "
                           "this run has Python ")
    now = golden_digests.versions()
    assert note.endswith(f"libc {now['libc']}, "
                         f"OpenBLAS core {now['openblas_core']}, "
                         f"numpy power dispatch {now['power_dispatch']}")
