"""Every output of the three-soil case study matches its golden digest.

``tests/golden/three_soil.json`` holds the sha256 of the 26 files that
``tractionmap run scenarios/three_soil.yaml``, ``replay --truth`` and
``replay --resolution 0.25`` write, runtime lines left out;
``tests/golden/step_digests.json`` the sha256 of the filter step's
records in four configurations on a 30 s three-soil stream at 1x and 5x
speed noise.  A change that moves outputs on purpose regenerates both
with ``python scripts/golden_digests.py`` and lists the moved files.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "golden_digests", ROOT / "scripts" / "golden_digests.py")
golden_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_digests)


def test_three_soil_outputs_match_golden_digests(tmp_path):
    golden = json.loads(golden_digests.GOLDEN.read_text())
    got = golden_digests.digests(tmp_path)
    assert len(golden["sha256"]) == 26
    moved = golden_digests.moved(golden["sha256"], got)
    made = f"Python {golden['python']}, numpy {golden['numpy']}"
    now = golden_digests.versions()
    assert not moved, (
        f"outputs moved: {', '.join(moved)}; digests made with {made}, "
        f"this run has Python {now['python']}, numpy {now['numpy']}")


def test_step_records_match_golden_digests():
    golden = json.loads(golden_digests.STEP_GOLDEN.read_text())
    assert len(golden["sha256"]) == 8
    moved = golden_digests.moved(golden["sha256"],
                                 golden_digests.step_digests())
    assert not moved, f"step records moved: {', '.join(moved)}"
