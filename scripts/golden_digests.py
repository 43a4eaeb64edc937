#!/usr/bin/env python3
"""Record the golden output digests of the three-soil case study.

Runs three commands in a temporary directory:

    tractionmap run scenarios/three_soil.yaml --out run
    tractionmap replay run/telemetry.csv --truth run/truth.csv --out replay_truth
    tractionmap replay run/telemetry.csv --resolution 0.25 --out replay_0.25

and writes the sha256 of every output (26 files) to
tests/golden/three_soil.json, together with the Python and numpy versions
that made them.  Each file is hashed as ``scripts/cmp_outputs.py``
compares it, so the runtime lines of the metrics files are left out.  It
prints each digest that changed, appeared or vanished against the file it
replaces.  ``tests/test_golden.py`` re-runs the commands and names each
file whose digest moved.  Regenerate the file only in a change that moves
outputs on purpose.

Usage: python scripts/golden_digests.py
"""

import hashlib
import json
import platform
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "three_soil.json"
# Run from a plain checkout: the package lives in src/.
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "scripts"))

from cmp_outputs import _comparable  # noqa: E402
from tractionmap import cli  # noqa: E402


def commands(work: Path) -> dict[str, list[str]]:
    """Output directory under ``work`` -> ``tractionmap`` arguments before
    ``--out``; the replays read the run's logs."""
    logs = work / "run"
    return {
        "run": ["run", str(ROOT / "scenarios" / "three_soil.yaml")],
        "replay_truth": ["replay", str(logs / "telemetry.csv"),
                         "--truth", str(logs / "truth.csv")],
        "replay_0.25": ["replay", str(logs / "telemetry.csv"),
                        "--resolution", "0.25"],
    }


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def digests(work: Path) -> dict[str, str]:
    """Run ``commands(work)``; sha256 of each output, keyed
    ``<command>/<file>``."""
    work = Path(work)
    for name, argv in commands(work).items():
        with redirect_stdout(StringIO()):
            code = cli.main(argv + ["--out", str(work / name)])
        if code != 0:
            raise RuntimeError(f"tractionmap {' '.join(argv)} exited {code}")
    return {f"{name}/{path.name}":
            hashlib.sha256(_comparable(path)).hexdigest()
            for name in commands(work)
            for path in sorted((work / name).iterdir())}


def moved(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """``changed``, ``appeared`` or ``vanished``, then the name, for each
    output whose digest differs from ``old`` to ``new``, by name."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        if name not in old:
            lines.append(f"appeared {name}")
        elif name not in new:
            lines.append(f"vanished {name}")
        elif old[name] != new[name]:
            lines.append(f"changed {name}")
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        sha = digests(Path(tmp))
    old = json.loads(GOLDEN.read_text())["sha256"] if GOLDEN.exists() else {}
    for line in moved(old, sha):
        print(line)
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump({**versions(), "sha256": sha}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(sha)} digests to {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
