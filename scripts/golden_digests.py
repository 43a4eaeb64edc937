#!/usr/bin/env python3
"""Record the golden output digests of the three-soil case study and of
the filter step.

Runs three commands in a temporary directory:

    tractionmap run scenarios/three_soil.yaml --out run
    tractionmap replay run/telemetry.csv --truth run/truth.csv --out replay_truth
    tractionmap replay run/telemetry.csv --resolution 0.25 --out replay_0.25

and writes the sha256 of every output (26 files) to
tests/golden/three_soil.json, together with the Python, numpy, C library,
OpenBLAS kernel and numpy ``power`` loop that made them (``versions``).  Each file is hashed
as ``scripts/cmp_outputs.py`` compares it, so the runtime lines of the
metrics files are left out.  It prints each digest that changed, appeared
or vanished against the file it replaces.  ``tests/test_golden.py`` re-runs the commands and names each
file whose digest moved.  Regenerate the file only in a change that moves
outputs on purpose.

It also writes tests/golden/step_digests.json: for each of the four
filter configurations (full, fuzzy off, adaptation off, both off) on a
30 s three-soil stream (seed 1) at 1x and 5x speed noise, the sha256 over
every ``TractionEstimator.step`` record (``repr`` of mu, rho_s, slip,
cov_diag and curve_scale) and the run's clamp count.  These cover the
ablations and the noisy stream, which the 26 outputs do not;
``tests/test_golden.py`` checks them too.

Usage: python scripts/golden_digests.py
"""

import ctypes
import hashlib
import json
import platform
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import replace
from io import StringIO
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "three_soil.json"
STEP_GOLDEN = ROOT / "tests" / "golden" / "step_digests.json"
# Run from a plain checkout: the package lives in src/.
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "scripts"))

from cmp_outputs import _comparable  # noqa: E402
from tractionmap import cli, sim  # noqa: E402
from tractionmap.estimator import EstimatorConfig  # noqa: E402

# The step digests' streams and filter configurations.
STEP_NOISE = {"nominal": 1.0, "noise5x": 5.0}
STEP_CONFIGS = {
    "full": EstimatorConfig(),
    "no_fuzzy": EstimatorConfig(fuzzy_enabled=False),
    "no_adapt": EstimatorConfig(adapt_enabled=False),
    "neither": EstimatorConfig(fuzzy_enabled=False, adapt_enabled=False),
}


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
    """The versions that decide the digests' bits: Python, numpy, the C
    library, the kernel that numpy's bundled OpenBLAS picked for this
    CPU (LAPACK's ``solve`` rounds differently under its SkylakeX and
    Haswell kernels) and the CPU target of numpy's float64 ``power`` loop
    (``ukf.adapt_q``'s ``**`` rounds differently under its AVX-512 loop,
    ``X86_V4``, and its baseline loop)."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "libc": " ".join(platform.libc_ver()).strip() or "unknown",
            "openblas_core": _openblas_core(),
            "power_dispatch": _power_dispatch()}


def _power_dispatch() -> str:
    """The target numpy dispatches its float64 ``power`` loop to on this
    CPU, as ``numpy.lib.introspect.opt_func_info`` reports it (``X86_V4``,
    ``baseline(X86_V2)``, ...), or ``unknown`` when numpy cannot say."""
    try:
        from numpy.lib.introspect import opt_func_info
        loops = opt_func_info(func_name="^power$", signature="float64")
        return next(iter(loops["power"].values()))["current"]
    except (ImportError, KeyError, StopIteration):
        return "unknown"


def _openblas_core() -> str:
    """``scipy_openblas_get_corename64_`` of the OpenBLAS in
    ``numpy.libs``, or ``unknown`` when there is none to ask."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return (corename() or b"unknown").decode()


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


def step_digests() -> dict[str, str]:
    """sha256 of the step records of each stream and configuration, keyed
    ``<noise>/<config>``.  Every float is hashed as ``repr(float(x))``, as
    the writers format it."""
    scenario = replace(sim.load_scenario(ROOT / "scenarios" / "three_soil.yaml"),
                       duration=30.0, seed=1)
    out = {}
    for label, mult in STEP_NOISE.items():
        noise = replace(scenario.noise,
                        sigma_omega=scenario.noise.sigma_omega * mult,
                        sigma_v=scenario.noise.sigma_v * mult)
        samples, _ = sim.simulate(replace(scenario, noise=noise))
        for name, config in STEP_CONFIGS.items():
            records, est = cli.run_estimation(samples, scenario.vehicle,
                                              sim.STUBBLE_FAMILY, config)
            digest = hashlib.sha256()
            for rec in records:
                values = (*rec.mu, rec.rho_s, *rec.slip, *rec.cov_diag)
                digest.update(repr(tuple(map(float, values))).encode())
                digest.update(repr(rec.curve_scale).encode())
            digest.update(repr(est.clamp_violations).encode())
            out[f"{label}/{name}"] = digest.hexdigest()
    return out


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


def _write(path: Path, sha: dict[str, str]) -> None:
    old = json.loads(path.read_text())["sha256"] if path.exists() else {}
    for line in moved(old, sha):
        print(line)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({**versions(), "sha256": sha}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(sha)} digests to {path.relative_to(ROOT)}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        _write(GOLDEN, digests(Path(tmp)))
    _write(STEP_GOLDEN, step_digests())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
