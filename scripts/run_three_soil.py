#!/usr/bin/env python3
"""Run the three-soil case study end to end and print the metrics report.

Usage: python scripts/run_three_soil.py [OUT_DIR]
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Run from a plain checkout: the package lives in src/.
sys.path.insert(0, str(ROOT / "src"))

from tractionmap import cli  # noqa: E402


def main() -> int:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "out/three_soil"
    config = cli.RunConfig(
        scenario_path=str(ROOT / "scenarios" / "three_soil.yaml"),
        out_dir=out_dir)
    report = cli.run(config)
    print(cli.format_metrics(report), end="")
    print(f"outputs in {out_dir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
