#!/usr/bin/env python3
"""Compare two `tractionmap run`/`replay` output directories byte for byte.

Every file must exist on both sides with the same bytes.  The only lines
left out of the comparison are the run's own wall time: the ``runtime_s``
field of ``metrics.json`` and the ``runtime:`` line of ``metrics.txt``.
Prints one line per file and exits 1 on any difference.

Usage: python scripts/cmp_outputs.py OLD_DIR NEW_DIR
"""

import re
import sys
from pathlib import Path

# file name -> pattern of the lines that hold the run's wall time
RUNTIME_LINES = {
    "metrics.json": re.compile(rb'^\s*"runtime_s": '),
    "metrics.txt": re.compile(rb"^runtime: "),
}


def _comparable(path: Path) -> bytes:
    data = path.read_bytes()
    pattern = RUNTIME_LINES.get(path.name)
    if pattern is None:
        return data
    return b"".join(line for line in data.splitlines(keepends=True)
                    if not pattern.match(line))


def compare(old: Path, new: Path) -> list[str]:
    """One report line per file; differing files start with ``DIFFER``."""
    names = sorted({p.relative_to(old) for p in old.rglob("*") if p.is_file()}
                   | {p.relative_to(new) for p in new.rglob("*") if p.is_file()})
    lines = []
    for name in names:
        a, b = old / name, new / name
        if not a.is_file() or not b.is_file():
            missing = old if not a.is_file() else new
            lines.append(f"DIFFER    {name} (missing in {missing})")
        elif _comparable(a) != _comparable(b):
            lines.append(f"DIFFER    {name}")
        else:
            lines.append(f"identical {name}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    old, new = Path(args[0]), Path(args[1])
    for d in (old, new):
        if not d.is_dir():
            print(f"not a directory: {d}", file=sys.stderr)
            return 2
    lines = compare(old, new)
    print("\n".join(lines))
    differ = sum(line.startswith("DIFFER") for line in lines)
    print(f"{len(lines) - differ} identical, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
