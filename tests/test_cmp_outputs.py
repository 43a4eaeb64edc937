import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "cmp_outputs.py"
spec = importlib.util.spec_from_file_location("cmp_outputs", SCRIPT)
cmp_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cmp_outputs)

METRICS_JSON = '{\n "rho_s_error_pct": %s,\n "runtime_s": %s,\n "clamp_violations": 0\n}'
METRICS_TXT = "rho_s error: 1.50%%\nruntime: %s s\n"


def _write_run(path: Path, runtime: str, rho: str = "1.5") -> Path:
    path.mkdir()
    (path / "metrics.json").write_text(METRICS_JSON % (rho, runtime))
    (path / "metrics.txt").write_text(METRICS_TXT % runtime)
    (path / "map_a.csv").write_bytes(b"i,j,a\r\n0,0,0.7\r\n")
    return path


def test_runtime_lines_are_the_only_exception(tmp_path, capsys):
    old = _write_run(tmp_path / "old", "3.25")
    new = _write_run(tmp_path / "new", "1.5")
    assert cmp_outputs.main([str(old), str(new)]) == 0
    assert "3 identical, 0 differ" in capsys.readouterr().out


@pytest.mark.parametrize("change", ["metric", "csv_bytes", "missing_file",
                                    "extra_file"])
def test_any_other_difference_fails(change, tmp_path, capsys):
    old = _write_run(tmp_path / "old", "3.25")
    new = _write_run(tmp_path / "new", "3.25",
                     rho="1.6" if change == "metric" else "1.5")
    if change == "csv_bytes":
        (new / "map_a.csv").write_bytes(b"i,j,a\n0,0,0.7\n")
    elif change == "missing_file":
        (new / "map_a.csv").unlink()
    elif change == "extra_file":
        (new / "map_p.csv").write_bytes(b"i,j,p\r\n")
    assert cmp_outputs.main([str(old), str(new)]) == 1
    assert "1 differ" in capsys.readouterr().out
