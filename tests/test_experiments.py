"""The experiment scripts run and write the report they document."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_scaling_writes_one_row_per_family_and_size(tmp_path):
    out = tmp_path / "scaling.json"
    proc = subprocess.run([sys.executable, str(ROOT / "experiments" / "scaling.py"), "--seed", "3",
                           "--sizes", "4", "9", "--repeats", "1", "--out", str(out)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["seed"] == 3 and report["repeats"] == 1
    rows = report["rows"]
    assert [(r["family"], r["n"]) for r in rows] == [
        ("rosenbrock", 4), ("rosenbrock", 9), ("trid", 4), ("trid", 9)]
    for r in rows:
        assert r["lines"] > r["n"]
        assert r["compile_s"] > 0 and r["analyze_s"] > 0
        assert 0 < r["kept_bytes"] <= r["peak_bytes"]
        original, improved = r["methods"]["original"], r["methods"]["improved"]
        assert improved["op_count"] < original["op_count"]
        assert set(r["methods"]) == {"original", "improved", "interval_hessian"}
        assert all(m["wall_s"] > 0 and m["compiled_s"] > 0 for m in r["methods"].values())
        assert set(r["passes"]) == {"_values", "_lam_original", "_lam_improved", "_hessian"}
        assert all(p["generate_s"] > 0 and p["peak_bytes"] > 0 for p in r["passes"].values())
        # the sparsity-aware bounds lie inside the original ones
        assert original["eigen"][0] <= improved["eigen"][0] <= improved["eigen"][1]
        assert improved["eigen"][1] <= original["eigen"][1]
    # the same seed draws the same boxes
    again = subprocess.run([sys.executable, str(ROOT / "experiments" / "scaling.py"), "--seed", "3",
                            "--sizes", "4", "9", "--repeats", "1", "--out", str(tmp_path / "b.json")],
                           cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert again.returncode == 0, again.stderr
    eigen = [[r["methods"][m]["eigen"] for m in ("original", "improved")] for r in rows]
    assert eigen == [[r["methods"][m]["eigen"] for m in ("original", "improved")]
                     for r in json.loads((tmp_path / "b.json").read_text())["rows"]]
