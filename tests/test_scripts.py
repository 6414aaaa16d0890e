import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_scaling_script_writes_every_key(tmp_path):
    spec = importlib.util.spec_from_file_location("scaling", ROOT / "scripts" / "scaling.py")
    scaling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scaling)
    out = tmp_path / "scaling.json"
    assert scaling.main(["--max-n", "400", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert set(data) == {"command", "method", "machine", "rows", "slopes"}
    cells = {(r["family"], r["n"], r["delta"]) for r in data["rows"]}
    radii = [str(d) for d in scaling.DELTAS]
    assert cells == {(f, n, d) for f in scaling.FAMILIES for n in (200, 400) for d in radii}
    assert all(set(r) == {"family", "n", "m", "delta", "regime", "size", "proven", "cpu_s",
                          "forest_searches", "verifier_searches"} for r in data["rows"])
    assert {(s["family"], s["delta"]) for s in data["slopes"]} == {
        (f, d) for f in scaling.FAMILIES for d in radii}
