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
    assert cells == {(f, make(n).n, d) for f, make in scaling.FAMILIES.items()
                     for n in (200, 400) for d in radii}
    assert all(set(r) == {"family", "n", "m", "delta", "regime", "size", "proven", "cpu_s",
                          "forest_searches", "verifier_searches"} for r in data["rows"])
    assert {(s["family"], s["delta"]) for s in data["slopes"]} == {
        (f, d) for f in scaling.FAMILIES for d in radii}


def test_the_solver_rows_script_writes_one_line_per_solve(tmp_path):
    spec = importlib.util.spec_from_file_location("solver_rows",
                                                  ROOT / "scripts" / "solver_rows.py")
    solver_rows = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(solver_rows)
    assert len(solver_rows.radii(8)) == 66
    out = tmp_path / "rows.jsonl"
    assert solver_rows.main(["--rows", "atlas", "--max-den", "1", "--max-nodes", "50",
                             "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(r["graph"], r["delta"]) for r in rows[:2]] == [("atlas3", "1"), ("atlas6", "1")]
    assert {r["delta"] for r in rows} == {"1", "2", "3"} and len(rows) == 3 * 142
    assert all(set(r) == {"rows", "graph", "delta", "size", "optimal", "nodes", "cover"}
               and r["size"] == len(r["cover"]) and 1 <= r["nodes"] <= 51 for r in rows)
