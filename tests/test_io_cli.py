import csv
import dataclasses
import json
import re
from fractions import Fraction as F

import pytest

from deltacover import Budget, Cover, Graph, Point, build_set_cover, harmonic_number
from deltacover.bench import run_bench, run_row, summarize
from deltacover.cli import main
from deltacover.io import (
    FileFormatError,
    cover_to_text,
    graph_to_text,
    parse_cover_text,
    parse_graph_text,
    read_cover,
    write_cover,
    write_graph_file,
)
from conftest import clear_library_caches, cycle, k_n, path


def test_parse_minimal_graph():
    g = parse_graph_text("p 2 1\ne 1 2\n")
    assert (g.n, g.m) == (2, 1)


def test_parse_with_comments_and_roundtrip():
    g = cycle(4)
    text = graph_to_text(g, comments=("four cycle",))
    again = parse_graph_text(text)
    assert again == g
    assert graph_to_text(again, comments=("four cycle",)) == text


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FileFormatError, match=":2:"):
        parse_graph_text("p 2 1\ne 1 5\n")
    with pytest.raises(FileFormatError, match=":1:"):
        parse_graph_text("e 1 2\n")
    with pytest.raises(FileFormatError, match="promises"):
        parse_graph_text("p 2 2\ne 1 2\n")
    with pytest.raises(FileFormatError, match="loop"):
        parse_graph_text("p 2 2\ne 1 1\ne 1 2\n")


def test_cover_text_roundtrip():
    g = cycle(4)
    cover = Cover.of(
        [Point.vertex(0), Point.on_edge(1, 2, F(1, 3)), Point.on_edge(2, 3, F(2, 3))],
        F(1, 3),
    )
    text = cover_to_text(cover)
    again = parse_cover_text(text, g, F(1, 3))
    assert again.points == cover.points
    assert cover_to_text(again) == text


def test_cover_single_interior_line():
    g = Graph([(0, 1)])
    cover = parse_cover_text("i 1 2 1/2\n", g, F(1))
    assert cover.points == {Point.on_edge(0, 1, F(1, 2))}


def test_cover_six_point_denominator_three_roundtrip(tmp_path):
    g = cycle(4)
    pts = [Point.on_edge(0, 1, F(1, 3)), Point.on_edge(0, 1, F(2, 3)),
           Point.on_edge(1, 2, F(1, 3)), Point.on_edge(2, 3, F(2, 3)),
           Point.vertex(3), Point.vertex(0)]
    cover = Cover.of(pts, F(1, 3))
    path = tmp_path / "c.cover"
    write_cover(path, cover)
    assert read_cover(path, g, F(1, 3)).points == cover.points
    write_cover(tmp_path / "again.cover", read_cover(path, g, F(1, 3)))
    assert (tmp_path / "again.cover").read_text() == path.read_text()


def test_cover_parse_errors():
    g = Graph([(0, 1)])
    with pytest.raises(FileFormatError, match=":1:"):
        parse_cover_text("i 1 2 3/0\n", g, F(1))
    with pytest.raises(FileFormatError, match=":2:"):
        parse_cover_text("v 1\nx 2\n", g, F(1))
    with pytest.raises(FileFormatError):
        parse_cover_text("i 1 3 1/2\n", g, F(1))  # edge not in graph


def test_cli_solve_verify_flow(tmp_path):
    gpath = tmp_path / "c4.graph"
    write_graph_file(gpath, cycle(4))
    cpath = tmp_path / "c4.cover"
    assert main(["solve", "--delta", "1/1", "--input", str(gpath),
                 "--output", str(cpath)]) == 0
    assert main(["verify", "--delta", "1/1", "--input", str(gpath),
                 "--cover", str(cpath)]) == 0
    assert main(["verify", "--delta", "2/3", "--input", str(gpath),
                 "--cover", str(cpath)]) == 1


def test_cli_verify_probes_edgeless_and_disconnected(tmp_path, capsys):
    # An edgeless graph has no edge to probe; a probe in one component is at
    # no distance from the cover points of another.
    for text, cover_text, delta in [("p 2 0\n", "v 1\nv 2\n", "1/2"),
                                    ("p 4 2\ne 1 2\ne 3 4\n", "v 1\nv 3\n", "1/1")]:
        gpath, cpath = tmp_path / "g.graph", tmp_path / "g.cover"
        gpath.write_text(text)
        cpath.write_text(cover_text)
        assert main(["verify", "--delta", delta, "--input", str(gpath),
                     "--cover", str(cpath), "--probes", "20"]) == 0
        assert "verified" in capsys.readouterr().out


def test_cli_budget_exit_code(tmp_path):
    gpath = tmp_path / "k5.graph"
    write_graph_file(gpath, k_n(5))
    rc = main(["solve", "--delta", "2/5", "--input", str(gpath),
               "--budget-nodes", "2"])
    assert rc == 2


def test_cli_solve_prints_one_line_per_mode(tmp_path, capsys):
    gpath = tmp_path / "c5.graph"
    write_graph_file(gpath, cycle(5))
    solve = ["solve", "--input", str(gpath)]
    assert main(solve + ["--delta", "2/3"]) == 0
    assert re.fullmatch(r"size 4 optimal True nodes \d+ elapsed \d+\.\d{3}s\n",
                        capsys.readouterr().out)
    assert main(solve + ["--delta", "2/3", "--greedy"]) == 0
    assert re.fullmatch(r"size 4 optimal False nodes 0 elapsed \d+\.\d{3}s\n",
                        capsys.readouterr().out)
    # The unit-fraction route runs no search: one 1-cover of 3, plus 5 points.
    assert main(solve + ["--unit-fraction", "3"]) == 0
    assert capsys.readouterr().out == "size 8 optimal True\n"
    kpath = tmp_path / "k5.graph"
    write_graph_file(kpath, k_n(5))
    assert main(["solve", "--input", str(kpath), "--delta", "2/5", "--budget-nodes", "2"]) == 2
    assert re.fullmatch(r"size \d+ optimal False nodes 3 elapsed \d+\.\d{3}s\n",
                        capsys.readouterr().out)


def test_cli_rejects_a_negative_vertex_count(tmp_path, capsys):
    gpath = tmp_path / "neg.graph"
    gpath.write_text("p -2 0\n")
    for command in (["approx", "--delta", "1/2"], ["solve", "--delta", "1/2"]):
        assert main(command + ["--input", str(gpath)]) == 3, command
        assert "negative vertex count -2" in capsys.readouterr().err


def test_cli_usage_errors(tmp_path):
    assert main(["solve", "--input", "missing.graph"]) == 3
    gpath = tmp_path / "k2.graph"
    write_graph_file(gpath, Graph([(0, 1)]))
    assert main(["solve", "--input", str(gpath)]) == 3  # no delta
    assert main(["tree", "--delta", "1/1", "--input", str(gpath.with_name("no.graph"))]) == 3


def test_cli_tree_and_approx(tmp_path, capsys):
    gpath = tmp_path / "p6.graph"
    write_graph_file(gpath, Graph([(i, i + 1) for i in range(6)]))
    out = tmp_path / "t.cover"
    assert main(["tree", "--delta", "3/5", "--input", str(gpath),
                 "--output", str(out)]) == 0
    assert "size 5" in capsys.readouterr().out

    report = tmp_path / "r.json"
    assert main(["approx", "--delta", "2/3", "--input", str(gpath),
                 "--output", str(tmp_path / "a.cover"), "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["regime"] == "exact"
    assert data["verified"] is True and data["proven"] is True


def test_cli_large_delta_report_on_a_large_universe(tmp_path):
    # |U| = 10,400 cell midpoints, 8 per edge, on the 1,300-vertex cycle at
    # 9/4: H(|U|) has more digits than int-to-str converts.  The claim is
    # H(36), for the 36 elements of the largest candidate.
    gpath = tmp_path / "c1300.graph"
    write_graph_file(gpath, cycle(1300))
    report = tmp_path / "r.json"
    assert main(["approx", "--delta", "9/4", "--input", str(gpath),
                 "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["regime"] == "large_delta"
    assert len(build_set_cover(cycle(1300), F(9, 4)).universe) == 10_400
    assert F(data["claimed_factor"]) == harmonic_number(36)


def test_cli_gen_and_metadata(tmp_path):
    out = tmp_path / "fam.graph"
    meta = tmp_path / "fam.json"
    assert main(["gen", "--family", "triangles_center", "--k", "3",
                 "--output", str(out), "--metadata", str(meta)]) == 0
    g = parse_graph_text(out.read_text())
    assert (g.n, g.m) == (10, 12)
    data = json.loads(meta.read_text())
    assert data["params"]["k"] == 3
    assert {kv["delta"] for kv in data["known_values"]} == {"5/4", "1/1"}

    src = tmp_path / "src.graph"
    write_graph_file(src, k_n(3))
    assert main(["gen", "--family", "ugc_gadget", "--x", "1", "--variant", "path_apex",
                 "--source", str(src), "--output", str(tmp_path / "g.graph")]) == 0
    gg = parse_graph_text((tmp_path / "g.graph").read_text())
    assert (gg.n, gg.m) == (7, 9)


def test_cli_bench_small_suite(tmp_path):
    gdir = tmp_path
    write_graph_file(gdir / "c4.graph", cycle(4))
    write_graph_file(gdir / "k3.graph", k_n(3))
    config = {
        "deltas": ["3/5", "2/3", "1", "4/3"],
        "budget": {"seconds": 5},
        "instances": [
            {"id": "c4", "file": "c4.graph"},
            {"id": "k3", "file": "k3.graph"},
        ],
    }
    cfg = gdir / "suite.json"
    cfg.write_text(json.dumps(config))
    csv_path = gdir / "rows.csv"
    summary_path = gdir / "summary.json"
    assert main(["bench", "--config", str(cfg), "--csv", str(csv_path),
                 "--summary", str(summary_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 9  # header + 8 rows
    header = lines[0].split(",")
    assert header[:6] == ["instance", "family", "n", "m", "delta", "regime"]
    summary = json.loads(summary_path.read_text())
    assert summary["rows"] == 8
    assert summary["all_verified"] is True
    for regime, agg in summary["regimes"].items():
        assert agg["violations"] == 0 and agg["unproven_claims"] == 0
    with open(csv_path, newline="") as fh:
        assert {row["claim_proven"] for row in csv.DictReader(fh)} == {"1"}


def test_cli_bench_empty_suite(tmp_path):
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({"deltas": [], "instances": []}))
    csv_path = tmp_path / "rows.csv"
    assert main(["bench", "--config", str(cfg), "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 1  # header only


def test_bench_row_on_the_empty_graph_has_ratio_one():
    row = run_row("empty", "file", parse_graph_text("p 0 0\n"), F(1, 2), Budget())
    assert (row.cover_size, row.oracle_size, row.ratio) == (0, 0, F(1))


def test_bench_row_says_whether_its_claim_is_proven():
    # At 11/21 the 5-cycle's (x+1)/x claim rests on an exact sub-solve,
    # which has no nodes to spend here.
    starved = run_row("c5", "file", cycle(5), F(11, 21), Budget(max_nodes=0))
    full = run_row("c5", "file", cycle(5), F(11, 21), Budget())
    assert (starved.regime, starved.claim_proven, full.claim_proven) == ("vertex_set_x", False, True)
    assert starved.as_record()["claim_proven"] == 0 and full.as_record()["claim_proven"] == 1
    assert summarize([starved, full])["regimes"]["vertex_set_x"]["unproven_claims"] == 1


def test_cli_bench_on_an_empty_graph_file(tmp_path):
    (tmp_path / "empty.graph").write_text("p 0 0\n")
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"deltas": ["1/2", "5/4"],
                               "instances": [{"id": "empty", "file": "empty.graph"}]}))
    csv_path = tmp_path / "rows.csv"
    assert main(["bench", "--config", str(cfg), "--csv", str(csv_path)]) == 0
    with open(csv_path, newline="") as fh:
        assert [row["ratio"] for row in csv.DictReader(fh)] == ["1/1", "1/1"]


def test_parallel_bench_gives_the_serial_rows_and_summary():
    config = {
        "deltas": ["2/5", "2/3", "5/4"],
        "budget": {"nodes": 2000},
        "instances": [{"family": "triangles_center", "k": 3},
                      {"family": "star_subdivision", "x": 2, "k": 3}],
    }
    serial_rows, serial_summary = run_bench(config, jobs=1)
    parallel_rows, parallel_summary = run_bench(config, jobs=2)
    assert len(serial_rows) == 6

    def timeless(rows):
        return [dataclasses.replace(r, runtime_ms=0) for r in rows]

    assert timeless(parallel_rows) == timeless(serial_rows)
    assert parallel_summary == serial_summary


def test_cli_bench_has_no_seed_flag(tmp_path):
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({"deltas": [], "instances": []}))
    assert main(["bench", "--config", str(cfg), "--csv", str(tmp_path / "rows.csv"),
                 "--seed", "1"]) == 3


def test_cli_commands_verify_once(tmp_path, verifier_calls):
    gpath = tmp_path / "p5.graph"
    write_graph_file(gpath, path(5))
    cpath = tmp_path / "p5.cover"
    commands = [
        ["tree", "--delta", "3/5", "--output", str(cpath)],
        ["verify", "--delta", "3/5", "--cover", str(cpath)],
        ["approx", "--delta", "2/3"],
        ["solve", "--delta", "2/3"],
        ["solve", "--greedy", "--delta", "2/3"],
        ["solve", "--unit-fraction", "3"],
    ]
    # Each command starts cold, as a new process of the CLI does.
    for command in commands:
        clear_library_caches()
        verifier_calls.clear()
        assert main(command + ["--input", str(gpath)]) == 0
        assert len(verifier_calls) == 1, command
    # A bench row verifies its approximate cover and its oracle cover once each.
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"deltas": ["2/3"], "instances": [{"id": "p5", "file": str(gpath)}]}))
    clear_library_caches()
    verifier_calls.clear()
    assert main(["bench", "--config", str(cfg), "--csv", str(tmp_path / "rows.csv")]) == 0
    assert len(verifier_calls) == 2
