import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import girthforge
from girthforge import cli
from girthforge.cli import main
from girthforge.graph import INFINITE, MAX_VERTEX_ID, ForbiddenFamily, parse_edge_list
from girthforge.hosts import complete, random_gnm, star
from girthforge.report import ExtractionReport
from girthforge.graph import format_edge_list


@pytest.fixture()
def k7_path(tmp_path):
    p = tmp_path / "k7.edges"
    p.write_text(format_edge_list(complete(7)))
    return str(p)


@pytest.fixture()
def c5_path(tmp_path):
    edges = [(i, (i + 1) % 5) for i in range(5)]
    from girthforge.graph import Graph

    p = tmp_path / "c5.edges"
    p.write_text(format_edge_list(Graph.from_edges(5, edges)))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestVerify:
    def test_free_exit_zero(self, capsys, c5_path):
        code, out = run(capsys, ["verify", "--family", "even:4", "--in", c5_path])
        doc = json.loads(out)
        assert code == 0 and doc["free"] is True

    def test_nonfree_exit_two(self, capsys, k7_path):
        code, out = run(capsys, ["verify", "--family", "even:4", "--in", k7_path])
        doc = json.loads(out)
        assert code == 2 and doc["free"] is False
        assert len(doc["witness"]) == 4

    def test_free_graph_runs_no_family_check(self, capsys, c5_path, tmp_path):
        # girth 5 > 4 (and a forest's infinite girth) already proves freeness
        tree = tmp_path / "tree.edges"
        tree.write_text("0 1\n1 2\n1 3\n")
        with mock.patch.object(cli, "check_family_free", side_effect=AssertionError):
            for path, girth in ((c5_path, 5), (str(tree), "Infinite")):
                code, out = run(capsys, ["verify", "--family", "even:4", "--in", path])
                doc = json.loads(out)
                assert code == 0 and doc["free"] is True and doc["girth"] == girth

    def test_bad_family_usage_error(self, capsys, k7_path):
        code, _ = run(capsys, ["verify", "--family", "odd:3", "--in", k7_path])
        assert code == 1

    def test_missing_file_usage_error(self, capsys):
        code, _ = run(capsys, ["verify", "--family", "even:4", "--in", "/nope"])
        assert code == 1

    def test_malformed_edge_list(self, capsys, tmp_path):
        p = tmp_path / "bad.edges"
        p.write_text("0 1\n1 1\n")
        code, _ = run(capsys, ["verify", "--family", "even:4", "--in", str(p)])
        assert code == 1

    @pytest.mark.parametrize("text", ["1_0 2\n", "+3 4\n"])
    def test_non_decimal_id_usage_error(self, capsys, tmp_path, text):
        # int() reads these as 10 and 3; the parser's own tests cover the
        # non-ASCII digits
        p = tmp_path / "odd.edges"
        p.write_text(text)
        code = main(["verify", "--family", "even:4", "--in", str(p)])
        assert code == 1
        assert "line 1: non-integer vertex" in capsys.readouterr().err

    def test_vertex_id_beyond_cap_usage_error(self, capsys, tmp_path):
        p = tmp_path / "huge.edges"
        p.write_text(f"0 1\n0 {MAX_VERTEX_ID + 1}\n")
        for argv in (
            ["verify", "--family", "even:4"],
            ["extract", "degree", "--r", "2", "--trials", "1"],
        ):
            code = main([*argv, "--in", str(p)])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert "line 2" in captured.err and "exceeds MAX_VERTEX_ID" in captured.err


class TestExtract:
    def test_edges_report_and_floor(self, capsys, k7_path):
        code, out = run(
            capsys,
            ["extract", "edges", "--r", "2", "--trials", "16", "--seed", "7", "--in", k7_path],
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["output"]["edges"] >= 6  # spanning-tree floor of K7
        assert doc["certificate"]["status"] == "pass"
        assert doc["timing_ms"] is None

    def test_edges_outfile(self, capsys, k7_path, tmp_path):
        outp = tmp_path / "out.edges"
        code, out = run(
            capsys,
            ["extract", "edges", "--in", k7_path, "--seed", "1", "--out", str(outp)],
        )
        doc = json.loads(out)
        g = parse_edge_list(outp.read_text())
        assert g.m == doc["output"]["edges"]

    def test_degree_runs(self, capsys, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text(format_edge_list(random_gnm(30, 60, 2)))
        code, out = run(
            capsys,
            ["extract", "degree", "--in", str(p), "--seed", "3", "--trials", "2"],
        )
        doc = json.loads(out)
        assert code in (0, 3)
        assert doc["certificate"]["status"] == "pass"

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_edges_small_star(self, capsys, tmp_path, r):
        for leaves in range(4, 2 * r + 1):
            p = tmp_path / f"star{leaves}.edges"
            p.write_text(format_edge_list(star(leaves)))
            code, out = run(capsys, ["extract", "edges", "--r", str(r), "--in", str(p)])
            assert code == 0
            assert json.loads(out)["method"] == "identity"

    def test_degree_accepts_empty_edge_list(self, capsys, tmp_path):
        # as every other subcommand does: the identity candidate exists at n = 0
        p = tmp_path / "empty.edges"
        p.write_text("# no edges\n")
        code, out = run(capsys, ["extract", "degree", "--r", "2", "--in", str(p)])
        doc = json.loads(out)
        assert code == 0
        assert doc["method"] == "identity"
        assert doc["input"] == {"n": 0, "m": 0}
        assert doc["output"]["edges"] == 0

    @pytest.mark.parametrize(
        "mode, r", [("degree", 200), ("edges", 1499), ("edges", 1500)]
    )
    def test_large_r_without_host_keeps_identity(self, capsys, tmp_path, mode, r):
        # no host of the needed girth fits the order the extractor picks
        # (at r = 1499 case 2's target order, 3, is below girth 2r + 1),
        # so only the identity, the forest and (edges) greedy compete
        p = tmp_path / "path.edges"
        p.write_text("0 1\n1 2\n")
        code, out = run(capsys, ["extract", mode, "--r", str(r), "--in", str(p)])
        doc = json.loads(out)
        assert code == 0
        assert doc["method"] == "identity"
        assert doc["output"]["edges"] == 2
        assert "host" not in doc

    def test_degree_rejects_zero_rounds_without_edges(self, capsys, tmp_path):
        p = tmp_path / "empty.edges"
        p.write_text("# no edges\n")
        code = main(["extract", "degree", "--max-rounds", "0", "--in", str(p)])
        assert code == 1
        assert "max_rounds must be >= 1" in capsys.readouterr().err

    def test_timing_flag_populates(self, capsys, k7_path):
        code, out = run(
            capsys, ["extract", "edges", "--in", k7_path, "--seed", "1", "--timing"]
        )
        assert json.loads(out)["timing_ms"] is not None


class TestHostBuild:
    def test_polarity(self, capsys):
        code, out = run(capsys, ["host", "build", "--kind", "polarity", "--q", "5"])
        doc = json.loads(out)
        assert code == 0
        assert doc["order"] == 31 and doc["edges"] == 5 * 36 // 2

    def test_out_files(self, capsys, tmp_path):
        outp = tmp_path / "host.edges"
        code, _ = run(
            capsys,
            ["host", "build", "--kind", "incidence", "--q", "2", "--out", str(outp)],
        )
        assert code == 0
        assert parse_edge_list(outp.read_text()).m == 21
        assert "certified_girth" in (tmp_path / "host.edges.meta").read_text()

    def test_nonprime_usage_error(self, capsys):
        code, _ = run(capsys, ["host", "build", "--kind", "polarity", "--q", "4"])
        assert code == 1


class TestOracle:
    def test_anchor(self, capsys, tmp_path):
        p = tmp_path / "k4.edges"
        p.write_text(format_edge_list(complete(4)))
        code, out = run(capsys, ["oracle", "--family", "even:4", "--in", str(p)])
        doc = json.loads(out)
        assert code == 0 and doc["value"] == 4

    def test_cap_usage_error(self, capsys, tmp_path):
        p = tmp_path / "big.edges"
        p.write_text(format_edge_list(complete(12)))
        code, _ = run(capsys, ["oracle", "--family", "even:4", "--in", str(p)])
        assert code == 1


def test_non_finite_number_raises_instead_of_printing():
    # every girth prints through girth_json; one that does not fails loudly
    with pytest.raises(ValueError):
        cli._emit({"girth": INFINITE}, None)
    report = ExtractionReport(
        input_n=5, input_m=4, method="forest", r=2, trials=1, seed=0,
        output_edges=4, output_min_degree=1, output_girth=INFINITE,
        family=ForbiddenFamily.parse("all:5"),
    )
    assert json.loads(report.to_json())["output"]["girth"] == "Infinite"
    report.extras["girth"] = INFINITE
    with pytest.raises(ValueError):
        report.to_json()


class TestSweep:
    def test_too_few_points(self, capsys):
        code, _ = run(capsys, ["sweep", "--mode", "f", "--n", "20:30:10"])
        assert code == 1

    def test_csv_shape_and_slope(self, capsys):
        code, out = run(
            capsys,
            ["sweep", "--mode", "f", "--n", "10:16:2", "--trials", "2", "--seed", "5"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# girthforge-sweep-v1"
        assert lines[2].startswith("x,n,m,")
        assert len([l for l in lines if not l.startswith("#")]) == 5  # header + 4
        assert lines[-1].startswith("# slope=")

    def test_timing_fills_only_the_wall_column(self, capsys):
        argv = ["sweep", "--mode", "h", "--n", "8:14:2", "--trials", "1", "--seed", "5"]
        rows = {}
        for extra in ([], ["--timing"]):
            code, out = run(capsys, argv + extra)
            assert code == 0
            rows[bool(extra)] = [line.split(",") for line in out.splitlines()[3:-1]]
        assert all(row[-1] == "" for row in rows[False])
        assert all(row[-1].isdigit() for row in rows[True])
        assert [row[:-1] for row in rows[True]] == [row[:-1] for row in rows[False]]

    def test_equal_x_usage_error(self):
        # all four random_gnm inputs have maximum degree 9: no slope to fit
        argv = ["sweep", "--mode", "h", "--family-input", "random_gnm",
                "--n", "18:21:1", "--trials", "1", "--seed", "0"]
        src = str(Path(girthforge.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "girthforge.cli", *argv],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        last = proc.stderr.splitlines()[-1]
        assert last.startswith("error:") and "x = 9" in last

    def test_mode_h(self, capsys):
        code, out = run(
            capsys,
            ["sweep", "--mode", "h", "--n", "8:14:2", "--trials", "1", "--seed", "5"],
        )
        assert code == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["extract", "edges"], "the following arguments are required: --in"),
        (["sweep", "--mode", "f", "--n", "8:20:4", "--family-input", "nope"],
         "unknown sweep input family 'nope'"),
        (["sweep", "--mode", "f", "--n", "1:2"], "range must be A:B:S, got '1:2'"),
        (["sweep", "--mode", "f", "--n", "9:1:1"], "empty or descending range '9:1:1'"),
    ],
)
def test_usage_error_exits_one(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {message}\n"


class TestDeterminism:
    def test_repeat_byte_identical(self, capsys, k7_path):
        argv = ["extract", "edges", "--in", k7_path, "--seed", "9", "--trials", "4"]
        _, a = run(capsys, argv)
        _, b = run(capsys, argv)
        assert a == b

    def test_seed_env_ignored(self, capsys, k7_path, monkeypatch):
        # the command line alone fixes the output: --seed defaults to 0
        monkeypatch.setenv("GIRTHFORGE_SEED", "123")
        argv = ["extract", "edges", "--in", k7_path, "--trials", "4"]
        _, default = run(capsys, argv)
        _, zero = run(capsys, argv + ["--seed", "0"])
        assert default == zero


def test_every_subcommand_runs_without_numpy(tmp_path):
    # numpy set to None in sys.modules makes any import of it raise; the
    # incidence host at q = 67 reaches the large-workload C4 scan
    (tmp_path / "k7.edges").write_text(format_edge_list(complete(7)))
    (tmp_path / "c5.edges").write_text("0 1\n1 2\n2 3\n3 4\n4 0\n")
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from girthforge.cli import main\n"
        "runs = [\n"
        "    (['host', 'build', '--kind', 'incidence', '--q', '67'], 0),\n"
        "    (['host', 'build', '--kind', 'polarity', '--q', '5'], 0),\n"
        "    (['host', 'build', '--kind', 'greedy', '--n', '30', '--girth', '5'], 0),\n"
        "    (['extract', 'edges', '--in', 'k7.edges', '--trials', '1'], 0),\n"
        "    (['extract', 'degree', '--in', 'k7.edges', '--trials', '1'], 0),\n"
        "    (['verify', '--in', 'k7.edges', '--family', 'even:4'], 2),\n"
        "    (['verify', '--in', 'c5.edges', '--family', 'even:4'], 0),\n"
        "    (['oracle', '--in', 'c5.edges', '--family', 'even:4'], 0),\n"
        "    (['sweep', '--mode', 'f', '--n', '4:10:2', '--trials', '1'], 0),\n"
        "]\n"
        "for argv, code in runs:\n"
        "    assert main(argv) == code, argv\n"
    )
    src = str(Path(girthforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, check=True,
        stdout=subprocess.DEVNULL, timeout=300,
    )
