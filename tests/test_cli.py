"""Command-line interface tests: subcommands, file formats, exit codes."""

import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import support
from netctl import cli, load_matrix_csv, save_network
from netctl import audit as audit_mod

DATA = pathlib.Path(__file__).parent / "data"
README_NET = ("--n", "50", "--radius", "0.25", "--seed", "7", "--targets", "40,45")


def write_two_node(tmp_path, targets=(0, 1)):
    path = tmp_path / "two.json"
    save_network(path, support.two_node_system().graph, [0], list(targets))
    return str(path)


def write_chain(tmp_path):
    path = tmp_path / "chain.json"
    save_network(path, support.three_chain_system().graph, [0], [2])
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_deterministic(self, capsys):
        code, out1, _ = run(capsys, "gen", "--n", "12", "--radius", "0.5", "--seed", "3")
        assert code == 0
        code, out2, _ = run(capsys, "gen", "--n", "12", "--radius", "0.5", "--seed", "3")
        assert code == 0
        assert out1 == out2

    def test_two_node_complete(self, capsys):
        code, out, _ = run(capsys, "gen", "--n", "2", "--radius", "1.4", "--seed", "0")
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 2
        assert len(obj["edges"]) == 4
        assert obj["sources"] == [0]
        assert obj["targets"] == [0, 1]
        assert len(obj["positions"]) == 2

    def test_explicit_targets(self, tmp_path, capsys):
        out_path = tmp_path / "net.json"
        code, _, _ = run(
            capsys,
            "gen", "--n", "2", "--radius", "1.4",
            "--targets", "1", "--out", str(out_path),
        )
        assert code == 0
        obj = json.loads(out_path.read_text())
        assert obj["targets"] == [1]

    def test_unconnectable_exits_2(self, capsys):
        code, _, err = run(capsys, "gen", "--n", "20", "--radius", "0.0001")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("flag", ["--sources", "--targets"])
    def test_empty_node_set_exits_2(self, tmp_path, capsys, flag):
        """No consumer accepts a network without sources or targets, so none is written."""
        out_path = tmp_path / "net.json"
        code, out, err = run(
            capsys, "gen", "--n", "5", "--radius", "0.9", flag, "", "--out", str(out_path)
        )
        assert code == 2
        assert "must be nonempty" in err
        assert out == "" and not out_path.exists()


def network_text(**fields) -> str:
    """The two-node network file with some fields replaced."""
    edges = [[0, 0, 0.5], [0, 1, 0.5], [1, 0, 0.5], [1, 1, 0.5]]
    return json.dumps({"n": 2, "edges": edges, "sources": [0], "targets": [0, 1], **fields})


MALFORMED_NETWORKS = {
    "two_field_edge": network_text(edges=[[0, 0], [0, 1, 0.5], [1, 0, 0.5], [1, 1, 0.5]]),
    "four_field_edge": network_text(edges=[[0, 0, 0.5, 7], [0, 1, 0.5], [1, 0, 0.5], [1, 1, 0.5]]),
    "null_weight": network_text(edges=[[0, 0, None], [0, 1, 0.5], [1, 0, 0.5], [1, 1, 0.5]]),
    "fractional_edge_end": network_text(
        edges=[[0.7, 0, 0.5], [0, 1, 0.5], [1, 0, 0.5], [1, 1, 0.5]]
    ),
    "edges_not_a_list": network_text(edges=5),
    "null_sources": network_text(sources=None),
    "fractional_source": network_text(sources=[0.7]),
    "fractional_n": network_text(n=2.5),
    "overflowing_n": network_text().replace('"n": 2', '"n": 1e400'),
    "top_level_array": json.dumps([2, [], [0], [0]]),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_NETWORKS))
def test_malformed_network_exits_2(tmp_path, capsys, name):
    """Each file crashed with a traceback or was truncated into a valid one."""
    path = tmp_path / "net.json"
    path.write_text(MALFORMED_NETWORKS[name])
    code, out, err = run(capsys, "node-energies", "--net", str(path), "--kf", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


class TestMetrics:
    def test_goal_flow(self, tmp_path, capsys):
        net = write_two_node(tmp_path)
        goal = tmp_path / "goal.csv"
        goal.write_text("1\n1\n")
        u_path = tmp_path / "input.csv"
        code, out, _ = run(
            capsys,
            "metrics", "--net", net, "--kf", "2",
            "--goal", str(goal), "--input-out", str(u_path),
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["E"] == pytest.approx(4.0, rel=1e-12)
        assert obj["E_min"] == pytest.approx(0.7639320225002103, rel=1e-9)
        u = load_matrix_csv(u_path)
        assert u == pytest.approx(np.array([[2.0], [0.0]]), abs=1e-12)

    def test_report_fields_without_goal(self, tmp_path, capsys):
        net = write_two_node(tmp_path)
        code, out, _ = run(capsys, "metrics", "--net", net, "--kf", "2")
        assert code == 0
        obj = json.loads(out)
        assert "E" not in obj
        assert set(obj) == {
            "kf",
            "controllable",
            "lambda_min",
            "lambda_max",
            "E_min",
            "y_min",
            "F_min",
            "j_min",
            "node_energies",
        }

    def test_uncontrollable_exits_3(self, tmp_path, capsys):
        net = write_two_node(tmp_path)
        code, out, err = run(capsys, "metrics", "--net", net, "--kf", "1")
        assert code == 3
        assert "not controllable" in err
        obj = json.loads(out)
        assert obj["controllable"] is False
        assert obj["kf"] == 1
        assert obj["lambda_min"] == pytest.approx(0.0, abs=1e-12)
        assert obj["node_energies"] == [pytest.approx(1.0), None]

    def test_goal_without_input_out_exits_2(self, tmp_path, capsys):
        net = write_two_node(tmp_path)
        goal = tmp_path / "goal.csv"
        goal.write_text("1\n1\n")
        code, _, err = run(capsys, "metrics", "--net", net, "--kf", "2", "--goal", str(goal))
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("entry", ["nan", "inf"])
    def test_non_finite_goal_exits_2(self, tmp_path, capsys, entry):
        net = write_two_node(tmp_path)
        goal = tmp_path / "goal.csv"
        goal.write_text(f"1\n{entry}\n")
        u_path = tmp_path / "u.csv"
        code, out, err = run(
            capsys,
            "metrics", "--net", net, "--kf", "2",
            "--goal", str(goal), "--input-out", str(u_path),
        )
        assert code == 2
        assert "non-finite" in err
        assert out == ""
        assert not u_path.exists()

    def test_input_out_without_goal_exits_2(self, tmp_path, capsys):
        net = write_two_node(tmp_path)
        u_path = tmp_path / "u.csv"
        code, out, err = run(
            capsys, "metrics", "--net", net, "--kf", "2", "--input-out", str(u_path)
        )
        assert code == 2
        assert "error:" in err
        assert out == ""
        assert not u_path.exists()

    def test_periodic_network_exits_4(self, tmp_path, capsys):
        net = tmp_path / "cycle.json"
        net.write_text(
            json.dumps(
                {
                    "n": 2,
                    "edges": [[0, 1, 1.0], [1, 0, 1.0]],
                    "sources": [0],
                    "targets": [0, 1],
                }
            )
        )
        code, _, err = run(capsys, "metrics", "--net", str(net), "--kf", "2")
        assert code == 4
        assert "error:" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "metrics", "--net", "/no/such/file.json", "--kf", "2")
        assert code == 2
        assert "error:" in err

    def test_out_file(self, tmp_path, capsys):
        net = write_two_node(tmp_path)
        report = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "metrics", "--net", net, "--kf", "2", "--out", str(report)
        )
        assert code == 0
        assert out == ""
        obj = json.loads(report.read_text())
        assert obj["controllable"] is True


class TestAudit:
    def test_cutset_theorems_only(self, tmp_path, capsys):
        net = write_chain(tmp_path)
        code, out, _ = run(
            capsys,
            "audit", "--net", net, "--kf", "10",
            "--theorems", "3,4", "--cutset", "1",
        )
        assert code == 0
        ids = [c["id"] for c in json.loads(out)["checks"]]
        assert ids == ["T3.1", "T3.2", "T3.3", "T4.1", "T4.2", "T4.3"]

    def test_min_cutset_flag(self, tmp_path, capsys):
        net = write_chain(tmp_path)
        code, out, _ = run(
            capsys,
            "audit", "--net", net, "--kf", "10",
            "--theorems", "3", "--min-cutset",
        )
        assert code == 0
        ids = [c["id"] for c in json.loads(out)["checks"]]
        assert ids == ["T3.1", "T3.2", "T3.3"]

    def test_theorem5_horizons(self, tmp_path, capsys):
        net = write_two_node(tmp_path)
        code, out, _ = run(
            capsys,
            "audit", "--net", net, "--kf", "2",
            "--theorems", "5", "--horizons", "50,100,200",
        )
        assert code == 0
        checks = json.loads(out)["checks"]
        assert [c["id"] for c in checks] == ["T5.1", "T5.2", "T5.3"]
        assert all(c["holds"] for c in checks)

    def test_theorem1_and_2(self, tmp_path, capsys):
        net = write_two_node(tmp_path)
        code, out, _ = run(
            capsys,
            "audit", "--net", net, "--kf", "2", "--theorems", "1,2",
            "--samples", "20",
        )
        assert code == 0
        ids = [c["id"] for c in json.loads(out)["checks"]]
        assert ids[:7] == ["T1.1", "T1.2", "T1.3", "T1.4", "T1.5", "T1.6", "C1"]
        assert ids[7:] == ["T2.1", "T2.2", "T2.3", "T2.4"]

    def test_theorem1_on_a_13_node_block(self, tmp_path, capsys):
        sysr = support.random_ergodic_system([81, 0], n_low=13, n_high=13, num_sources=13)
        path = tmp_path / "big.json"
        save_network(path, sysr.graph, range(13), range(13))
        code, out, _ = run(capsys, "audit", "--net", str(path), "--kf", "40", "--theorems", "1")
        assert code == 0
        checks = {c["id"]: c for c in json.loads(out)["checks"]}
        assert checks["T1.5"]["horizon_adequate"]
        assert checks["T1.5"]["witness"]["block_order"] == 13.0

    def test_readme_network_matches_golden_report(self, tmp_path, capsys):
        """The README network's full audit against its recorded report and stderr.

        Ids, verdicts, tolerances and witness keys must match exactly and
        witness values to 1e-7; T5.3 fails at the default horizons 200, 400
        and 800, so the run exits 5.
        """
        net = str(tmp_path / "net.json")
        assert run(capsys, "gen", *README_NET, "--out", net)[0] == 0
        code, out, err = run(capsys, "audit", "--net", net, "--kf", "200", "--min-cutset")
        assert code == 5
        assert err.splitlines() == (DATA / "readme_audit.stderr").read_text().splitlines()
        checks = json.loads(out)["checks"]
        golden = json.loads((DATA / "readme_audit.json").read_text())["checks"]
        assert [c["id"] for c in checks] == [g["id"] for g in golden]
        for c, g in zip(checks, golden):
            for field in ("holds", "horizon_adequate", "tolerance"):
                assert c[field] == g[field], (c["id"], field)
            assert list(c["witness"]) == list(g["witness"]), c["id"]
            for key, value in g["witness"].items():
                assert c["witness"][key] == pytest.approx(value, rel=1e-7), (c["id"], key)

    def test_endpoint_cutset(self, tmp_path, capsys):
        net = write_chain(tmp_path)
        code, _, _ = run(
            capsys,
            "audit", "--net", net, "--kf", "10", "--theorems", "3", "--cutset", "0",
        )
        assert code == 0

    def test_not_a_cutset_exits_6(self, tmp_path, capsys):
        net = tmp_path / "diamond.json"
        net.write_text(
            json.dumps(
                {
                    "n": 4,
                    "edges": [
                        [0, 0, 0.25],
                        [1, 0, 0.25],
                        [2, 0, 0.25],
                        [3, 0, 0.25],
                        [0, 1, 0.5],
                        [1, 1, 0.5],
                        [0, 2, 0.5],
                        [2, 2, 0.5],
                        [1, 3, 1 / 3],
                        [2, 3, 1 / 3],
                        [3, 3, 1 / 3],
                    ],
                    "sources": [0],
                    "targets": [3],
                }
            )
        )
        code, _, err = run(
            capsys,
            "audit", "--net", str(net), "--kf", "8", "--theorems", "3", "--cutset", "1",
        )
        assert code == 6
        assert "error:" in err

    def test_cutset_required_exits_2(self, tmp_path, capsys):
        net = write_chain(tmp_path)
        code, _, err = run(capsys, "audit", "--net", net, "--kf", "10", "--theorems", "3")
        assert code == 2
        assert "error:" in err

    def test_bad_theorem_number_exits_2(self, tmp_path, capsys):
        net = write_chain(tmp_path)
        code, _, err = run(capsys, "audit", "--net", net, "--kf", "10", "--theorems", "7")
        assert code == 2
        assert "error:" in err

    def test_violation_exits_5(self, tmp_path, capsys, monkeypatch):
        """No honest violation exists, so fabricate one at the module seam."""
        net = write_two_node(tmp_path)
        fake = audit_mod.AuditReport(
            checks=(
                audit_mod.CheckResult(
                    id="T2.1",
                    holds=False,
                    witness={"min_output": -0.5},
                    tolerance=1e-10,
                    horizon_adequate=True,
                ),
            )
        )
        monkeypatch.setattr(audit_mod, "audit_theorem2", lambda *a, **k: fake)
        code, out, err = run(
            capsys, "audit", "--net", net, "--kf", "2", "--theorems", "2"
        )
        assert code == 5
        assert "violation T2.1" in err
        assert json.loads(out)["checks"][0]["holds"] is False


class TestNodeEnergies:
    def test_two_node_values(self, tmp_path, capsys):
        net = write_two_node(tmp_path)
        code, out, _ = run(capsys, "node-energies", "--net", net, "--kf", "2")
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 2
        node0 = rows[0].split(",")
        node1 = rows[1].split(",")
        assert node0[0] == "0" and node1[0] == "1"
        # hand-built network has no positions: blank coordinate fields
        assert node0[1] == "" and node0[2] == ""
        assert float(node0[3]) == pytest.approx(0.8, rel=1e-12)
        assert float(node1[3]) == pytest.approx(4.0, rel=1e-12)

    def test_unreachable_prints_inf(self, tmp_path, capsys):
        net = write_chain(tmp_path)
        code, out, _ = run(capsys, "node-energies", "--net", net, "--kf", "1")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[2].endswith(",inf")

    def test_geometric_positions_present(self, tmp_path, capsys):
        net_path = tmp_path / "geo.json"
        code, _, _ = run(
            capsys,
            "gen", "--n", "10", "--radius", "0.6", "--seed", "1",
            "--out", str(net_path),
        )
        assert code == 0
        code, out, _ = run(capsys, "node-energies", "--net", str(net_path), "--kf", "30")
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 10
        for row in rows:
            fields = row.split(",")
            assert 0.0 <= float(fields[1]) <= 1.0
            assert 0.0 <= float(fields[2]) <= 1.0


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        """The installed package runs as python -m netctl.cli."""
        out_path = tmp_path / "net.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "netctl.cli",
                "gen", "--n", "5", "--radius", "0.9", "--seed", "2",
                "--out", str(out_path),
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out_path.read_text())["n"] == 5
