import csv
import itertools
import json
import math

import numpy as np
import pytest

from loopexp import graphs
from loopexp.bp import solve_fixed_point
from loopexp.channel import sample_bsc
from loopexp.cli import main
from loopexp.graphs import (CheckGraph, enumerate_polymers, read_graph,
                            sample_regular_graph, write_graph)
from loopexp.loopseries import (ActivityTable, convergence_criterion,
                                scan_correction)
from loopexp.model import FactorSpec, exact_log_partition


def read_summary(path):
    """Split a summary CSV into (meta dict, header, data rows)."""
    meta = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, val = line[2:].partition("=")
                meta[key] = val
            elif line:
                rows.append(line)
    parsed = list(csv.reader(rows))
    return meta, parsed[0], parsed[1:]


@pytest.fixture
def triangle_file(tmp_path):
    g = CheckGraph(3, 2, [(0, 1), (1, 2), (0, 2)])
    path = tmp_path / "triangle.txt"
    write_graph(g, path)
    return path


class TestParser:
    def test_flag_does_not_carry_into_the_next_call(self, tmp_path):
        # the parser is built once per process; each call parses afresh
        argv = ["verify-identity", "-n", "4", "--trials", "1"]
        assert main([*argv, "--save-messages",
                     "--out-dir", str(tmp_path / "a")]) == 0
        assert main([*argv, "--out-dir", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "reports" / "messages_0000.csv").exists()
        assert not (tmp_path / "b" / "reports" / "messages_0000.csv").exists()
        assert (tmp_path / "b" / "reports" / "trial_0000.json").exists()


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["verify-identity", "--bogus"])
        assert ei.value.code == 1

    def test_unknown_subcommand_is_one(self):
        with pytest.raises(SystemExit) as ei:
            main(["no-such-command"])
        assert ei.value.code == 1

    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["--version"])
        assert ei.value.code == 0

    def test_invalid_model_flag_is_usage(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["verify-identity", "--model", "nonsense",
                  "--out-dir", str(tmp_path / "v")])
        assert ei.value.code == 1
        assert "high-temperature" in capsys.readouterr().err

    def test_exponent_scan_takes_no_seed(self, tmp_path):
        with pytest.raises(SystemExit) as ei:
            main(["exponent-scan", "--seed", "3",
                  "-o", str(tmp_path / "s.csv")])
        assert ei.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["gen-graph", "-n", "6"],
        ["correction-decay", "--n-list", "4", "--trials", "1"],
        ["exponent-scan", "--step", "0.1"],
        ["expander-check", "-n", "6", "--samples", "1"],
        ["criterion-report", "-n", "6", "--values", "0.1", "--trials", "1"],
        ["entropy", "-n", "6", "--trials", "1"]], ids=lambda a: a[0])
    def test_output_directory_is_created(self, tmp_path, capsys, argv):
        out = tmp_path / "new" / "deeper" / "out.csv"
        assert main([*argv, "-o", str(out)]) == 0
        assert out.is_file()

    def test_help_shows_defaults(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["verify-identity", "--help"])
        assert ei.value.code == 0
        printed = capsys.readouterr().out
        for text in ("(default 0.45)", "(default 10)", "(default 1e-12)",
                     "(default cycle-code)", "(default loopexp-verify)"):
            assert text in printed

    def test_unknown_config_key_is_precondition(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text(f"n=6\ntrails=2\nout={out}\n")
        code = main(["gen-graph", "--config", str(cfgfile)])
        assert code == 2
        assert "trails" in capsys.readouterr().err
        assert not out.exists()
        # keys of other subcommands are fine: one file serves them all
        cfgfile.write_text(f"n=6\ntrials=2\nsamples=3\nout={out}\n")
        assert main(["gen-graph", "--config", str(cfgfile)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("line", ["exact_cap=26", "scan_cap=22"])
    def test_removed_cap_key_is_precondition(self, tmp_path, capsys, line):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text(f"n=6\ntrials=1\n{line}\n")
        out_dir = tmp_path / "v"
        code = main(["verify-identity", "--config", str(cfgfile),
                     "--out-dir", str(out_dir)])
        assert code == 2
        assert line.partition("=")[0] in capsys.readouterr().err
        assert not out_dir.exists()

    def test_removed_cap_flag_is_usage(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["verify-identity", "-n", "6", "--exact-cap", "8",
                  "--out-dir", str(tmp_path / "v")])
        assert ei.value.code == 1
        assert "--exact-cap" in capsys.readouterr().err

    def test_damping_out_of_range_is_precondition(self, tmp_path, capsys):
        code = main(["verify-identity", "-n", "6", "--trials", "1",
                     "--damping", "1.5", "--out-dir", str(tmp_path / "v")])
        assert code == 2
        assert "damping" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--mayer-max", "6"], "mayer_max must lie in 0..5"),
        (["--node-cap", "-1"], "node_cap must be nonnegative"),
        (["--model", "high-temperature", "--coupling", "nan"],
         "coupling J is NaN"),
    ], ids=["mayer_max", "node_cap", "coupling"])
    def test_bad_report_scalar_is_precondition(self, tmp_path, capsys, flags,
                                               message):
        out = tmp_path / "v"
        code = main(["verify-identity", "-n", "6", "--trials", "2",
                     *flags, "--out-dir", str(out)])
        assert code == 2
        assert f"loopexp: {message}" in capsys.readouterr().err
        assert not list(out.rglob("trial_*.json"))

    def test_invalid_model_from_config_is_precondition(self, tmp_path,
                                                       capsys):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("model=nonsense\n")
        code = main(["verify-identity", "--config", str(cfgfile),
                     "--out-dir", str(tmp_path / "v")])
        assert code == 2
        assert "unknown model kind" in capsys.readouterr().err

    def test_polymer_budget_is_precondition(self, tmp_path, capsys,
                                            monkeypatch):
        # the uncapped catalog of a 10-node cubic host is far above 100
        monkeypatch.setattr(graphs, "MAX_POLYMERS", 100)
        code = main(["verify-identity", "-n", "10", "--trials", "1",
                     "--out-dir", str(tmp_path / "v")])
        assert code == 2
        err = capsys.readouterr().err
        assert "polymer catalog exceeds 100 polymers" in err

    def test_odd_stub_total_is_precondition(self, tmp_path, capsys):
        code = main(["gen-graph", "-n", "7", "-d", "3",
                     "-o", str(tmp_path / "g.txt")])
        assert code == 2

    def test_all_trials_diverged_is_three(self, tmp_path, triangle_file,
                                          capsys):
        # strong fields on a ring: every trial overflows
        code = main(["verify-identity", "--graph", str(triangle_file),
                     "-p", "0.2", "--trials", "2",
                     "--out-dir", str(tmp_path / "diverged")])
        assert code == 3
        assert "no trial reached" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key", [("correction-decay", "n_list"),
                                             ("criterion-report", "values")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_sweep_list_is_rejected(self, tmp_path, capsys, command,
                                          key, source):
        # an empty sweep runs nothing; it fails like a malformed list,
        # before any output is written
        out = tmp_path / "out.csv"
        argv = [command, "-o", str(out)]
        if source == "flag":
            with pytest.raises(SystemExit) as ei:
                main(argv + ["--" + key.replace("_", "-"), " , "])
            assert ei.value.code == 1
        else:
            cfgfile = tmp_path / "cfg.txt"
            cfgfile.write_text(f"{key}=\n")
            assert main(argv + ["--config", str(cfgfile)]) == 2
            assert key in capsys.readouterr().err
        assert not out.exists()

    def test_criterion_report_all_diverged_is_three(self, tmp_path, capsys):
        # p = 0.01 on K4: every BP run saturates
        out = tmp_path / "criterion.csv"
        code = main(["criterion-report", "-n", "4", "--model", "cycle-code",
                     "--values", "0.01", "--trials", "3", "-o", str(out)])
        assert code == 3
        assert "no trial reached" in capsys.readouterr().err
        _, _, rows = read_summary(out)
        assert rows[0][2] == "0"


class TestGenGraph:
    def test_deterministic_and_metadata(self, tmp_path, capsys):
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        assert main(["gen-graph", "-n", "8", "-d", "3", "--seed", "5",
                     "-o", str(out1)]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        doc = json.loads(line)
        assert doc["n"] == 8 and doc["d"] == 3
        assert doc["command"] == "gen-graph"
        assert doc["master_seed"] == 5
        assert main(["gen-graph", "-n", "8", "-d", "3", "--seed", "5",
                     "-o", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()
        g = read_graph(out1)
        assert g.n == 8 and g.d == 3

    def test_config_file_and_flag_override(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("# comment\nn=10\nd=3\nout={}\n".format(
            tmp_path / "from-config.txt"))
        assert main(["gen-graph", "-n", "6", "--config",
                     str(cfgfile)]) == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        # flag beats file; unset values come from the file
        assert doc["n"] == 6
        assert doc["config"]["n"] == 6
        assert doc["config"]["out"].endswith("from-config.txt")
        assert (tmp_path / "from-config.txt").exists()


class TestVerifyIdentity:
    def test_summary_and_reports(self, tmp_path, capsys):
        out_dir = tmp_path / "verify"
        code = main(["verify-identity", "-n", "6", "-d", "3",
                     "--trials", "3", "--seed", "1", "-p", "0.45",
                     "--save-messages", "--out-dir", str(out_dir)])
        assert code == 0
        meta, header, rows = read_summary(out_dir / "summary.csv")
        assert meta["command"] == "verify-identity"
        assert meta["format_version"] == "1"
        assert int(meta["excluded_not_converged"]) == 0
        config = json.loads(meta["config"])
        assert config["n"] == 6 and config["trials"] == 3
        assert header[0] == "trial"
        assert len(rows) == 3
        icol = header.index("identity_residual")
        for row in rows:
            assert int(row[1]) == 1
            assert float(row[icol]) <= 1e-8
        for t in range(3):
            with open(out_dir / "reports" / f"trial_{t:04d}.json") as fh:
                doc = json.load(fh)
            assert doc["format_version"] == 1
            assert doc["params"]["trial"] == t
            assert doc["converged"] is True
            assert doc["identity_residual"] <= 1e-8
            assert (out_dir / "reports" / f"messages_{t:04d}.csv").exists()

    def test_over_cap_trials_are_not_divergence(self, tmp_path, capsys):
        # both trials converge, but K_10's elimination width is over the
        # budget of the exact sums: they are counted apart from the
        # diverged ones, and the run is ok
        graph_file = tmp_path / "k10.txt"
        write_graph(CheckGraph.from_edges(
            10, itertools.combinations(range(10), 2)), graph_file)
        out_dir = tmp_path / "v"
        code = main(["verify-identity", "--graph", str(graph_file),
                     "--node-cap", "3", "--trials", "2",
                     "--out-dir", str(out_dir)])
        assert code == 0
        meta, header, rows = read_summary(out_dir / "summary.csv")
        assert int(meta["excluded_not_converged"]) == 0
        assert int(meta["excluded_over_cap"]) == 2
        assert [row[1] for row in rows] == ["1", "1"]
        assert [row[4] for row in rows] == ["", ""]     # exact_log_z
        assert "over_cap=2" in capsys.readouterr().out

    def test_reruns_reproduce_scalars(self, tmp_path):
        args = ["verify-identity", "-n", "6", "--trials", "2",
                "--seed", "7", "--model", "high-temperature"]
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--out-dir", str(d1)]) == 0
        assert main(args + ["--out-dir", str(d2)]) == 0
        _, _, rows1 = read_summary(d1 / "summary.csv")
        _, _, rows2 = read_summary(d2 / "summary.csv")
        assert rows1 == rows2
        j1 = (d1 / "reports" / "trial_0000.json").read_text()
        j2 = (d2 / "reports" / "trial_0000.json").read_text()
        assert j1 == j2


class TestCorrectionDecay:
    def test_table_shape(self, tmp_path, capsys):
        out = tmp_path / "decay.csv"
        code = main(["correction-decay", "--n-list", "4,6", "-d", "3",
                     "--model", "cycle-code", "-p", "0.48",
                     "--trials", "3", "-o", str(out)])
        assert code == 0
        meta, header, rows = read_summary(out)
        assert header == ["model", "n", "trials", "converged", "excluded",
                          "mean_abs_f_corr", "stderr"]
        assert [r[1] for r in rows] == ["4", "6"]
        for row in rows:
            assert row[0] == "cycle-code"
            assert float(row[5]) > 0

    def test_beyond_the_old_edge_cap(self, tmp_path):
        # 24 edges: only the elimination width limits the scan now
        out = tmp_path / "decay.csv"
        code = main(["correction-decay", "--n-list", "16", "--trials", "1",
                     "-o", str(out)])
        assert code == 0
        _, _, rows = read_summary(out)
        assert [r[3] for r in rows] == ["1", "1"]    # converged per model

    def test_refused_size_keeps_the_others(self, tmp_path, capsys):
        # n = 120 is over the elimination budget: its trials are refused,
        # but the n = 6 row is still written
        out = tmp_path / "decay.csv"
        code = main(["correction-decay", "--n-list", "6,120", "--trials", "2",
                     "--model", "cycle-code", "-o", str(out)])
        assert code == 0
        meta, header, rows = read_summary(out)
        assert header == ["model", "n", "trials", "converged", "excluded",
                          "mean_abs_f_corr", "stderr"]
        assert rows[0][:5] == ["cycle-code", "6", "2", "2", "0"]
        assert float(rows[0][5]) > 0
        assert rows[1] == ["cycle-code", "120", "2", "2", "2", "", ""]
        assert json.loads(meta["excluded_over_cap"]) == {"cycle-code 120": 2}
        refusals = [line for line in capsys.readouterr().out.splitlines()
                    if " refused " in line]
        assert len(refusals) == 1
        assert refusals[0].startswith("model=cycle-code n=120 refused 2 of 2 "
                                      "trials: elimination would build")

    def test_both_models(self, tmp_path):
        out = tmp_path / "decay.csv"
        code = main(["correction-decay", "--n-list", "4", "--trials", "2",
                     "--model", "both", "-o", str(out)])
        assert code == 0
        _, _, rows = read_summary(out)
        assert sorted({r[0] for r in rows}) == ["cycle-code",
                                                "high-temperature"]


class TestExponentScan:
    def test_csv_and_stdout(self, tmp_path, capsys):
        out = tmp_path / "surface.csv"
        code = main(["exponent-scan", "-d", "3", "--h", "0.02",
                     "--step", "0.02", "-o", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "argmax=(0.0, 1.0)" in printed
        assert "all_negative=True" in printed
        meta, header, rows = read_summary(out)
        assert header == ["x_2", "x_3", "exponent"]
        assert meta["d"] == "3"
        config = json.loads(meta["config"])
        assert config["h"] == 0.02
        assert rows
        for row in rows[:5]:
            total = float(row[0]) + float(row[1])
            assert 0.5 - 1e-9 <= total <= 1.0 + 1e-9


class TestExpanderCheck:
    def test_verdict_table(self, tmp_path, capsys):
        out = tmp_path / "expander.csv"
        code = main(["expander-check", "-n", "8", "-d", "3",
                     "--samples", "4", "-o", str(out)])
        assert code == 0
        meta, header, rows = read_summary(out)
        assert header == ["sample", "mode", "is_expander", "witness_size"]
        assert len(rows) == 4
        assert all(r[1] == "exhaustive" for r in rows)
        frac = float(meta["pass_fraction"])
        assert 0.0 <= frac <= 1.0
        assert f"pass_fraction={frac:.4f}" in capsys.readouterr().out

    def test_zero_samples_is_precondition(self, tmp_path, capsys):
        out = tmp_path / "expander.csv"
        code = main(["expander-check", "-n", "8", "-d", "3",
                     "--samples", "0", "-o", str(out)])
        assert code == 2
        assert "samples must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_exhaustive_scan_over_budget_is_precondition(self, tmp_path,
                                                        capsys):
        out = tmp_path / "expander.csv"
        code = main(["expander-check", "-n", "25", "-d", "4",
                     "--exhaustive-limit", "25", "--samples", "1",
                     "-o", str(out)])
        assert code == 2
        assert "2^25 node sets" in capsys.readouterr().err
        assert not out.exists()


class TestCriterionReport:
    def test_sweep_rows(self, tmp_path, capsys):
        out = tmp_path / "criterion.csv"
        code = main(["criterion-report", "-n", "8", "-d", "3",
                     "--model", "high-temperature",
                     "--values", "0.01,0.2", "--trials", "2",
                     "--cap", "6", "-o", str(out)])
        assert code == 0
        meta, header, rows = read_summary(out)
        assert header[:2] == ["value", "trials"]
        assert [r[0] for r in rows] == ["0.01", "0.2"]
        small = float(rows[0][4])
        large = float(rows[1][4])
        assert small < large
        assert "threshold_value" in meta


class TestEntropy:
    def test_half_rate_values(self, tmp_path, capsys):
        out = tmp_path / "entropy.csv"
        code = main(["entropy", "-n", "6", "-d", "3", "-p", "0.5",
                     "--trials", "2", "--seed", "3", "--bits",
                     "-o", str(out)])
        assert code == 0
        meta, header, rows = read_summary(out)
        assert meta["unit"] == "bits"
        assert header == ["trial", "converged", "f_bethe", "f_exact",
                          "entropy_bethe", "entropy_exact"]
        from loopexp.graphs import sample_regular_graph
        for t, row in enumerate(rows):
            assert int(row[1]) == 1
            g = sample_regular_graph(6, 3, [3, t, 0])
            c = len(g.components())
            # p = 1/2: H(X|Y)/n is the cycle-space rate
            want_exact = (g.num_edges - g.n + c) / g.n
            want_bethe = (g.num_edges - g.n) / g.n
            assert float(row[4]) == pytest.approx(want_bethe, abs=1e-12)
            assert float(row[5]) == pytest.approx(want_exact, abs=1e-12)

    def test_nats_default_and_headline(self, tmp_path, capsys):
        out = tmp_path / "entropy.csv"
        code = main(["entropy", "-n", "6", "-p", "0.45", "--trials", "2",
                     "-o", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "H(X|Y)/n=" in printed
        assert "nats" in printed
        meta, _, _ = read_summary(out)
        assert meta["unit"] == "nats"


class TestSeedLayout:
    """Trial t of a sweep point draws its graph from [*key, t, 0] and its
    fields from [*key, t, 1]; these rebuild CLI rows through the API."""

    def test_correction_decay_row(self, tmp_path):
        out = tmp_path / "decay.csv"
        assert main(["correction-decay", "--n-list", "4,6", "--trials", "3",
                     "--model", "cycle-code", "-p", "0.45", "--seed", "9",
                     "-o", str(out)]) == 0
        _, _, rows = read_summary(out)
        vals = []
        for t in range(3):
            g = sample_regular_graph(6, 3, [9, 6, t, 0])
            spec = FactorSpec.cycle_code(sample_bsc(g, 0.45, [9, 6, t, 1]).h)
            msgs = solve_fixed_point(g, spec)
            assert msgs.converged
            z = scan_correction(g, ActivityTable(g, spec, msgs)).z_all
            vals.append(abs(math.log(z)) / 6)
        assert rows[1][:4] == ["cycle-code", "6", "3", "3"]
        assert float(rows[1][5]) == pytest.approx(np.mean(vals), rel=1e-12)

    def test_criterion_report_row(self, tmp_path):
        out = tmp_path / "criterion.csv"
        assert main(["criterion-report", "-n", "6", "--values", "0.02,0.1",
                     "--trials", "2", "--cap", "6", "--seed", "4",
                     "-o", str(out)]) == 0
        _, _, rows = read_summary(out)
        crits = []
        for t in range(2):
            g = sample_regular_graph(6, 3, [4, 1, t, 0])
            rng = np.random.default_rng([4, 1, t, 1])
            spec = FactorSpec.high_temperature(
                rng.uniform(-0.2, 0.2, g.num_edges), 0.1)
            msgs = solve_fixed_point(g, spec)
            catalog = enumerate_polymers(g, 6)
            acts = ActivityTable(g, spec, msgs).polymer_activities(catalog)
            crits.append(convergence_criterion(catalog, acts))
        assert rows[1][0] == "0.1"
        assert float(rows[1][4]) == pytest.approx(np.mean(crits), rel=1e-12)
        assert float(rows[1][5]) == pytest.approx(max(crits), rel=1e-12)

    def test_verify_identity_report_seeds(self, tmp_path):
        out_dir = tmp_path / "verify"
        assert main(["verify-identity", "-n", "6", "--trials", "3",
                     "--model", "high-temperature", "--seed", "5",
                     "--out-dir", str(out_dir)]) == 0
        for t in range(3):
            doc = json.loads(
                (out_dir / "reports" / f"trial_{t:04d}.json").read_text())
            params = doc["params"]
            assert params["graph_seed"] == [5, t, 0]
            assert params["channel_seed"] == [5, t, 1]
            g = sample_regular_graph(6, 3, params["graph_seed"])
            bound = params["field_bound"]
            rng = np.random.default_rng(params["channel_seed"])
            spec = FactorSpec.high_temperature(
                rng.uniform(-bound, bound, g.num_edges), params["J"])
            assert doc["exact_log_z"] == pytest.approx(
                exact_log_partition(g, spec), rel=1e-12)
