import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ttldelay import cli, hierarchy
from ttldelay.cli import _num, load_config, main, parse_counts, parse_sweep
from ttldelay.errors import ConfigError
from ttldelay.hierarchy import build_tree, delay_pencil
from ttldelay.metrics import hit_probability
from ttldelay.spec import with_delay_means

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SINGLE = """
tree:
  id: cache
  ttl: {kind: exponential, mean: 2.0}
  delay: {kind: exponential, mean: 1.0}
  arrival: {kind: exponential, mean: 1.0}
"""

TWO_LEVEL = """
tree:
  id: root
  ttl: {kind: exponential, mean: 4.0}
  delay: {kind: exponential, mean: 1.0}
  children:
    - id: leaf1
      ttl: {kind: exponential, mean: 2.0}
      delay: {kind: exponential, mean: 1.0}
      arrival: {kind: exponential, mean: 1.0}
    - id: leaf2
      ttl: {kind: exponential, mean: 2.0}
      delay: {kind: exponential, mean: 1.0}
      arrival: {kind: exponential, mean: 1.0}
"""

# Leaves of unequal TTL means are not exchangeable: no sibling run to lump.
ASYMMETRIC = """
tree:
  id: root
  ttl: {kind: exponential, mean: 4.0}
  delay: {kind: exponential, mean: 1.0}
  children:
    - id: leaf1
      ttl: {kind: exponential, mean: 2.0}
      delay: {kind: exponential, mean: 1.0}
      arrival: {kind: exponential, mean: 1.0}
    - id: leaf2
      ttl: {kind: exponential, mean: 8.0}
      delay: {kind: exponential, mean: 1.0}
      arrival: {kind: exponential, mean: 1.0}
"""


# An Erlang-2 root delay of mean 2 over exponential leaf delays of mean 0.5.
# A sweep would give them one common mean; a run without one keeps them.
UNEQUAL_DELAYS = TWO_LEVEL.replace(
    "delay: {kind: exponential, mean: 1.0}\n  children",
    "delay: {kind: erlang, phases: 2, mean: 2.0}\n  children",
).replace("delay: {kind: exponential, mean: 1.0}", "delay: {kind: exponential, mean: 0.5}")


@pytest.fixture
def single_cfg(tmp_path):
    path = tmp_path / "single.yaml"
    path.write_text(SINGLE)
    return str(path)


@pytest.fixture
def tree_cfg(tmp_path):
    path = tmp_path / "tree.yaml"
    path.write_text(TWO_LEVEL)
    return str(path)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def count_builds(monkeypatch):
    """Record, in order, each tree composition, named by the function that
    asked for it (``build_tree`` or ``delay_pencil``), with the tree it
    composed."""
    calls = []
    compose = hierarchy._compose

    def counted(spec, lump_per_level, delay_unit):
        calls.append(("build_tree" if delay_unit == 1.0 else "delay_pencil", spec))
        return compose(spec, lump_per_level, delay_unit)

    monkeypatch.setattr(hierarchy, "_compose", counted)
    return calls


def per_point_csv(config, values, lump):
    """The ``analyze`` CSV with the tree built and solved anew at each delayed
    point; the zero-delay point and ``eta``'s reference are the exact limit of
    the delay pencil, and every row's raw state count is the tree's."""
    spec, ref = load_config(config)
    total = spec.total_request_rate()
    zero = delay_pencil(with_delay_means(spec, ref), lump_per_level=lump == "on").limit()
    p_zero = hit_probability(zero, total)
    rows = ["sweep_value,p_hit_exact,eta,states_original,states_lumped"]
    for value in values:
        swept = with_delay_means(spec, value * ref)
        system = build_tree(swept, lump_per_level=lump == "on") if value else zero
        p = hit_probability(system, total)
        rows.append(f"{_num(value)},{_num(p)},{_num(1.0 - p / p_zero)},"
                    f"{spec.state_count()},{system.size}")
    return "\n".join(rows) + "\n"


class TestAnalyze:
    def test_single_cache_sweep_values(self, single_cfg, tmp_path):
        out = str(tmp_path / "out.csv")
        assert main(["analyze", "--config", single_cfg,
                     "--sweep", "tau_delta=0:1:5", "--out", out]) == 0
        rows = read_csv(out)
        assert len(rows) == 6
        by_value = {float(r["sweep_value"]): float(r["p_hit_exact"]) for r in rows}
        assert by_value[2.0] == pytest.approx(0.4, abs=1e-6)
        assert by_value[0.0] == pytest.approx(2.0 / 3.0, abs=1e-5)

    def test_empty_sweep_single_row(self, single_cfg, tmp_path):
        out = str(tmp_path / "out.csv")
        assert main(["analyze", "--config", single_cfg,
                     "--sweep", "tau_delta=1:1:1", "--out", out]) == 0
        assert len(read_csv(out)) == 1

    def test_lump_flag_changes_state_counts(self, tree_cfg, tmp_path):
        out_on = str(tmp_path / "on.csv")
        out_off = str(tmp_path / "off.csv")
        main(["analyze", "--config", tree_cfg, "--sweep", "tau_delta=1:1:1",
              "--lump", "on", "--out", out_on])
        main(["analyze", "--config", tree_cfg, "--sweep", "tau_delta=1:1:1",
              "--lump", "off", "--out", out_off])
        on, off = read_csv(out_on)[0], read_csv(out_off)[0]
        assert int(on["states_lumped"]) < int(off["states_lumped"])
        assert float(on["p_hit_exact"]) == pytest.approx(
            float(off["p_hit_exact"]), abs=1e-9
        )

    @pytest.mark.parametrize("lump", ["on", "off"])
    def test_zero_delay_point_reuses_the_zero_delay_solve(
        self, tree_cfg, tmp_path, monkeypatch, lump
    ):
        calls = count_builds(monkeypatch)
        out = tmp_path / "out.csv"
        assert main(["analyze", "--config", tree_cfg, "--sweep", "tau_delta=0:1:2",
                     "--lump", lump, "--out", str(out)]) == 0
        # One pencil at the reference mean gives the points at 1 and 2 and, as
        # its limit, the zero-delay point behind eta.  No build_tree, so no
        # 1e6-rate zero-delay emulation is composed.
        spec, ref = load_config(tree_cfg)
        assert calls == [("delay_pencil", with_delay_means(spec, ref))]
        # Every delayed point solved on its own, as the sweep did before the
        # pencil.
        expected = per_point_csv(tree_cfg, (0, 1, 2), lump)
        assert expected.splitlines()[1].split(",")[2] == "0"
        assert out.read_text(encoding="utf-8") == expected

    def test_unswept_run_builds_the_configured_delays(self, tmp_path, monkeypatch):
        path = tmp_path / "unequal.yaml"
        path.write_text(UNEQUAL_DELAYS)
        calls = count_builds(monkeypatch)
        out = tmp_path / "out.csv"
        assert main(["analyze", "--config", str(path), "--out", str(out)]) == 0
        spec, _ = load_config(path)
        # One pencil of the delays as configured, and no build_tree.
        assert calls == [("delay_pencil", spec)]
        pencil = delay_pencil(spec, lump_per_level=False)
        p = hit_probability(pencil.at(1.0), 2.0)
        row = read_csv(out)[0]
        assert row["p_hit_exact"] == _num(p)
        assert row["eta"] == _num(1.0 - p / hit_probability(pencil.limit(), 2.0))

    def test_sweep_rescales_unequal_delays(self, tmp_path):
        path = tmp_path / "unequal.yaml"
        path.write_text("reference_interarrival: 0.5\n" + UNEQUAL_DELAYS)
        out = tmp_path / "out.csv"
        assert main(["analyze", "--config", str(path), "--sweep", "tau_delta=0:1.5:3",
                     "--lump", "off", "--out", str(out)]) == 0
        expected = per_point_csv(str(path), (0, 1.5, 3), "off")
        assert out.read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("lump", ["on", "off"])
    def test_three_level_sweep_matches_per_point_builds(self, tmp_path, lump):
        config = str(CONFIGS / "binary_three_level_mme2.yaml")
        out = tmp_path / "out.csv"
        assert main(["analyze", "--config", config, "--sweep", "tau_delta=0:0.5:3",
                     "--lump", lump, "--out", str(out)]) == 0
        expected = per_point_csv(config, [0.5 * k for k in range(7)], lump)
        assert out.read_text(encoding="utf-8") == expected
        assert {row["states_original"] for row in read_csv(out)} == {"16384"}

    def test_nine_significant_digits(self, single_cfg, tmp_path):
        out = str(tmp_path / "out.csv")
        main(["analyze", "--config", single_cfg, "--sweep", "tau_delta=3:1:3",
              "--out", out])
        row = read_csv(out)[0]
        assert row["p_hit_exact"] == "0.333333333"


class TestSimulate:
    def test_fixed_seed_reproducible(self, single_cfg, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = str(tmp_path / name)
            main(["simulate", "--config", single_cfg, "--sweep", "tau_delta=1:1:1",
                  "--requests", "20000", "--seed", "9", "--out", out])
            outs.append(read_csv(out))
        assert outs[0] == outs[1]

    def test_replications_shrink_interval(self, single_cfg, tmp_path):
        widths = []
        for reps in ("1", "4"):
            out = str(tmp_path / f"r{reps}.csv")
            main(["simulate", "--config", single_cfg, "--sweep", "tau_delta=1:1:1",
                  "--requests", "20000", "--seed", "4", "--replications", reps,
                  "--out", out])
            widths.append(float(read_csv(out)[0]["ci_half_width"]))
        assert widths[1] < widths[0]

    def test_negative_seed_rejected(self, single_cfg, tmp_path, capsys):
        out = tmp_path / "out.csv"
        rc = main(["simulate", "--config", single_cfg, "--requests", "100",
                   "--seed", "-1", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc != 0 and err.startswith("E_CONFIG:") and "seed" in err
        assert not out.exists()

    def test_generated_seed_recorded(self, single_cfg, tmp_path):
        out = str(tmp_path / "out.csv")
        main(["simulate", "--config", single_cfg, "--sweep", "tau_delta=1:1:1",
              "--requests", "5000", "--out", out])
        assert read_csv(out)[0]["seed"].isdigit()


class TestApprox:
    def test_single_cache_equals_exact(self, single_cfg, tmp_path):
        a_out = str(tmp_path / "a.csv")
        e_out = str(tmp_path / "e.csv")
        main(["approx", "--config", single_cfg, "--sweep", "tau_delta=0:1:3",
              "--out", a_out])
        main(["analyze", "--config", single_cfg, "--sweep", "tau_delta=0:1:3",
              "--out", e_out])
        for approx_row, exact_row in zip(read_csv(a_out), read_csv(e_out)):
            assert float(approx_row["p_hit_approx"]) == pytest.approx(
                float(exact_row["p_hit_exact"]), abs=1e-5
            )

    def test_strategy_column(self, tree_cfg, tmp_path):
        out = str(tmp_path / "out.csv")
        main(["approx", "--config", tree_cfg, "--sweep", "tau_delta=1:1:1",
              "--strategy", "poisson", "--out", out])
        assert read_csv(out)[0]["strategy"] == "poisson"


class TestLumpStats:
    def test_reference_count_table(self, tree_cfg, tmp_path):
        out = str(tmp_path / "out.csv")
        main(["lump-stats", "--config", tree_cfg, "--n", "1:1:3", "--out", out])
        rows = read_csv(out)
        table = {int(r["n"]): r for r in rows}
        assert int(table[1]["raw_states"]) == 27
        assert int(table[1]["lump_plus_states"]) == 18
        assert int(table[2]["raw_states"]) == 729
        assert int(table[2]["lumped_states"]) == 378
        assert int(table[2]["lump_plus_states"]) == 171
        assert int(table[3]["lumped_states"]) == 3654

    def test_unequal_siblings_are_not_lumped(self, tmp_path):
        cfg = tmp_path / "asymmetric.yaml"
        cfg.write_text(ASYMMETRIC)
        out = str(tmp_path / "out.csv")
        main(["lump-stats", "--config", str(cfg), "--n", "1:1:2", "--out", out])
        table = {int(r["n"]): r for r in read_csv(out)}
        assert int(table[1]["raw_states"]) == 27
        assert int(table[1]["lump_plus_states"]) == 27
        assert int(table[2]["lump_plus_states"]) == 378

    def test_fractional_counts_rejected(self, tree_cfg, capsys):
        assert main(["lump-stats", "--config", tree_cfg, "--n", "1:0.5:3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG:") and "integers" in err


class TestFitTrace:
    def test_report_and_density(self, tmp_path, rng):
        trace = tmp_path / "trace.txt"
        np.savetxt(trace, np.cumsum(rng.exponential(0.5, 1500)), fmt="%.6f")
        report = tmp_path / "fit.yaml"
        dens = tmp_path / "dens.csv"
        assert main(["fit-trace", "--trace", str(trace), "--phases", "1",
                     "--out", str(report), "--density-out", str(dens)]) == 0
        import yaml

        doc = yaml.safe_load(report.read_text())
        assert doc["phases"] == 1
        assert doc["rates"][0] == pytest.approx(2.0, rel=0.15)
        assert abs(doc["fitted_mean"] - doc["empirical_mean"]) <= 0.05 * doc["empirical_mean"]
        assert doc["converged"] is True
        rows = read_csv(str(dens))
        assert set(rows[0]) == {"bin_center", "empirical_density", "fitted_density"}

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_timestamp_rejected(self, tmp_path, capsys, bad):
        trace = tmp_path / "trace.txt"
        trace.write_text(f"0.0\n0.5\n{bad}\n1.5\n2.0\n")
        assert main(["fit-trace", "--trace", str(trace), "--phases", "1"]) == 1
        assert capsys.readouterr().err == "E_VALUE: timestamps must be finite\n"

    def test_empty_trace_is_one_error_line(self, tmp_path):
        # A fresh process, so NumPy's warning would reach stderr unrecorded.
        trace = tmp_path / "trace.txt"
        trace.write_text("")
        proc = subprocess.run(
            [sys.executable, "-m", "ttldelay.cli", "fit-trace", "--trace", str(trace)],
            env={**os.environ, "PYTHONPATH": str(CONFIGS.parent / "src")},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr == "E_VALUE: need at least two timestamps\n"

    def test_iteration_limit_warns(self, tmp_path, rng, monkeypatch, caplog):
        import yaml

        from ttldelay import trace_pipeline

        monkeypatch.setattr(trace_pipeline, "MAX_ITERS", 3)
        trace = tmp_path / "trace.txt"
        np.savetxt(trace, np.cumsum(rng.gamma(2.0, 0.5, 400)), fmt="%.6f")
        report = tmp_path / "fit.yaml"
        with caplog.at_level("WARNING", logger="ttldelay.cli"):
            assert main(["fit-trace", "--trace", str(trace), "--phases", "2",
                         "--out", str(report)]) == 0
        doc = yaml.safe_load(report.read_text())
        assert list(doc) == [
            "phases", "rates", "continue_probs", "log_likelihood",
            "log_likelihood_trace", "aic", "bic", "sample_count_before",
            "sample_count_after", "empirical_mean", "fitted_mean",
            "restarts_used", "converged",
        ]
        assert doc["converged"] is False
        assert len(doc["log_likelihood_trace"]) == 3
        assert "iteration limit" in caplog.text

    @staticmethod
    def _trace(tmp_path):
        trace = tmp_path / "trace.txt"
        gaps = np.random.default_rng(3).gamma(2.0, 0.5, 200)
        np.savetxt(trace, np.cumsum(gaps), fmt="%.6f")
        return str(trace)

    def test_zero_phases_rejected(self, tmp_path, capsys):
        # --phases 0 used to be read as "not given" and ran BIC selection.
        out = tmp_path / "fit.yaml"
        argv = ["fit-trace", "--trace", self._trace(tmp_path), "--phases", "0"]
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == "E_FIT: need at least one phase\n"
        assert not out.exists()

    @staticmethod
    def _forbid_fitting(monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("fitted before the options were checked")

        monkeypatch.setattr(cli, "fit_ph_em", fail)
        monkeypatch.setattr(cli, "select_phases", fail)

    @pytest.mark.parametrize("bad", ["3", "a:b", "0:2", "3:2", "1:2:3", "1.5:3"])
    def test_bad_phase_range_rejected_before_fitting(
        self, tmp_path, capsys, monkeypatch, bad
    ):
        self._forbid_fitting(monkeypatch)
        out = tmp_path / "fit.yaml"
        assert main(["fit-trace", "--trace", self._trace(tmp_path),
                     "--phase-range", bad, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG:") and "lo:hi" in err
        assert not out.exists()

    @pytest.mark.parametrize("bins", ["0", "-3"])
    def test_bad_bins_rejected_before_fitting(
        self, tmp_path, capsys, monkeypatch, bins
    ):
        self._forbid_fitting(monkeypatch)
        out, dens = tmp_path / "fit.yaml", tmp_path / "dens.csv"
        assert main(["fit-trace", "--trace", self._trace(tmp_path), "--phases", "1",
                     "--bins", bins, "--out", str(out),
                     "--density-out", str(dens)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG:") and "--bins" in err
        assert not out.exists() and not dens.exists()


class TestBound:
    def test_bound_output(self, capsys):
        assert main(["bound", "--tau-t", "1"]) == 0
        out = capsys.readouterr().out
        assert "tau_delta_plus = 1" in out

    def test_bound_value(self, capsys):
        main(["bound", "--tau-t", "2"])
        out = capsys.readouterr().out
        assert "0.569336" in out

    def test_short_ttl_bound_is_positive(self, capsys):
        # Branch 0 at h = -exp(-100) / 0.01: the bound is about 2.688e41.
        assert main(["bound", "--tau-t", "0.01"]) == 0
        assert capsys.readouterr().out == "tau_delta_plus = 2.68811714e+41\n"

    @pytest.mark.parametrize("tau_t, message", [
        ("0.001", "overflows"),
        ("0.00134", "overflows"),
        ("nan", "finite and positive"),
        ("inf", "finite and positive"),
        ("0", "finite and positive"),
    ])
    def test_bound_rejects_bad_tau_t(self, capsys, tau_t, message):
        assert main(["bound", "--tau-t", tau_t]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("E_VALUE:") and message in captured.err

    def test_search_output_pinned(self, capsys):
        assert main(["bound", "--tau-t", "2", "--search"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == [
            "delta_star = 0.243362879",
            "p_hit_max = 0.631435314",
            "kappa = 0.966482123",
        ]


class TestErrors:
    def test_missing_config_file(self, capsys):
        assert main(["analyze", "--config", "/nonexistent.yaml"]) == 1
        assert capsys.readouterr().err.startswith("E_CONFIG:")

    def test_bad_sweep_variable(self, single_cfg, capsys):
        assert main(["analyze", "--config", single_cfg,
                     "--sweep", "tau_t=0:1:2"]) == 1
        assert capsys.readouterr().err.startswith("E_CONFIG:")

    def test_bad_yaml_reports_location(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("tree: [unclosed\n  id: x\n")
        assert main(["analyze", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG:") and "line" in err

    def test_malformed_yaml_raises_config_error_at_line_and_column(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("tree:\n  id: x\n   ttl: 3\n")
        with pytest.raises(ConfigError, match=r"bad\.yaml at line 3, column 7: "):
            load_config(path)

    def test_deterministic_rejected_by_analyze(self, tmp_path, capsys):
        path = tmp_path / "det.yaml"
        path.write_text(
            "tree:\n  id: c\n  ttl: {kind: exponential, mean: 1.0}\n"
            "  delay: {kind: deterministic, value: 1.0}\n"
            "  arrival: {kind: exponential, mean: 1.0}\n"
        )
        assert main(["analyze", "--config", str(path)]) == 1
        assert "E_CONFIG" in capsys.readouterr().err

    def test_singular_general_ph_rejected(self, tmp_path, capsys):
        path = tmp_path / "trap.yaml"
        path.write_text(
            "tree:\n  id: c\n  ttl: {kind: exponential, mean: 1.0}\n"
            "  delay: {kind: general-ph, initial: [0.5, 0.5],\n"
            "          subgenerator: [[-1.0, 0.0], [0.0, 0.0]]}\n"
            "  arrival: {kind: exponential, mean: 1.0}\n"
        )
        assert main(["simulate", "--config", str(path), "--requests", "100"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG:") and "singular" in err

    @pytest.mark.parametrize("text, where", [
        (SINGLE.replace("mean: 2.0", "mean: 0"), "tree/cache.ttl"),
        (SINGLE.replace("exponential, mean: 1.0}\n  arrival",
                        "erlang, phases: 2, mean: 0}\n  arrival"), "tree/cache.delay"),
        (SINGLE.replace("  ttl: {kind: exponential, mean: 2.0}\n", ""), "tree/cache.ttl"),
        (SINGLE.replace("  delay: {kind: exponential, mean: 1.0}\n", ""),
         "tree/cache.delay"),
        (SINGLE.replace("  arrival", "  children: 5\n  arrival"), "tree/cache"),
    ], ids=["zero_mean", "zero_erlang_mean", "no_ttl", "no_delay", "children_not_list"])
    def test_malformed_node_is_one_config_error(self, tmp_path, capsys, text, where):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        assert main(["analyze", "--config", str(path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"E_CONFIG: {where}")

    def test_leaf_without_arrival(self, tmp_path, capsys):
        path = tmp_path / "no_arrival.yaml"
        path.write_text(
            "tree:\n  id: c\n  ttl: {kind: exponential, mean: 1.0}\n"
            "  delay: {kind: exponential, mean: 1.0}\n"
        )
        assert main(["analyze", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(
            "E_CONFIG: leaf cache 'c' has no arrival process"
        )

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    @pytest.mark.parametrize("ref", ["0", "-1"])
    def test_nonpositive_reference_interarrival(self, tmp_path, capsys, command, ref):
        path = tmp_path / "ref.yaml"
        path.write_text(f"reference_interarrival: {ref}\n" + SINGLE)
        assert main([command, "--config", str(path), "--sweep", "tau_delta=0:1:1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG:") and "reference_interarrival" in err

    @pytest.mark.parametrize("command", ["approx", "analyze"])
    def test_delay_rate_overflow_rejected(self, tree_cfg, capsys, command):
        # A delay mean of 1e-310 makes the delay rate overflow to inf.
        assert main([command, "--config", tree_cfg,
                     "--sweep", "tau_delta=1e-310:1:1e-310"]) == 1
        assert capsys.readouterr().err.startswith(
            "E_VALUE: rate must be finite and positive, got inf"
        )


class TestSweepParsing:
    def test_inclusive_endpoints(self):
        assert parse_sweep("tau_delta=0:1:3") == [0.0, 1.0, 2.0, 3.0]

    def test_fractional_steps(self):
        values = parse_sweep("tau_delta=0:0.5:2")
        np.testing.assert_allclose(values, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_invalid_ranges(self):
        for text in ("tau_delta=0:0:1", "tau_delta=2:1:0", "tau_delta=0:1",
                     "other=0:1:2", "tau_delta=-1:1:2"):
            with pytest.raises(ConfigError):
                parse_sweep(text)

    def test_count_ranges(self):
        assert list(parse_counts("2:3:11")) == [2, 5, 8, 11]
        assert list(parse_counts("4:1:4")) == [4]
        for text in ("0:1:3", "1:0:3", "3:1:1", "1:1", "1:1.5:4"):
            with pytest.raises(ConfigError):
                parse_counts(text)


def test_numeric_settings_env_override(monkeypatch):
    from ttldelay.settings import state_cap

    monkeypatch.setenv("TTLDELAY_NUMERICS", "state_cap=123")
    assert state_cap() == 123


@pytest.mark.parametrize("override, key", [
    ("cond_limit=nan", "cond_limit"),
    ("residual_tol=inf", "residual_tol"),
    ("row_sum_tol=-1e-10", "row_sum_tol"),
    ("state_cap=-5", "state_cap"),
    ("state_cap=1e5", "state_cap"),
    ("state_cap=0", "state_cap"),
    ("zero_delay_scale=0", "zero_delay_scale"),
    ("zero_delay_scale=", "zero_delay_scale"),
    ("cond_limit=big", "cond_limit"),
    ("state_cap=10,tolerance=1", "tolerance"),
    ("row_sum_tol=1e-10", "row_sum_tol"),
    ("zero_delay_scale=1e6", "zero_delay_scale"),
    ("residual_tol=1e-8", "residual_tol"),
    ("cond_limit=1e12", "cond_limit"),
])
def test_invalid_numeric_settings_fail_with_e_config(monkeypatch, capsys, override, key):
    monkeypatch.setenv("TTLDELAY_NUMERICS", override)
    assert main(["analyze", "--config", str(CONFIGS / "binary_two_level_mmm.yaml")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("E_CONFIG: TTLDELAY_NUMERICS") and key in err


def test_invalid_numeric_setting_fails_where_nothing_is_composed(monkeypatch, capsys):
    # A single cache makes no Kronecker sum and no lumped level.
    monkeypatch.setenv("TTLDELAY_NUMERICS", "residual_tol=1e-8")
    assert main(["analyze", "--config", str(CONFIGS / "single_cache_mmm.yaml")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("E_CONFIG: TTLDELAY_NUMERICS") and "residual_tol" in err


@pytest.mark.parametrize("phases", ["2.5", "true", "'2'", "0"])
def test_non_integral_erlang_phases_rejected(tmp_path, capsys, phases):
    path = tmp_path / "erlang.yaml"
    path.write_text(SINGLE.replace(
        "delay: {kind: exponential, mean: 1.0}",
        f"delay: {{kind: erlang, phases: {phases}, mean: 1.0}}",
    ))
    assert main(["analyze", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("E_CONFIG: tree/cache.delay: bad erlang parameters")
