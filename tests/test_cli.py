import csv
import io
import os

import numpy as np
import pytest

from ttldelay.cli import main, parse_counts, parse_sweep
from ttldelay.errors import ConfigError

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

    def test_iteration_limit_warns(self, tmp_path, rng, monkeypatch, caplog):
        import functools

        import yaml

        from ttldelay import cli
        from ttldelay.trace_pipeline import fit_ph_em

        monkeypatch.setattr(cli, "fit_ph_em", functools.partial(fit_ph_em, max_iters=3))
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


class TestBound:
    def test_bound_output(self, capsys):
        assert main(["bound", "--tau-t", "1"]) == 0
        out = capsys.readouterr().out
        assert "tau_delta_plus = 1" in out

    def test_bound_value(self, capsys):
        main(["bound", "--tau-t", "2"])
        out = capsys.readouterr().out
        assert "0.569336" in out


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


class TestSweepParsing:
    def test_inclusive_endpoints(self):
        assert parse_sweep("tau_delta=0:1:3") == [0.0, 1.0, 2.0, 3.0]

    def test_fractional_steps(self):
        values = parse_sweep("tau_delta=0:0.5:2")
        np.testing.assert_allclose(values, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_invalid_ranges(self):
        for text in ("tau_delta=0:0:1", "tau_delta=2:1:0", "tau_delta=0:1",
                     "other=0:1:2"):
            with pytest.raises(ConfigError):
                parse_sweep(text)

    def test_count_ranges(self):
        assert list(parse_counts("2:3:11")) == [2, 5, 8, 11]
        assert list(parse_counts("4:1:4")) == [4]
        for text in ("0:1:3", "1:0:3", "3:1:1", "1:1", "1:1.5:4"):
            with pytest.raises(ConfigError):
                parse_counts(text)


def test_numeric_settings_env_override(monkeypatch):
    from ttldelay.settings import default_settings

    monkeypatch.setenv("TTLDELAY_NUMERICS", "state_cap=123, residual_tol=1e-6")
    s = default_settings()
    assert s.state_cap == 123
    assert s.residual_tol == 1e-6
