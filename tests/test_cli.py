import csv
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ttldelay import cli, hierarchy
from ttldelay.approximation import hierarchy_approx
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


COXIAN = "{kind: coxian, rates: [3.0, 0.75], continue_probs: [0.4]}"


def flat(kinds, b_arrival=COXIAN):
    """A root over one leaf per letter of ``kinds``: an A leaf is exponential
    throughout, a B leaf has an Erlang-2 delay and the arrival ``b_arrival``."""
    laws = {"A": ("{kind: exponential, mean: 1.0}", "{kind: exponential, mean: 1.0}"),
            "B": ("{kind: erlang, phases: 2, mean: 1.0}", b_arrival)}
    lines = ["tree:", "  id: root", "  ttl: {kind: exponential, mean: 4.0}",
             "  delay: {kind: exponential, mean: 1.0}", "  children:"]
    for i, kind in enumerate(kinds):
        delay, arrival = laws[kind]
        lines += [f"    - id: {kind.lower()}{i}", "      ttl: {kind: exponential, mean: 2.0}",
                  f"      delay: {delay}", f"      arrival: {arrival}"]
    return "\n".join(lines) + "\n"


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


# A chain root -> mid -> leaf under a Coxian request stream: each inner cache
# has one child, so under the renewal strategy its input is the child's fitted
# miss law (Erlang-3, Erlang mixture or PH(2)) scaled to the input rate.
CHAIN = """
reference_interarrival: 1.0
tree:
  id: root
  ttl: {kind: exponential, mean: 6.0}
  delay: {kind: erlang, phases: 2, mean: 1.0}
  children:
    - id: mid
      ttl: {kind: exponential, mean: 4.0}
      delay: {kind: exponential, mean: 1.0}
      children:
        - id: leaf
          ttl: {kind: exponential, mean: 2.0}
          delay: {kind: erlang, phases: 3, mean: 0.5}
          arrival: {kind: coxian, rates: [3.0, 0.75], continue_probs: [0.4]}
"""

# sha256 of the `approx` CSV bytes on configs/ and CHAIN: those of configs/
# as written when every sweep point was its own `hierarchy_approx` call,
# CHAIN's when each point's lone-child law was scaled by its kind's
# `scaled_to_mean`.
APPROX_SWEEP = "tau_delta=0:0.0625:4.9375"
APPROX_DIGESTS = {
    ("binary_three_level_mme2", "renewal", None):
        "106aa07988d16adcbec63992bc8cdd150582a154623e2c805448b1358b3a3275",
    ("binary_three_level_mme2", "renewal", APPROX_SWEEP):
        "86fb64269585507f3f81a19264bcddffa69a8b0f830c17d166ecf50ec83fdbf1",
    ("binary_three_level_mme2", "poisson", None):
        "edbc8c34b2933887bbc34efacee9ee177684ff7be103409dfd2d8911f3d25d19",
    ("binary_three_level_mme2", "poisson", APPROX_SWEEP):
        "2697fcd3941ef46400ed85363b0ad5f2a45a4416c5ce386ed9a9ff754d913559",
    ("binary_two_level_mmm", "renewal", None):
        "920bb5fcd7b0c3cc1f2889392f2b34bdfa64afd758d9881aeea553fe0d8fa2a2",
    ("binary_two_level_mmm", "renewal", APPROX_SWEEP):
        "82edf8029c264b56306d16ce19bbc27940a7554ea92e6543deff1e9312acc9ac",
    ("binary_two_level_mmm", "poisson", None):
        "eadc35444ea4042f758bf56549bbebeb6ec8d7abff371d52b93fa2dbe6b2687e",
    ("binary_two_level_mmm", "poisson", APPROX_SWEEP):
        "c940fdc6138e154e89513269e22295f3a38a3a2c7671007f1c3285b11dca37cd",
    ("single_cache_mmm", "renewal", None):
        "de5734520af349b05948713d545f8a9fa2988ed159d4a82102f32e8fa184fb0b",
    ("single_cache_mmm", "renewal", APPROX_SWEEP):
        "8bae646ce9f324baa59f557e5d301c268fd47f3de255452727ec0b12e6bef5a6",
    ("single_cache_mmm", "poisson", None):
        "106e9157b914994c0b34ef2161b99534337c6eefee91ebed85ac404d4f39650f",
    ("single_cache_mmm", "poisson", APPROX_SWEEP):
        "5a8aa29b350404410a3a1174b1866ecc70e2d702fd2d729fddc146ce5ac80424",
    ("chain", "renewal", None):
        "29df4d7cfa7fd367eb8f33b72433c46bc176b9a2a559ba413a803cabd060c5ca",
    ("chain", "renewal", APPROX_SWEEP):
        "c78fa88e0386d1dbdcffc3a7808ad983f2313c06e3150b51fb114c0baa527cfe",
    ("chain", "poisson", None):
        "35f7844d98fff34c09c0ea2ea131b2cfee32ebef406b00fde49726aadce0df4a",
    ("chain", "poisson", APPROX_SWEEP):
        "05aa044061e5eccaeea96d472c08203d9e6b795b17d95b2519f35b08b1bc846a",
}


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


    def test_sweep_is_one_hierarchy_approx_call(self, tree_cfg, tmp_path, monkeypatch):
        calls = []
        approx = cli.hierarchy_approx

        def counted(*args, **kwargs):
            calls.append(kwargs["delay_means"])
            return approx(*args, **kwargs)

        monkeypatch.setattr(cli, "hierarchy_approx", counted)
        out = tmp_path / "out.csv"
        assert main(["approx", "--config", tree_cfg, "--sweep", "tau_delta=0:1:2",
                     "--out", str(out)]) == 0
        assert calls == [[0.0, 1.0, 2.0]]
        # Each row is the point's own call on the rescaled tree.
        spec, ref = load_config(tree_cfg)
        for row, value in zip(read_csv(out), (0.0, 1.0, 2.0), strict=True):
            alone = approx(with_delay_means(spec, value * ref))
            assert row["p_hit_approx"] == _num(alone.p_hit_sys)
            assert row["fallbacks"] == ";".join(alone.fallbacks)

    def test_poisson_pool_of_a_slow_miss_stream(self, tmp_path):
        # A leaf of TTL mean 1e13 misses at a rate near 1e-13: its parent's
        # Poisson input is a valid law in any time unit.
        path, out = tmp_path / "slow.yaml", tmp_path / "out.csv"
        first = TWO_LEVEL.index("    - id: leaf2")
        path.write_text(TWO_LEVEL[:first].replace("mean: 2.0", "mean: 1.0e13"))
        assert main(["approx", "--config", str(path), "--strategy", "poisson",
                     "--out", str(out)]) == 0
        assert read_csv(str(out))[0]["p_hit_approx"] == "1"

    @pytest.mark.parametrize("config, strategy, sweep", list(APPROX_DIGESTS))
    def test_csv_bytes_pinned(self, tmp_path, config, strategy, sweep):
        out, path = tmp_path / "out.csv", CONFIGS / f"{config}.yaml"
        if config == "chain":
            path = tmp_path / "chain.yaml"
            path.write_text(CHAIN)
        argv = ["approx", "--config", str(path),
                "--strategy", strategy, "--out", str(out)]
        assert main(argv + (["--sweep", sweep] if sweep else [])) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == APPROX_DIGESTS[config, strategy, sweep]


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

    def test_count_too_long_to_print_is_one_error_line(self, tree_cfg, tmp_path, capsys):
        # 27^10000 has 14,314 digits, past Python's int-to-str limit.
        out = tmp_path / "f.csv"
        assert main(["lump-stats", "--config", tree_cfg, "--n", "10000:1:10000",
                     "--out", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("E_CONFIG: --n 10000: raw_states has more than")
        assert not out.exists()

    def test_fractional_counts_rejected(self, tree_cfg, capsys):
        assert main(["lump-stats", "--config", tree_cfg, "--n", "1:0.5:3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG:") and "integers" in err


class TestSiblingOrder:
    """Equal siblings lump, and their miss streams pool, wherever they stand:
    the order of a parent's children moves no count and no answer."""

    @staticmethod
    def run(tmp_path, kinds, command, *argv, b_arrival=COXIAN):
        path, out = tmp_path / f"{kinds}.yaml", tmp_path / f"{kinds}-{command}.csv"
        path.write_text(flat(kinds, b_arrival))
        assert main([command, "--config", str(path), *argv, "--out", str(out)]) == 0
        return out

    @pytest.mark.parametrize("argv", [
        ("analyze", "--lump", "on", "--sweep", "tau_delta=0:1:2"),
        ("lump-stats", "--n", "1:1:3"),
    ])
    def test_csv_bytes_do_not_depend_on_order(self, tmp_path, argv):
        apart, together = (self.run(tmp_path, kinds, *argv) for kinds in ("ABA", "AAB"))
        assert apart.read_bytes() == together.read_bytes()

    def test_pooled_approximation_does_not_depend_on_order(self, tmp_path):
        # The notes name caches in node order, so only the answers compare.
        apart, together = (
            [row["p_hit_approx"] for row in read_csv(self.run(
                tmp_path, kinds, "approx", "--sweep", "tau_delta=0:1:2"))]
            for kinds in ("ABA", "AAB"))
        assert apart == together
        # Both pool one class of two A streams with one B stream, bit for bit.
        apart, together = (
            hierarchy_approx(load_config(tmp_path / f"{kinds}.yaml")[0],
                             delay_means=[0.0, 1.0, 2.0]).p_hit_sys
            for kinds in ("ABA", "AAB"))
        np.testing.assert_array_equal(apart, together)

    @pytest.mark.parametrize("kinds, lumped", [("ABA", 120), ("ABAB", 528)])
    def test_separated_equal_siblings_lump(self, tmp_path, kinds, lumped):
        on, off = (read_csv(self.run(tmp_path, kinds, "analyze", "--lump", lump))[0]
                   for lump in ("on", "off"))
        assert int(on["states_lumped"]) == lumped
        assert float(on["p_hit_exact"]) == pytest.approx(float(off["p_hit_exact"]), abs=1e-10)

    def test_alternating_ten_leaves_answer(self, tmp_path):
        # Unlumped, the leaves alone have 3^5 * 4^5 = 248,832 states, over the
        # state cap, and their miss laws 3^10 pooled phases; as two classes
        # of five they fit.
        for command in ("analyze", "approx"):
            out = self.run(tmp_path, "AB" * 5, command, b_arrival="{kind: exponential, mean: 1.5}")
            (row,) = read_csv(out)
            assert 0.0 < float(row.get("p_hit_exact", row.get("p_hit_approx"))) < 1.0


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

    def test_multi_column_trace_rejected(self, tmp_path, capsys):
        # Rows of "timestamp size", as in CDN logs; the within-row
        # differences 1, 2, 1, 5, 4 used to be fitted as gaps.
        trace = tmp_path / "trace.txt"
        trace.write_text("0 1\n1 3\n3 4\n4 9\n6 10\n")
        assert main(["fit-trace", "--trace", str(trace), "--phases", "1"]) == 1
        assert capsys.readouterr().err == (
            "E_VALUE: timestamps must be one column, got shape (5, 2)\n"
        )

    def test_one_row_of_two_columns_rejected(self, tmp_path, capsys):
        # One "timestamp size" row used to be read as the two timestamps 0, 1.
        trace = tmp_path / "trace.txt"
        trace.write_text("0 1\n")
        assert main(["fit-trace", "--trace", str(trace), "--phases", "1"]) == 1
        assert capsys.readouterr().err == (
            "E_VALUE: timestamps must be one column, got shape (1, 2)\n"
        )

    def test_two_rows_of_one_column_fit_one_gap(self, tmp_path):
        import yaml

        trace, report = tmp_path / "trace.txt", tmp_path / "fit.yaml"
        trace.write_text("0\n1.5\n")
        assert main(["fit-trace", "--trace", str(trace), "--phases", "1",
                     "--out", str(report)]) == 0
        doc = yaml.safe_load(report.read_text())
        assert doc["sample_count_before"] == 1
        assert doc["fitted_mean"] == pytest.approx(1.5)

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

    @pytest.mark.parametrize("cutoff", ["0", "-1", "nan"])
    def test_bad_cutoff_rejected_before_fitting(self, tmp_path, capsys, monkeypatch, cutoff):
        self._forbid_fitting(monkeypatch)
        out = tmp_path / "fit.yaml"
        assert main(["fit-trace", "--trace", self._trace(tmp_path), "--phases", "1",
                     f"--cutoff={cutoff}", "--out", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("E_CONFIG: --cutoff must be positive")
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
        (SINGLE.replace("arrival: {kind: exponential, mean: 1.0}",
                        "arrival: {kind: exponential, mean: abc}"), "tree/cache.arrival"),
    ], ids=["zero_mean", "zero_erlang_mean", "no_ttl", "no_delay", "children_not_list",
            "non_numeric_mean"])
    def test_malformed_node_is_one_config_error(self, tmp_path, capsys, text, where):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        assert main(["analyze", "--config", str(path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"E_CONFIG: {where}")

    # YAML 1.1 reads 1e-3 and 1e+3 as strings: its floats need a dot and a
    # signed exponent.
    @pytest.mark.parametrize("exponent, decimal", [
        ("{kind: exponential, mean: 1e-3}", "{kind: exponential, mean: 0.001}"),
        ("{kind: exponential, rate: 1e+3}", "{kind: exponential, rate: 1000.0}"),
        ("{kind: erlang, phases: 2, mean: 1e+3}", "{kind: erlang, phases: 2, mean: 1000.0}"),
        ("{kind: erlang, phases: 2, rate: 1e-3}", "{kind: erlang, phases: 2, rate: 0.001}"),
    ], ids=["exponential_mean", "exponential_rate", "erlang_mean", "erlang_rate"])
    def test_exponent_form_numbers_are_read(self, tmp_path, exponent, decimal):
        specs = []
        for name, law in (("exponent", exponent), ("decimal", decimal)):
            path = tmp_path / f"{name}.yaml"
            path.write_text(SINGLE.replace("{kind: exponential, mean: 2.0}", law))
            specs.append(load_config(path))
        assert specs[0] == specs[1]

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

    @pytest.mark.parametrize("command", ["approx", "analyze", "simulate"])
    def test_general_ph_delay_at_tiny_mean_is_one_error_line(self, tmp_path, capsys, command):
        # Scaled to a mean of 1e-310, the delay's zero entries times an
        # infinite factor are nan.
        path = tmp_path / "general.yaml"
        path.write_text(SINGLE.replace(
            "delay: {kind: exponential, mean: 1.0}",
            "delay: {kind: general-ph, initial: [0.5, 0.5],"
            " subgenerator: [[-2.0, 1.0], [0.0, -3.0]]}",
        ))
        argv = [command, "--config", str(path), "--sweep", "tau_delta=1e-310:1:1e-310"]
        assert main(argv + (["--requests", "100"] if command == "simulate" else [])) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "E_VALUE: initial vector and subgenerator must be finite"

    def test_approx_moment_overflow_is_one_error_line(self, capsys):
        # A delay mean of 1e160 overflows the powers of the miss-stream moments.
        assert main(["approx", "--config", str(CONFIGS / "single_cache_mmm.yaml"),
                     "--sweep", "tau_delta=1e160:1:1e160"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("E_VALUE:") and "overflow" in line

    def test_condition_overflow_is_one_error_line(self, capsys):
        # The condition estimate overflows to inf, quietly, and is rejected.
        assert main(["analyze", "--config", str(CONFIGS / "binary_two_level_mmm.yaml"),
                     "--sweep", "tau_delta=1e308:1:1e308"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("E_CONDITIONING:") and "inf exceeds limit" in line

    def test_leaf_over_state_cap_is_one_capacity_error(self, tmp_path, capsys, monkeypatch):
        # Erlang-10 requests and delay: 12 cache states times 10 phases.
        path = tmp_path / "erlang10.yaml"
        path.write_text(SINGLE.replace("{kind: exponential, mean: 1.0}",
                                       "{kind: erlang, phases: 10, mean: 1.0}"))
        monkeypatch.setenv("TTLDELAY_NUMERICS", "state_cap=100")
        assert main(["analyze", "--config", str(path)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("E_CAPACITY: state space of size 120 exceeds the cap of 100")
        # Lumping cannot shrink a leaf: the hint names the override instead.
        assert "TTLDELAY_NUMERICS=state_cap=" in line and "enable lumping" not in line

    def test_state_cap_counts_reachable_states(self, tmp_path, capsys, monkeypatch):
        # Two M/M/M leaves under an M/M/M root pair into 27 children x parent
        # states.  The 4 with the root fetching over two leaves out or in
        # cannot occur and are never formed, so the cap sees 23.
        config, out = str(CONFIGS / "binary_two_level_mmm.yaml"), tmp_path / "p.csv"
        monkeypatch.setenv("TTLDELAY_NUMERICS", "state_cap=23")
        assert main(["analyze", "--config", config, "--lump", "off", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].endswith(",27,23")
        monkeypatch.setenv("TTLDELAY_NUMERICS", "state_cap=22")
        assert main(["analyze", "--config", config, "--lump", "off"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("E_CAPACITY: state space of size 23 exceeds the cap of 22")

    def test_wide_sibling_pool_is_one_capacity_error(self, tmp_path, capsys):
        # Nine leaves of distinct arrival means have distinct 3-phase miss
        # laws, so no run lumps and the pool has 3^9 = 19,683 phases, refused
        # before any product is formed; Poisson pooling needs none.
        first, second = TWO_LEVEL.index("    - id: leaf1"), TWO_LEVEL.index("    - id: leaf2")
        leaf = TWO_LEVEL[first:second]
        path = tmp_path / "flat9.yaml"
        leaves = "".join(
            leaf.replace("leaf1", f"leaf{i}").replace(
                "arrival: {kind: exponential, mean: 1.0}",
                f"arrival: {{kind: exponential, mean: {1 + i / 10}}}")
            for i in range(9)
        )
        path.write_text(TWO_LEVEL[:first] + leaves)
        assert main(["approx", "--config", str(path)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("E_CAPACITY: state space of size 19683 exceeds the cap of")
        assert main(["approx", "--config", str(path), "--strategy", "poisson"]) == 0

    def test_wide_equal_sibling_pool_lumps(self, tmp_path):
        # Nine equal leaves pool over the multisets of their miss-law phases:
        # C(11, 2) = 55 lumped phases, not 3^9.
        first, second = TWO_LEVEL.index("    - id: leaf1"), TWO_LEVEL.index("    - id: leaf2")
        leaf = TWO_LEVEL[first:second]
        path, out = tmp_path / "flat9.yaml", tmp_path / "out.csv"
        path.write_text(TWO_LEVEL[:first] + "".join(
            leaf.replace("leaf1", f"leaf{i}") for i in range(9)))
        assert main(["approx", "--config", str(path), "--out", str(out)]) == 0
        (row,) = read_csv(str(out))
        assert 0.0 < float(row["p_hit_approx"]) < 1.0


class TestSweepParsing:
    def test_inclusive_endpoints(self):
        assert parse_sweep("tau_delta=0:1:3") == [0.0, 1.0, 2.0, 3.0]

    def test_fractional_steps(self):
        values = parse_sweep("tau_delta=0:0.5:2")
        np.testing.assert_allclose(values, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_invalid_ranges(self):
        for text in ("tau_delta=0:0:1", "tau_delta=2:1:0", "tau_delta=0:1",
                     "other=0:1:2", "tau_delta=-1:1:2",
                     "tau_delta=0:1e-320:1", "tau_delta=0:1e-9:1", "tau_delta=a:1:2"):
            with pytest.raises(ConfigError):
                parse_sweep(text)

    def test_overlong_sweep_is_one_error_line(self, single_cfg, capsys):
        # The point count overflows to infinity; no point is listed.
        assert main(["analyze", "--config", single_cfg,
                     "--sweep", "tau_delta=0:1e-320:1"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("E_CONFIG:") and "inf points" in line

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


def test_package_runs_as_a_module():
    proc = subprocess.run(
        [sys.executable, "-m", "ttldelay", "--help"],
        env={**os.environ, "PYTHONPATH": str(CONFIGS.parent / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ttldelay")
