"""Scenario file parsing and the four CLI subcommands.

Commands run in process through cli.main(argv); exit codes are the
contract: 0 ok, 1 bad input, 2 infeasible/unstable, 3 simulation
discrepancy, 4 verification failure.
"""

import csv
import dataclasses
import importlib.util
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import thzplanner as tp
from thzplanner import ScenarioFormatError, cli, load_scenario, optimizer, scenario_from_dict

REFERENCE = "scenarios/reference_k10.yaml"
STRICT = "scenarios/strict_infeasible_k10.yaml"
SINGLE = "scenarios/single_user.yaml"
ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

MINIMAL_YAML = """\
task: {L_a_bits: 8.0e+6, mu_a_cycles: 1.0e+7}
radio: {B_hz: 1.0e+10, p_w: 1.0e-1, gt_dbi: 2.0e+1, gr_dbi: 2.0e+1, noise_dbm: -4.0e+1}
edge: {f_m_cycles_per_s: 2.0e+10}
qos: {epsilon_s: 8.0e-2, theta_th: 9.9e-1}
grid: {freqs_ghz: [1.5e+2, 1.6e+2]}
users:
  - {lambda_jobs_per_s: 1.0e+1, f_l_cycles_per_s: 5.0e+8}
"""

# feasible at a small share, but forcing beta one overloads the edge queue
OVERLOAD_WHEN_FORCED_YAML = """\
task: {L_a_bits: 8.0e+6, mu_a_cycles: 1.0e+7}
radio: {B_hz: 1.0e+10, p_w: 1.0e-1, gt_dbi: 2.0e+1, gr_dbi: 2.0e+1, noise_dbm: -4.0e+1}
edge: {f_m_cycles_per_s: 9.5e+8}
qos: {epsilon_s: 8.0e-2, theta_th: 9.997e-1}
grid: {freqs_ghz: [1.5e+2]}
users:
  - {lambda_jobs_per_s: 1.0e+2, f_l_cycles_per_s: 2.0e+9}
"""

# two identical users at theta 0.99999 get one and the same planned rate
TWIN_USERS_YAML = """\
task: {L_a_bits: 8.0e+6, mu_a_cycles: 1.0e+7}
radio: {B_hz: 1.0e+10, p_w: 1.0e-1, gt_dbi: 2.0e+1, gr_dbi: 2.0e+1, noise_dbm: -4.0e+1}
edge: {f_m_cycles_per_s: 2.0e+10}
qos: {epsilon_s: 8.0e-2, theta_th: 9.9999e-1}
grid: {freqs_ghz: [1.5e+2, 1.6e+2]}
users:
  - {lambda_jobs_per_s: 1.0e+1, f_l_cycles_per_s: 5.0e+8}
  - {lambda_jobs_per_s: 1.0e+1, f_l_cycles_per_s: 5.0e+8}
"""

# slow local CPU and a huge edge headroom (v eps ~ 1e12): the rate comes
# from the log-domain W branch
LOG_DOMAIN_YAML = """\
task: {L_a_bits: 1.0e+4, mu_a_cycles: 1.0e+5}
radio: {B_hz: 1.0e+10, p_w: 1.0e-1, gt_dbi: 2.0e+1, gr_dbi: 2.0e+1, noise_dbm: -4.0e+1}
edge: {f_m_cycles_per_s: 1.0e+16}
qos: {epsilon_s: 1.0e+1, theta_th: 9.9999e-1}
grid: {freqs_ghz: [1.5e+2]}
users:
  - {lambda_jobs_per_s: 1.0e-1, f_l_cycles_per_s: 1.0e+3}
"""


def water_line_yaml(tmp_path):
    """reference_k10 with a 183.3 GHz water line (ITU-R P.676) in place of
    the 447.7 GHz term and carriers added at 183 and 186 GHz."""
    text = (ROOT / REFERENCE).read_text().replace(
        "180.0, 190.0]", "180.0, 183.0, 186.0, 190.0]"
    )
    terms = tp.DEFAULT_ATTENUATION_FIT.terms[:-1] + ((2000.0, 183.3, 3.0),)
    text += "fit:\n" + "".join(
        f"  - {{a_db_per_km: {a!r}, b_ghz: {b!r}, c_ghz: {c!r}}}\n" for a, b, c in terms
    )
    path = tmp_path / "water_line.yaml"
    path.write_text(text)
    return str(path)


def zero_fit_yaml(tmp_path):
    """reference_k10 with all seven fit amplitudes set to zero."""
    terms = tuple((0.0, b, c) for _, b, c in tp.DEFAULT_ATTENUATION_FIT.terms)
    text = (ROOT / REFERENCE).read_text() + "fit:\n" + "".join(
        f"  - {{a_db_per_km: {a!r}, b_ghz: {b!r}, c_ghz: {c!r}}}\n" for a, b, c in terms
    )
    path = tmp_path / "zero_fit.yaml"
    path.write_text(text)
    return str(path)


def load_generator():
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        meta = fh.readline()
        rows = list(csv.reader(fh))
    return meta, rows[0], rows[1:]


class TestLoadScenario:
    def test_shipped_files_match_presets(self):
        assert load_scenario(REFERENCE) == tp.reference_scenario()
        assert load_scenario(STRICT) == tp.strict_scenario()
        assert load_scenario(SINGLE) == tp.single_user_scenario()

    def test_minimal(self, tmp_path):
        path = tmp_path / "ok.yaml"
        path.write_text(MINIMAL_YAML)
        sc = load_scenario(str(path))
        assert sc.task.mean_job_bits == 8.0e6
        assert sc.grid.freqs_ghz == (150.0, 160.0)
        assert len(sc.users) == 1
        assert math.isinf(sc.max_distance_m)  # cap optional, default none

    def test_optional_cap_and_fit(self, tmp_path):
        term = "  - {a_db_per_km: 1.0e+0, b_ghz: 5.0e+2, c_ghz: 1.0e+1}\n"
        text = MINIMAL_YAML + "caps: {max_distance_m: 2.5e+2}\nfit:\n" + term * 7
        path = tmp_path / "full.yaml"
        path.write_text(text)
        sc = load_scenario(str(path))
        assert sc.max_distance_m == 250.0
        assert sc.fit.terms[0] == (1.0, 500.0, 10.0)

    def test_fit_needs_seven_terms(self, tmp_path):
        term = "  - {a_db_per_km: 1.0e+0, b_ghz: 5.0e+2, c_ghz: 1.0e+1}\n"
        path = tmp_path / "shortfit.yaml"
        path.write_text(MINIMAL_YAML + "fit:\n" + term * 2)
        with pytest.raises(ScenarioFormatError, match="7"):
            load_scenario(str(path))

    def test_duplicate_carrier(self, tmp_path):
        path = tmp_path / "dup.yaml"
        path.write_text(MINIMAL_YAML.replace("[1.5e+2, 1.6e+2]", "[1.5e+2, 1.5e+2]"))
        with pytest.raises(ScenarioFormatError, match="duplicate"):
            load_scenario(str(path))

    def test_unknown_key_flagged_by_name(self, tmp_path):
        path = tmp_path / "extra.yaml"
        path.write_text(MINIMAL_YAML + "antenna: {count: 4}\n")
        with pytest.raises(ScenarioFormatError, match="antenna"):
            load_scenario(str(path))

    def test_missing_section(self, tmp_path):
        path = tmp_path / "missing.yaml"
        path.write_text(MINIMAL_YAML.replace("edge: {f_m_cycles_per_s: 2.0e+10}\n", ""))
        with pytest.raises(ScenarioFormatError, match="edge"):
            load_scenario(str(path))

    def test_bare_exponent_hint(self, tmp_path):
        # 8e6 is a string under YAML 1.1 rules; the error must say how to fix it
        path = tmp_path / "string.yaml"
        path.write_text(MINIMAL_YAML.replace("8.0e+6", "8e6"))
        with pytest.raises(ScenarioFormatError, match="signed exponent"):
            load_scenario(str(path))

    def test_yaml_syntax_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("task: {L_a_bits: [unclosed\n")
        # the parser's wording may change; the error position must not
        with pytest.raises(ScenarioFormatError, match='broken.yaml", line 1, column'):
            load_scenario(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        with pytest.raises(ScenarioFormatError):
            load_scenario(str(path))

    def test_missing_file(self):
        with pytest.raises(ScenarioFormatError):
            load_scenario("/nonexistent/path.yaml")

    def test_booleans_are_not_numbers(self):
        import yaml

        data = yaml.safe_load(MINIMAL_YAML)
        data["qos"]["epsilon_s"] = True
        with pytest.raises(ScenarioFormatError):
            scenario_from_dict(data)
        # nor are NaN, the infinities, or integers beyond float range
        for bad in (math.nan, math.inf, -math.inf, 10**400):
            for parent, key, path in [
                (lambda d: d["qos"], "epsilon_s", "qos.epsilon_s"),
                (lambda d: d["edge"], "f_m_cycles_per_s", "edge.f_m_cycles_per_s"),
                (lambda d: d["users"][0], "lambda_jobs_per_s", "users[0].lambda_jobs_per_s"),
                (lambda d: d["grid"]["freqs_ghz"], 1, "grid.freqs_ghz[1]"),
            ]:
                data = yaml.safe_load(MINIMAL_YAML)
                parent(data)[key] = bad
                with pytest.raises(ScenarioFormatError, match=re.escape(path) + ": .*finite"):
                    scenario_from_dict(data)

    def test_infinite_distance_cap_means_no_cap(self, tmp_path):
        path = tmp_path / "cap.yaml"
        path.write_text(MINIMAL_YAML + "caps: {max_distance_m: .inf}\n")
        assert math.isinf(load_scenario(str(path)).max_distance_m)
        for bad in (".nan", "-.inf"):
            path.write_text(MINIMAL_YAML + f"caps: {{max_distance_m: {bad}}}\n")
            with pytest.raises(ScenarioFormatError, match="caps.max_distance_m"):
                load_scenario(str(path))

    # every numeric key of the fixed sections, the first user and the first
    # fit term, with the dotted path the loader must name
    SCHEMA_PATHS = [
        (("task",), "L_a_bits"),
        (("task",), "mu_a_cycles"),
        (("radio",), "B_hz"),
        (("radio",), "p_w"),
        (("radio",), "gt_dbi"),
        (("radio",), "gr_dbi"),
        (("radio",), "noise_dbm"),
        (("edge",), "f_m_cycles_per_s"),
        (("qos",), "epsilon_s"),
        (("qos",), "theta_th"),
        (("users", 0), "lambda_jobs_per_s"),
        (("users", 0), "f_l_cycles_per_s"),
        (("fit", 0), "a_db_per_km"),
        (("fit", 0), "b_ghz"),
        (("fit", 0), "c_ghz"),
    ]

    @pytest.mark.parametrize("parents, key", SCHEMA_PATHS,
                             ids=[".".join(map(str, p)) + "." + k for p, k in SCHEMA_PATHS])
    @pytest.mark.parametrize("fault", [
        "missing", "unknown_sibling", "string", "bool", "nan", "inf", "-inf",
    ])
    def test_every_key_is_checked_by_path(self, parents, key, fault):
        import yaml

        term = "  - {a_db_per_km: 1.0e+0, b_ghz: 5.0e+2, c_ghz: 1.0e+1}\n"
        data = yaml.safe_load(MINIMAL_YAML + "fit:\n" + term * 7)
        node = data
        for step in parents:
            node = node[step]
        path = parents[0] + "".join(f"[{i}]" for i in parents[1:]) + "." + key
        if fault == "missing":
            del node[key]
            expect = path + ": missing required key"
        elif fault == "unknown_sibling":
            node[key + "_x"] = 1.0
            expect = path + "_x: unknown key"
        else:
            node[key] = {"string": "1e3", "bool": True, "nan": math.nan,
                         "inf": math.inf, "-inf": -math.inf}[fault]
            expect = path + ": expected a " + ("number" if fault in ("string", "bool")
                                               else "finite number")
        with pytest.raises(ScenarioFormatError, match="^" + re.escape(expect)):
            scenario_from_dict(data)


class TestPlanCommand:
    def test_reference(self, tmp_path, capsys):
        out = tmp_path / "plan.csv"
        rc = cli.main(["plan", REFERENCE, "-o", str(out)])
        assert rc == 0
        meta, header, rows = read_csv(out)
        assert re.match(r"# thzplanner [\d.]+ scenario_sha256=[0-9a-f]{16} seed=none\n", meta)
        assert header == ["user_id", "beta", "rate_bps", "freq_ghz", "distance_m", "status"]
        assert len(rows) == 11  # 10 users + total
        assert rows[-1][0] == "total"
        assert rows[-1][5] == "edge_stable"
        total = sum(float(r[4]) for r in rows[:-1])
        assert float(rows[-1][4]) == pytest.approx(total, rel=1e-10)
        assert "planned 10 users" in capsys.readouterr().out

    def test_twelve_significant_digits(self, tmp_path):
        out = tmp_path / "plan.csv"
        cli.main(["plan", REFERENCE, "-o", str(out)])
        _, _, rows = read_csv(out)
        sample = rows[0][4]  # a planned distance
        digits = sample.replace(".", "").replace("-", "").lstrip("0")
        assert len(digits) >= 11

    def test_beta_one_never_beats_optimized(self, tmp_path):
        a, b = tmp_path / "opt.csv", tmp_path / "forced.csv"
        assert cli.main(["plan", REFERENCE, "-o", str(a)]) == 0
        assert cli.main(["plan", REFERENCE, "--beta-one", "-o", str(b)]) == 0
        _, _, opt_rows = read_csv(a)
        _, _, forced_rows = read_csv(b)
        assert float(forced_rows[-1][4]) <= float(opt_rows[-1][4])
        assert all(float(r[1]) == 1.0 for r in forced_rows[:-1])

    def test_no_flag_leaks_into_the_next_call(self, tmp_path):
        # main reuses one parser per process; a flag given to one call must
        # not change the next
        a, b = tmp_path / "forced.csv", tmp_path / "opt.csv"
        assert cli.main(["plan", REFERENCE, "--beta-one", "-o", str(a)]) == 0
        assert cli.main(["plan", REFERENCE, "-o", str(b)]) == 0
        assert b.read_bytes() == (GOLDEN / "plan_reference_k10.csv").read_bytes()

    def test_infeasible_scenario_exits_2(self, tmp_path, capsys):
        out = tmp_path / "strict.csv"
        rc = cli.main(["plan", STRICT, "-o", str(out)])
        assert rc == 2
        _, _, rows = read_csv(out)
        assert all(r[5] == "infeasible" for r in rows[:-1])
        assert all(float(r[4]) == 0.0 for r in rows[:-1])
        assert float(rows[-1][4]) == 0.0
        assert "cannot meet the reliability target" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        ("epsilon_s: 8.0e-2", "epsilon_s: .nan"),
        ("epsilon_s: 8.0e-2", "epsilon_s: .inf"),
        ("f_m_cycles_per_s: 2.0e+10", "f_m_cycles_per_s: .inf"),
        ("lambda_jobs_per_s: 1.0e+1", "lambda_jobs_per_s: .nan"),
    ])
    def test_non_finite_scenario_exits_1(self, tmp_path, capsys, edit):
        path = tmp_path / "bad.yaml"
        path.write_text(MINIMAL_YAML.replace(*edit))
        rc = cli.main(["plan", str(path), "-o", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "finite" in capsys.readouterr().err

    def test_rate_overflow_next_to_the_run_end(self, tmp_path):
        """single_user with L_a 1e306 bits: at the feasible run's low end
        the closed-form rate overflows to inf where the margin is still
        positive, a region the share search steps around.  The planned rate
        is finite, and no distance supports it."""
        path = tmp_path / "huge_jobs.yaml"
        path.write_text(
            (ROOT / SINGLE).read_text().replace("L_a_bits: 8.0e+6", "L_a_bits: 1.0e+306")
        )
        scenario = load_scenario(str(path))
        args = (scenario.users[0], scenario.task, scenario.edge, scenario.qos)
        run = [b / 1000 for b in range(1, 1001) if tp.ceiling_margin(*args, b / 1000) > 0.0]
        assert any(tp.rate_threshold(*args, b) == math.inf for b in run)
        assert math.isfinite(tp.rate_threshold(*args, run[-1]))
        out = tmp_path / "plan.csv"
        assert cli.main(["plan", str(path), "-o", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert rows[0] == ["0", "0.442247976007", "8.94566415923e+307", "150", "0", "feasible"]

    def test_zero_absorption_plans_free_space_distances(self, tmp_path):
        path = zero_fit_yaml(tmp_path)
        scenario = load_scenario(path)
        out = tmp_path / "plan.csv"
        assert cli.main(["plan", path, "-o", str(out)]) == 0
        _, header, rows = read_csv(out)
        p = tp.plan(scenario)
        for row, user in zip(rows[:-1], p.users):
            chi = tp.link_budget_db(scenario.radio, user.rate_bps)
            free_space = 10.0 ** (chi / 20.0) / (user.freq_ghz * 1e9)
            assert user.distance_m == pytest.approx(free_space, rel=1e-12)
            assert float(row[header.index("distance_m")]) == pytest.approx(
                free_space, rel=1e-11
            )
        assert all(u.distance_m > 30.0 for u in p.users)

    def test_distance_beyond_float_range_names_the_carrier(self, tmp_path, capsys):
        """Without absorption a huge link budget puts the free-space range
        past the float range; plan and verify say so and exit 1."""
        path = tmp_path / "huge_free_space.yaml"
        path.write_text(
            Path(zero_fit_yaml(tmp_path)).read_text()
            .replace("noise_dbm: -40.0", "noise_dbm: -10000.0")
        )
        expect = re.compile(
            r"^error: coverage distance on carrier 100 GHz at rate \S+ bit/s"
            r" is beyond the float range$", re.M
        )
        assert cli.main(["plan", str(path), "-o", str(tmp_path / "plan.csv")]) == 1
        assert expect.search(capsys.readouterr().err)
        assert cli.main(["verify", str(path)]) == 1
        assert expect.search(capsys.readouterr().err)

    def test_huge_link_budget_plans_finite_distances(self, tmp_path, capsys):
        path = tmp_path / "huge.yaml"
        path.write_text(
            (ROOT / REFERENCE).read_text().replace("noise_dbm: -40.0", "noise_dbm: -10000.0")
        )
        out = tmp_path / "plan.csv"
        assert cli.main(["plan", str(path), "-o", str(out)]) == 0
        _, header, rows = read_csv(out)
        dists = [float(r[header.index("distance_m")]) for r in rows]
        assert all(math.isfinite(d) and d > 1e5 for d in dists)
        assert capsys.readouterr().err == ""

    def test_missing_output_flag_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["plan", REFERENCE])
        assert exc.value.code == 1

    def test_missing_scenario_file_exits_1(self, tmp_path):
        rc = cli.main(["plan", "/nonexistent.yaml", "-o", str(tmp_path / "x.csv")])
        assert rc == 1


class TestSweepCommand:
    def test_edge_capacity_sweep_is_monotone(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = cli.main([
            "sweep", REFERENCE, "--axis", "f_m",
            "--values", "2.0e9,5.0e9,2.0e10,1.0e11", "-o", str(out),
        ])
        assert rc == 0
        _, header, rows = read_csv(out)
        assert header == ["axis_value", "d_star_m", "n_infeasible"]
        dists = [float(r[1]) for r in rows]
        assert dists == sorted(dists)
        assert [int(r[2]) for r in rows] == [0, 0, 0, 0]

    def test_long_axis_spelling(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = cli.main([
            "sweep", REFERENCE, "--axis", "epsilon_s",
            "--values", "0.06,0.08", "-o", str(out),
        ])
        assert rc == 0

    def test_unknown_axis_exits_1(self, tmp_path, capsys):
        rc = cli.main([
            "sweep", REFERENCE, "--axis", "humidity",
            "--values", "1,2", "-o", str(tmp_path / "x.csv"),
        ])
        assert rc == 1
        assert "axis" in capsys.readouterr().err

    def test_bad_values_exit_1(self, tmp_path):
        rc = cli.main([
            "sweep", REFERENCE, "--axis", "f_m",
            "--values", "fast,slow", "-o", str(tmp_path / "x.csv"),
        ])
        assert rc == 1
        rc = cli.main([
            "sweep", REFERENCE, "--axis", "f_m",
            "--values", ",", "-o", str(tmp_path / "x.csv"),
        ])
        assert rc == 1
        for bad in ("nan", "inf", "2.0e10,-inf", "1e400"):
            rc = cli.main([
                "sweep", REFERENCE, "--axis", "f_m",
                "--values", bad, "-o", str(tmp_path / "x.csv"),
            ])
            assert rc == 1, bad


class TestSimulateCommand:
    def test_single_user_within_band(self, tmp_path):
        out = tmp_path / "sim.csv"
        rc = cli.main([
            "simulate", SINGLE, "--jobs", "50000", "--seed", "5", "-o", str(out),
        ])
        assert rc == 0
        meta, header, rows = read_csv(out)
        assert "seed=5" in meta
        assert header == ["user_id", "analytic_phi", "empirical_phi", "ci_radius",
                          "delta", "mode"]
        assert rows[0][5] == "isolated"
        assert abs(float(rows[0][4])) <= float(rows[0][3])

    def test_shared_edge_mode(self, tmp_path):
        out = tmp_path / "sim.csv"
        rc = cli.main([
            "simulate", SINGLE, "--mode", "shared-edge", "--jobs", "20000",
            "--seed", "5", "-o", str(out),
        ])
        assert rc == 0
        _, _, rows = read_csv(out)
        assert rows[0][5] == "shared_edge"

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", SINGLE, "--jobs", "20000", "--seed", "9"]
        assert cli.main(argv + ["-o", str(a)]) == 0
        assert cli.main(argv + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_forced_offload_overload_reports_discrepancy(self, tmp_path, capsys):
        scenario = tmp_path / "overload.yaml"
        scenario.write_text(OVERLOAD_WHEN_FORCED_YAML)
        out = tmp_path / "sim.csv"
        assert cli.main(["plan", str(scenario), "-o", str(tmp_path / "p.csv")]) == 0
        rc = cli.main([
            "simulate", str(scenario), "--jobs", "20000", "--beta-one",
            "-o", str(out),
        ])
        assert rc == 3
        _, _, rows = read_csv(out)
        assert float(rows[0][1]) == 0.0  # unstable queue: zero reliability
        assert rows[0][2] == "nan"
        assert "unstable" in capsys.readouterr().err

    def test_infeasible_scenario_exits_2(self, tmp_path):
        rc = cli.main([
            "simulate", STRICT, "--jobs", "20000", "-o", str(tmp_path / "x.csv"),
        ])
        assert rc == 2

    def test_bad_mode_exits_1(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main([
                "simulate", SINGLE, "--mode", "telepathy",
                "-o", str(tmp_path / "x.csv"),
            ])
        assert exc.value.code == 1

    def test_warmup_too_large_exits_1(self, tmp_path, capsys):
        rc = cli.main([
            "simulate", SINGLE, "--jobs", "1000", "--warmup", "500",
            "-o", str(tmp_path / "x.csv"),
        ])
        assert rc == 1
        assert "warmup" in capsys.readouterr().err

    def test_negative_seed_exits_1_before_planning(self, tmp_path, capsys, monkeypatch):
        def no_plan(*args):
            raise AssertionError("planned before the seed was checked")

        monkeypatch.setattr(cli, "plan", no_plan)
        rc = cli.main([
            "simulate", SINGLE, "--seed", "-1", "-o", str(tmp_path / "x.csv"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: seed must be nonnegative\n"
        assert not (tmp_path / "x.csv").exists()


class TestVerifyCommand:
    def test_single_user_scenario_passes(self, capsys):
        rc = cli.main(["verify", SINGLE])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verification passed" in out
        assert "rate thresholds match" in out
        assert "round-trip" in out
        assert "deterministic" in out

    def test_reference_scenario_passes_with_brute_force_note(self, capsys):
        rc = cli.main(["verify", REFERENCE])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ok   planned assignment matches the exact optimum (10 users)" in out
        assert "mixed differences positive" in out

    def test_threshold_check_skips_shares_without_a_rate(self, capsys, monkeypatch):
        """The closed form is asked only at shares where ceiling_margin
        leaves it a root, so no threshold call raises; the others are
        counted as skipped."""
        calls = {"made": 0, "raised": 0}
        real = cli.rate_threshold

        def counting(*args):
            calls["made"] += 1
            try:
                return real(*args)
            except ValueError:
                calls["raised"] += 1
                raise

        monkeypatch.setattr(cli, "rate_threshold", counting)
        assert cli.main(["verify", REFERENCE]) == 0
        assert calls == {"made": 46, "raised": 0}
        assert (
            "ok   rate thresholds match bisection oracle (1e-6 rel, 46 points;"
            " 164 shares skipped, no rate meets the target there)"
        ) in capsys.readouterr().out

    def test_log_domain_user_passes(self, tmp_path, capsys):
        path = tmp_path / "log_domain.yaml"
        path.write_text(LOG_DOMAIN_YAML)
        assert cli.main(["verify", str(path)]) == 0
        assert "rate thresholds match" in capsys.readouterr().out
        out = tmp_path / "plan.csv"
        assert cli.main(["plan", str(path), "-o", str(out)]) == 0
        _, header, rows = read_csv(out)
        rate = float(rows[0][header.index("rate_bps")])
        assert rate == pytest.approx(12512.92546497, rel=1e-9)

    def test_equal_rates_check_a_distinct_pair(self, tmp_path, capsys, monkeypatch):
        """Equal planned rates give mixed differences of exactly zero, so
        the supermodularity check must fall back to two distinct rates."""
        path = tmp_path / "twins.yaml"
        path.write_text(TWIN_USERS_YAML)
        p = tp.plan(load_scenario(str(path)))
        assert p.users[0].rate_bps == p.users[1].rate_bps
        seen = []
        real_matrix = cli.distance_matrix

        def recording_matrix(fit, radio, freqs, rates):
            if len(rates) == 2:  # the round trip asks for seven decades
                seen.append(tuple(rates))
            return real_matrix(fit, radio, freqs, rates)

        monkeypatch.setattr(cli, "distance_matrix", recording_matrix)
        assert cli.main(["verify", str(path)]) == 0
        assert seen and all(lo < hi for lo, hi in seen)
        assert "mixed differences positive" in capsys.readouterr().out

    @staticmethod
    def gap_minimum(sc, result):
        """min of supermodularity_gap over adjacent carriers, at the plan's
        lowest and highest rates, or at 1e8 and 1e9 bit/s where they are equal."""
        rates = sorted(row.rate_bps for row in result.users if row.status == tp.FEASIBLE)
        if len(rates) < 2 or rates[0] == rates[-1]:
            rates = [1.0e8, 1.0e9]
        freqs = sc.grid.freqs_ghz
        return min(
            tp.supermodularity_gap(sc.fit, sc.radio, rates[0], rates[-1], a, b)
            for a, b in zip(freqs, freqs[1:])
        )

    def test_mixed_differences_are_supermodularity_gaps(self, tmp_path):
        """The check reads its cells off the plan's own rows, yet reports
        supermodularity_gap's smallest value bit for bit: on the shipped
        scenarios, on generated ones, on equal rates, and on the water-line
        fit, where it is negative."""
        (tmp_path / "twins.yaml").write_text(TWIN_USERS_YAML)
        scenarios = [load_scenario(str(ROOT / name)) for name in (REFERENCE, STRICT, SINGLE)]
        scenarios += [
            load_scenario(water_line_yaml(tmp_path)),
            load_scenario(str(tmp_path / "twins.yaml")),
        ]
        gen = load_generator()
        scenarios += [scenario_from_dict(gen.make("verify", 4, i)[0]) for i in range(20)]
        worst = []
        for sc in scenarios:
            result = tp.plan(sc)
            got = cli._verify_supermodularity(sc, result, [])
            if len(sc.grid.freqs_ghz) < 2:
                assert got is None
                continue
            want = self.gap_minimum(sc, result)
            assert repr(got) == repr(want)
            worst.append(got)
        assert len(worst) >= 20 and min(worst) < 0.0 < worst[0]

    def test_water_line_fit_passes_with_note(self, tmp_path, capsys):
        """Mixed differences turn negative next to the water line; the plan
        solves the assignment exactly, so that is a note, not a failure."""
        path = water_line_yaml(tmp_path)
        assert cli.main(["verify", path]) == 0
        out = capsys.readouterr().out
        assert "ok   planned assignment matches the exact optimum (10 users)" in out
        assert re.search(
            r"^note mixed difference -\S+ m on carriers 186-190 GHz: .*"
            r"the plan uses the exact assignment$",
            out,
            re.M,
        )
        assert "FAIL" not in out and "warn" not in out
        assert cli.main(["plan", path, "-o", str(tmp_path / "plan.csv")]) == 0
        assert "total coverage 511.579187728 m" in capsys.readouterr().out

    def test_zero_absorption_round_trip_checks_every_point(self, tmp_path, capsys):
        assert cli.main(["verify", zero_fit_yaml(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "ok   distance/rate round-trip within 1e-9 rel (70 points" in out

    def test_swapped_carriers_fail_the_assignment_check(self, capsys, monkeypatch):
        real_plan = cli.plan

        def swapped(scenario, **kwargs):
            p = real_plan(scenario, **kwargs)
            users = list(p.users)
            a, b = users[0], users[9]
            users[0] = dataclasses.replace(a, freq_ghz=b.freq_ghz)
            users[9] = dataclasses.replace(b, freq_ghz=a.freq_ghz)
            return dataclasses.replace(p, users=tuple(users))

        monkeypatch.setattr(cli, "plan", swapped)
        assert cli.main(["verify", REFERENCE]) == 4
        out = capsys.readouterr().out
        assert re.search(
            r"^FAIL planned assignment differs from the exact optimum by \S+ rel$", out, re.M
        )
        assert "verification FAILED: 1 check(s)" in out

    def test_perturbed_potential_fails_the_certificate(self, capsys, monkeypatch):
        real_plan = cli.plan

        def perturbed(scenario, **kwargs):
            p = real_plan(scenario, **kwargs)
            cost, cols, u, v = p.assignment
            u = (u[0] + 1.0,) + u[1:]  # one row potential 1 m off
            return dataclasses.replace(p, assignment=(cost, cols, u, v))

        monkeypatch.setattr(cli, "plan", perturbed)
        assert cli.main(["verify", REFERENCE]) == 4
        out = capsys.readouterr().out
        assert re.search(
            r"^FAIL assignment potentials miss the optimality certificate by 1\.0\d*e\+00 m$",
            out,
            re.M,
        )
        assert "ok   planned assignment" not in out
        assert "verification FAILED: 1 check(s)" in out

    def test_solver_returning_a_swapped_pair_fails_the_certificate(self, capsys, monkeypatch):
        real_solver = optimizer.min_cost_assignment

        def swapped(cost):
            cols, u, v = real_solver(cost)
            cols = (cols[1], cols[0]) + cols[2:]
            return cols, u, v

        monkeypatch.setattr(optimizer, "min_cost_assignment", swapped)
        assert cli.main(["verify", REFERENCE]) == 4
        out = capsys.readouterr().out
        assert re.search(
            r"^FAIL assignment potentials miss the optimality certificate by \S+ m$", out, re.M
        )
        # the carriers it reports are the solve's, so the totals agree
        assert "FAIL planned assignment differs" not in out
        assert "verification FAILED: 1 check(s)" in out

    def test_missing_file_exits_1(self):
        assert cli.main(["verify", "/nonexistent.yaml"]) == 1


class TestTopLevel:
    def test_no_command_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert tp.__version__ in capsys.readouterr().out

    def test_numpy_loads_only_for_simulate(self, tmp_path):
        """plan, sweep and verify import neither numpy nor the thread
        pool nor the queue; simulate imports numpy.

        Runs in a fresh interpreter, since this one has numpy loaded."""
        script = f"""
import sys
from thzplanner import cli
out = {str(tmp_path / "out.csv")!r}
assert cli.main(["plan", {SINGLE!r}, "-o", out]) == 0
assert cli.main(["sweep", {SINGLE!r}, "--axis", "f_m", "--values", "2e10", "-o", out]) == 0
assert cli.main(["verify", {SINGLE!r}]) == 0
loaded = [name in sys.modules for name in ("numpy", "concurrent.futures", "queue")]
assert cli.main(["simulate", {SINGLE!r}, "--jobs", "2000", "-o", out]) == 0
loaded.append("numpy" in sys.modules)
print(loaded)
"""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        res = subprocess.run(
            [sys.executable, "-c", script], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "[False, False, False, True]"
