import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kantorov
from kantorov import cli
from kantorov.cli import main

BASE = {
    "domain": {"kind": "interval"},
    "operator": {"a": 1.0, "measures": {"kind": "constant_lebesgue"}},
    "function": {"name": "abs_dist", "params": [0.5]},
    "experiment": {"n_list": [4, 16], "grid_resolution": 100},
}


def write_config(tmp_path, name, **overrides):
    doc = json.loads(json.dumps(BASE))
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            doc[key].update(value)
        else:
            doc[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_converge_writes_csv_and_json(tmp_path, capsys):
    csv = tmp_path / "out.csv"
    js = tmp_path / "out.json"
    cfgp = write_config(
        tmp_path, "c.json",
        experiment={"n_list": [4, 16], "p": 2, "grid_resolution": 100},
        output={"csv_path": str(csv), "json_path": str(js)},
    )
    assert main(["converge", "--config", str(cfgp)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "n,sup_error,lp_error,bound_id,bound_value,ratio,pass"
    assert len(lines) == 3
    n, sup, lp, rest = lines[1].split(",", 3)
    assert n == "4" and float(sup) > float(lp) > 0.0
    assert rest == ",,,"
    doc = json.loads(js.read_text())
    assert doc["meta"]["command"] == "converge"
    assert doc["meta"]["config"]["operator"]["a"] == 1.0
    assert len(doc["rows"]) == 2
    assert "loglog_slope" in doc["summary"]
    out = capsys.readouterr().out
    assert "sup_error" in out and "wrote" in out


def test_converge_is_byte_identical(tmp_path):
    csv = tmp_path / "out.csv"
    cfgp = write_config(
        tmp_path, "c.json",
        experiment={"n_list": [2, 8], "p": 1, "grid_resolution": 60},
        output={"csv_path": str(csv)},
    )
    assert main(["converge", "--config", str(cfgp)]) == 0
    first = csv.read_bytes()
    assert main(["converge", "--config", str(cfgp)]) == 0
    assert csv.read_bytes() == first


def test_converge_appends_requested_bound_rows(tmp_path, capsys):
    csv = tmp_path / "out.csv"
    cfgp = write_config(
        tmp_path, "c.json",
        experiment={
            "n_list": [4, 16],
            "p": 2,
            "grid_resolution": 100,
            "bounds": ["omega_total"],
        },
        output={"csv_path": str(csv)},
    )
    assert main(["converge", "--config", str(cfgp)]) == 0
    lines = csv.read_text().splitlines()
    assert len(lines) == 5  # header + 2 error rows + 2 bound rows
    bound = [ln.split(",") for ln in lines[3:]]
    assert all(row[3] == "omega_total" and row[6] == "true" for row in bound)
    assert all(0.0 < float(row[5]) < 1.0 for row in bound)  # measured/bound
    assert "[PASS] bound omega_total" in capsys.readouterr().out


def test_eval_prints_values(tmp_path, capsys):
    csv = tmp_path / "ev.csv"
    cfgp = write_config(
        tmp_path, "e.json",
        operator={"a": 0.0},
        function={"name": "affine", "params": [0.25, 0.5]},
        experiment={"n_list": [3], "points": [0.2, [0.8]]},
        output={"csv_path": str(csv)},
    )
    assert main(["eval", "--config", str(cfgp)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "n,x,value"
    # a = 0 and affine f: operator reproduces f exactly
    assert float(lines[1].split(",")[2]) == pytest.approx(0.35, abs=1e-11)
    assert float(lines[2].split(",")[2]) == pytest.approx(0.65, abs=1e-11)


def test_verify_runs_moment_suite_and_bounds(tmp_path):
    csv = tmp_path / "v.csv"
    cfgp = write_config(
        tmp_path, "v.json",
        experiment={"n_list": [1, 5], "p": 2,
                    "bounds": ["lambda_p_bound", "omega_total"],
                    "grid_resolution": 150},
        output={"csv_path": str(csv)},
    )
    assert main(["verify", "--config", str(cfgp)]) == 0
    rows = [l.split(",") for l in csv.read_text().splitlines()[1:]]
    ids = {r[3] for r in rows}
    assert ids == {"moment_affine", "moment_quadratic", "lambda_p_bound", "omega_total"}
    assert all(r[6] == "true" for r in rows)


def test_verify_seed_changes_sampled_points(tmp_path):
    csv = tmp_path / "v.csv"
    cfgp = write_config(
        tmp_path, "v.json",
        experiment={"n_list": [2]},
        output={"csv_path": str(csv)},
    )
    assert main(["verify", "--config", str(cfgp), "--seed", "1"]) == 0
    first = csv.read_text()
    assert main(["verify", "--config", str(cfgp), "--seed", "1"]) == 0
    assert csv.read_text() == first  # same seed, same bytes
    assert main(["verify", "--config", str(cfgp), "--seed", "2"]) == 0
    assert csv.read_text() != first  # errors move with the sample


@pytest.mark.parametrize("domain", [{"kind": "interval"}, {"kind": "hypercube", "dim": 2},
                                    {"kind": "simplex", "dim": 2}], ids=["I", "Q2", "K2"])
def test_verify_fails_a_wrong_quadrature_rule(tmp_path, monkeypatch, capsys, domain):
    # every uncut Lebesgue rule with its nodes scaled by 0.9: the inner
    # integrals go wrong, and the moment suite, whose reference builds no
    # rule, must say so
    from kantorov import kantorovich, measures

    exact = measures.measure_nodes

    def scaled(mu, dom, level, cuts=None):
        nodes, weights = exact(mu, dom, level, cuts)
        if cuts is None and not measures.is_discrete(mu):
            nodes = 0.9 * nodes
        return nodes, weights

    monkeypatch.setattr(kantorovich, "measure_nodes", scaled)
    monkeypatch.setattr(measures, "measure_nodes", scaled)
    csv = tmp_path / "v.csv"
    cfgp = write_config(
        tmp_path, "v.json", domain=domain,
        function={"name": "exp_sum", "params": []},
        experiment={"n_list": [4, 16]},
        output={"csv_path": str(csv)},
    )
    try:
        assert main(["verify", "--config", str(cfgp)]) == 1
    finally:
        kantorovich._inner_values.cache_clear()
    rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    assert any(r[3] == "moment_affine" and r[6] == "false" for r in rows)
    assert "[FAIL]" in capsys.readouterr().out


def test_preserve_passes_for_convex_function(tmp_path):
    csv = tmp_path / "p.csv"
    cfgp = write_config(
        tmp_path, "p.json",
        experiment={"n_list": [2, 6], "grid_resolution": 60,
                    "modes": ["convex", "sandwich", "lipschitz_l1"]},
        output={"csv_path": str(csv)},
    )
    assert main(["preserve", "--config", str(cfgp)]) == 0
    rows = [l.split(",") for l in csv.read_text().splitlines()[1:]]
    assert len(rows) == 6
    assert {r[3] for r in rows} == {"convex", "sandwich", "lipschitz_l1"}


def test_preserve_fails_for_nonconvex_mode(tmp_path):
    cfgp = write_config(
        tmp_path, "bad.json",
        domain={"kind": "hypercube", "dim": 2},
        function={"name": "product12", "params": []},
        experiment={"n_list": [2], "grid_resolution": 12, "modes": ["convex"]},
    )
    assert main(["preserve", "--config", str(cfgp)]) == 1


def test_preserve_default_modes_pass_in_2d(tmp_path, capsys):
    # the family only preserves convexity along axis/edge directions in
    # several variables, so the derived defaults must stay passable
    for domain, expected in (
        ({"kind": "simplex", "dim": 2}, "axially_convex"),
        ({"kind": "hypercube", "dim": 2}, "coordinate_convex"),
    ):
        cfgp = write_config(
            tmp_path, "d.json",
            domain=domain,
            function={"name": "exp_sum", "params": []},
            experiment={"n_list": [2, 5], "grid_resolution": 12},
            output={"csv_path": str(tmp_path / "d.csv")},
        )
        assert main(["preserve", "--config", str(cfgp)]) == 0
        out = capsys.readouterr().out
        assert expected in out and " convex " not in out


def test_moduli_table(tmp_path):
    csv = tmp_path / "m.csv"
    cfgp = write_config(
        tmp_path, "m.json",
        function={"name": "monomial", "params": [1, 2]},
        experiment={"grid_resolution": 1000, "p": 1,
                    "delta_list": [0.1, 0.25]},
        output={"csv_path": str(csv)},
    )
    assert main(["moduli", "--config", str(cfgp)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "delta,omega1,omega2,tau_p,omega_kp"
    row = lines[1].split(",")
    assert float(row[1]) == pytest.approx(0.19, abs=1e-3)
    row = lines[2].split(",")
    assert float(row[2]) == pytest.approx(0.125, abs=1e-3)


def test_moduli_csv_does_not_depend_on_the_seed(tmp_path):
    csv = tmp_path / "m.csv"
    cfgp = write_config(
        tmp_path, "m.json",
        domain={"kind": "hypercube", "dim": 2},
        function={"name": "runge", "params": []},
        experiment={"grid_resolution": 16, "p": 2, "k": 2, "delta_list": [0.125, 0.3]},
        output={"csv_path": str(csv)},
    )
    assert main(["moduli", "--config", str(cfgp), "--seed", "1"]) == 0
    first = csv.read_bytes()
    assert main(["moduli", "--config", str(cfgp), "--seed", "2"]) == 0
    assert csv.read_bytes() == first


def test_moduli_refuses_deltas_below_two_grid_steps(tmp_path, capsys):
    # tau_p's balls of radius delta/2 hold no neighbouring grid point when
    # delta * m < 2, so its column would print a structural 0
    csv = tmp_path / "m.csv"
    for small in (0.01, 0.03):
        cfgp = write_config(tmp_path, "m.json",
                            experiment={"grid_resolution": 50, "delta_list": [0.5, small]},
                            output={"csv_path": str(csv)})
        assert main(["moduli", "--config", str(cfgp)]) == 2
        captured = capsys.readouterr()
        assert "experiment.delta_list" in captured.err and "2/m = 0.04" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not csv.exists()
    # (2/49) * 49 / 2 rounds to 0.9999999999999999, yet a neighbour lies
    # within the radius 1/49
    cfgp = write_config(tmp_path, "m.json",
                        experiment={"grid_resolution": 49, "delta_list": [2 / 49]},
                        output={"csv_path": str(csv)})
    assert main(["moduli", "--config", str(cfgp)]) == 0
    assert float(csv.read_text().splitlines()[1].split(",")[3]) > 0.0


@pytest.mark.parametrize("markov", ["Sd", "Td", "X", 3, 1.5])
def test_operator_markov_must_name_the_domains_operator(tmp_path, capsys, markov):
    csv = tmp_path / "c.csv"
    cfgp = write_config(tmp_path, "c.json", operator={"markov": markov},
                        output={"csv_path": str(csv)})
    assert main(["converge", "--config", str(cfgp)]) == 2
    captured = capsys.readouterr()
    assert "operator.markov" in captured.err and "'T1'" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not csv.exists()


def test_operator_markov_accepts_the_domains_operator(tmp_path, capsys):
    csv = tmp_path / "c.csv"
    plain = tmp_path / "plain.csv"
    cfgp = write_config(tmp_path, "c.json", operator={"markov": "T1"},
                        output={"csv_path": str(csv)})
    assert main(["converge", "--config", str(cfgp)]) == 0
    cfgp = write_config(tmp_path, "plain.json", output={"csv_path": str(plain)})
    assert main(["converge", "--config", str(cfgp)]) == 0
    assert csv.read_text() == plain.read_text()


@pytest.mark.parametrize("command,experiment", [
    ("converge", {"n_list": [4, 16], "p": 2, "grid_resolution": 50}),
    ("preserve", {"n_list": [4, 16], "grid_resolution": 40}),
    ("moduli", {"delta_list": [0.5, 0.25], "grid_resolution": 40}),
], ids=["converge", "preserve", "moduli"])
def test_interval_spells_the_1_cube(tmp_path, command, experiment):
    # "interval" with T1 and a 1-d "hypercube" with Sd name one operator
    written = []
    for name, domain, markov in (("i", {"kind": "interval"}, "T1"),
                                 ("q", {"kind": "hypercube", "dim": 1}, "Sd")):
        csv = tmp_path / f"{name}.csv"
        cfgp = write_config(tmp_path, f"{name}.json", domain=domain, operator={"markov": markov},
                            experiment=experiment, output={"csv_path": str(csv)})
        assert main([command, "--config", str(cfgp)]) == 0
        written.append(csv.read_bytes())
    assert written[0] == written[1]


def test_operator_markov_on_the_1_cube_spelled_hypercube_is_sd(tmp_path, capsys):
    cfgp = write_config(tmp_path, "c.json", domain={"kind": "hypercube", "dim": 1},
                        operator={"markov": "T1"})
    assert main(["converge", "--config", str(cfgp)]) == 2
    assert "the hypercube's Markov operator is 'Sd', got 'T1'" in capsys.readouterr().err


def test_exit_code_2_on_malformed_configs(tmp_path, capsys):
    # invalid JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["converge", "--config", str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err
    # missing file
    assert main(["converge", "--config", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()
    # schema violations carry the field path
    cases = [
        ({"operator": {"a": -2.0}}, "operator.a"),
        ({"domain": {"kind": "triangle"}}, "domain.kind"),
        ({"domain": {"kind": "interval", "dim": 2}}, "domain: interval domain must have dim=1"),
        ({"function": {"name": "nope"}}, "function"),
        ({"experiment": {"n_list": [4], "stride": 2}}, "experiment"),
        # the Gauss ladder's levels are fixed; no config sets them
        ({"experiment": {"n_list": [4], "quad_level": 8}},
         "experiment: unknown field(s) quad_level"),
        ({"experiment": {"n_list": [0]}}, "n_list"),
        ({"experiment": {"n_list": [4], "p": "inf"}}, "experiment.p"),
    ]
    for overrides, needle in cases:
        cfgp = write_config(tmp_path, "x.json", **overrides)
        assert main(["converge", "--config", str(cfgp)]) == 2, overrides
        assert needle in capsys.readouterr().err


def test_deeply_nested_config_exits_2(tmp_path, capsys):
    # JSON nests deeper than Python's recursion limit: json.load's
    # RecursionError escaped main() as a traceback with exit 1
    cfgp = write_config(
        tmp_path, "deep.json",
        operator={"a": 1.0, "measures": {"kind": "explicit_list", "measures": [
            {"kind": "discrete", "atoms": "DEEP", "weights": [1.0]}]}},
        experiment={"n_list": [1], "points": [[0.5]]},
    )
    depth = 10_000
    cfgp.write_text(cfgp.read_text().replace('"DEEP"', "[" * depth + "0.5" + "]" * depth))
    assert main(["eval", "--config", str(cfgp)]) == 2
    captured = capsys.readouterr()
    assert "nests too deeply" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("function, needle", [
    ({"name": "abs_dist", "params": [1.5]}, "outside the domain"),
    ({"name": "abs_dist", "params": [0.5, 0.5]}, "takes 1 parameter"),
    ({"name": "monomial", "params": [1, 0]}, "exponent"),
    ({"name": "wiggle", "params": []}, "unknown catalog function"),
])
def test_catalog_parameter_errors_exit_2(tmp_path, capsys, function, needle):
    cfgp = write_config(tmp_path, "f.json", function=function)
    assert main(["converge", "--config", str(cfgp)]) == 2
    captured = capsys.readouterr()
    assert "function: " in captured.err and needle in captured.err
    assert captured.out == ""


def test_exit_code_2_on_command_mismatch(tmp_path, capsys):
    cfgp = write_config(tmp_path, "c.json", experiment={"n_list": [4], "command": "eval"})
    assert main(["converge", "--config", str(cfgp)]) == 2
    assert "experiment.command" in capsys.readouterr().err


def test_dirac_needs_positive_a(tmp_path, capsys):
    cfgp = write_config(
        tmp_path, "d.json",
        operator={"a": 0.0, "measures": {"kind": "dirac_shift", "point": [0.5]}},
    )
    assert main(["converge", "--config", str(cfgp)]) == 2
    assert "dirac" in capsys.readouterr().err.lower()


def test_console_script_entry_point(tmp_path):
    cfgp = write_config(tmp_path, "c.json", experiment={"n_list": [4], "grid_resolution": 50})
    proc = subprocess.run(
        [sys.executable, "-m", "kantorov.cli", "converge", "--config", str(cfgp)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "sup_error" in proc.stdout


def test_converge_csv_does_not_depend_on_the_blas_threads(tmp_path):
    # the Q3-abs-leb benchmark run: its lp_error cells moved with 2 threads
    # while the L^p norms were BLAS dot products
    src = os.path.dirname(os.path.dirname(kantorov.__file__))
    csvs = []
    for threads in ("1", "2"):
        csv, cfgp = tmp_path / f"out{threads}.csv", tmp_path / f"q3-{threads}.json"
        cfgp.write_text(json.dumps({
            "domain": {"kind": "hypercube", "dim": 3},
            "operator": {"a": 1.0, "measures": {"kind": "constant_lebesgue"}},
            "function": {"name": "abs_dist", "params": [0.5, 0.5, 0.5]},
            "experiment": {"n_list": [2, 4], "grid_resolution": 12, "p": 2},
            "output": {"csv_path": str(csv)},
        }))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "kantorov.cli", "converge", "--config", str(cfgp)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        csvs.append(csv.read_bytes())
    assert csvs[0] == csvs[1]


def test_power_measure_config(tmp_path):
    csv = tmp_path / "pw.csv"
    cfgp = write_config(
        tmp_path, "pw.json",
        operator={"a": 2.0, "measures": {
            "kind": "power_of_base",
            "base": {"kind": "discrete", "atoms": [[0.0], [1.0]], "weights": [0.5, 0.5]},
            "exponent": 2,
        }},
        experiment={"n_list": [3], "grid_resolution": 50},
        output={"csv_path": str(csv)},
    )
    assert main(["verify", "--config", str(cfgp)]) == 0
    rows = csv.read_text().splitlines()[1:]
    assert all(r.endswith("true") for r in rows)


@pytest.mark.parametrize("domain,exponent", [
    ({"kind": "simplex", "dim": 3}, 3),  # (9^3)^3 nodes at level 8
    ({"kind": "hypercube", "dim": 3}, 20),  # (8 * 20)^3 = 4,096,000 nodes
])
def test_power_rule_over_the_node_budget_exits_before_any_work(tmp_path, capsys,
                                                                domain, exponent):
    csv = tmp_path / "pw.csv"
    cfgp = write_config(
        tmp_path, "pw.json",
        domain=domain,
        operator={"a": 1.0, "measures": {"kind": "power_of_base",
                                         "base": {"kind": "lebesgue"}, "exponent": exponent}},
        function={"name": "exp_sum", "params": []},
        experiment={"n_list": [2, 4], "grid_resolution": 4},
        output={"csv_path": str(csv)},
    )
    assert main(["converge", "--config", str(cfgp)]) == 2
    captured = capsys.readouterr()
    assert "operator.measures: n = 2" in captured.err and "rule nodes" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not csv.exists()


def test_unconverged_ladders_warn_and_are_counted(tmp_path, capsys):
    # the Gauss ladder stalls at its cap on the diagonal kink of |x_1 - x_2|,
    # which declares no breakpoints: one ladder per n, which sup_error runs
    # and lp_error reuses
    js = tmp_path / "out.json"
    cfgp = write_config(
        tmp_path, "c.json",
        domain={"kind": "hypercube", "dim": 2},
        function={"name": "abs_diff12", "params": []},
        experiment={"n_list": [4, 16], "p": 2, "grid_resolution": 100},
        output={"json_path": str(js)},
    )
    assert main(["converge", "--config", str(cfgp)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: 2 of 2 quadrature ladder(s)")
    quad = json.loads(js.read_text())["meta"]["quadrature"]
    assert quad.pop("max_residual") > 1e-11
    assert quad == {"ladders": 2, "exact": 0, "unconverged_at_cap": 2,
                    "stopped_by_node_budget": 0, "max_level": 32}


def test_declared_kinks_converge_with_a_rounding_residual(tmp_path, capsys):
    # |t - 1/2| declares its kink: the cut rule is exact at levels 8 and 16
    js = tmp_path / "out.json"
    cfgp = write_config(
        tmp_path, "c.json",
        experiment={"n_list": [4, 16], "p": 2, "grid_resolution": 100},
        output={"json_path": str(js)},
    )
    assert main(["converge", "--config", str(cfgp)]) == 0
    assert capsys.readouterr().err == ""
    quad = json.loads(js.read_text())["meta"]["quadrature"]
    assert quad.pop("max_residual") <= 1e-15
    assert quad == {"ladders": 2, "exact": 0, "unconverged_at_cap": 0,
                    "stopped_by_node_budget": 0, "max_level": 16}


def test_converged_ladders_do_not_warn(tmp_path, capsys):
    js = tmp_path / "out.json"
    cfgp = write_config(
        tmp_path, "c.json",
        function={"name": "exp_sum", "params": []},
        experiment={"n_list": [4, 16], "p": 2, "grid_resolution": 100},
        output={"json_path": str(js)},
    )
    assert main(["converge", "--config", str(cfgp)]) == 0
    assert capsys.readouterr().err == ""
    quad = json.loads(js.read_text())["meta"]["quadrature"]
    assert quad.pop("max_residual") <= 1e-11
    assert quad == {"ladders": 2, "exact": 0, "unconverged_at_cap": 0,
                    "stopped_by_node_budget": 0, "max_level": 16}


def test_short_explicit_list_is_a_config_error(tmp_path, capsys):
    # one measure serves n = 1 only; n = 3 used to escape as an IndexError
    cfgp = write_config(
        tmp_path, "e.json",
        operator={"a": 1.0, "measures": {"kind": "explicit_list",
                                         "measures": [{"kind": "lebesgue"}]}},
        experiment={"n_list": [1, 3], "grid_resolution": 50},
    )
    assert main(["converge", "--config", str(cfgp)]) == 2
    captured = capsys.readouterr()
    assert "operator.measures.measures" in captured.err and "n = 3" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""



@pytest.mark.parametrize("command,experiment,needle", [
    # a traceback (OverflowError of C(2000, l) as a float) escaped main()
    ("moduli", {"k": 2000}, "experiment.k: difference order k = 2000 is too large"),
])
def test_work_bounds_exit_2_before_any_work(tmp_path, capsys, command, experiment, needle):
    csv = tmp_path / "out.csv"
    cfgp = write_config(tmp_path, "c.json", experiment=experiment,
                        output={"csv_path": str(csv)})
    assert main([command, "--config", str(cfgp)]) == 2
    captured = capsys.readouterr()
    assert needle in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not csv.exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e309", "1" + "0" * 400])
@pytest.mark.parametrize("command,field,path", [
    ("moduli", "delta_list", "experiment.delta_list[1]"),
    ("converge", "p", "experiment.p"),
])
def test_non_finite_config_numbers_exit_2(tmp_path, capsys, literal, command, field, path):
    # json.load reads NaN and Infinity, and 1e309 as inf; a NaN delta
    # used to escape main() as a ValueError and p = Infinity to print
    # lp_error=1 with exit 0
    value = [0.25, "@"] if field == "delta_list" else "@"
    cfgp = write_config(tmp_path, "c.json", experiment={"n_list": [4], field: value})
    cfgp.write_text(cfgp.read_text().replace('"@"', literal))
    assert main([command, "--config", str(cfgp)]) == 2
    captured = capsys.readouterr()
    assert f"{path}: expected a finite number" in captured.err
    assert captured.out == ""


def test_nan_discrete_weight_is_a_config_error(tmp_path, capsys):
    cfgp = write_config(
        tmp_path, "e.json",
        operator={"a": 1.0, "measures": {"kind": "explicit_list", "measures": [
            {"kind": "discrete", "atoms": [[0.2], [0.8]], "weights": [float("nan"), 0.5]},
        ]}},
        experiment={"n_list": [1], "points": [[0.5]]},
    )
    assert main(["eval", "--config", str(cfgp)]) == 2
    captured = capsys.readouterr()
    assert "operator.measures.measures[0]" in captured.err and "finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("measures,path", [
    ({"kind": "explicit_list", "measures": [
        {"kind": "power", "base": {"kind": "power", "exponent": 2}, "exponent": 2}]},
     "operator.measures.measures[0]"),
    ({"kind": "power_of_base", "base": {"kind": "power", "exponent": 2}, "exponent": 3},
     "operator.measures"),
])
def test_nested_power_measure_is_a_config_error_at_its_path(tmp_path, capsys, measures, path):
    cfgp = write_config(tmp_path, "e.json", operator={"a": 1.0, "measures": measures},
                        experiment={"n_list": [1], "points": [[0.5]]})
    assert main(["eval", "--config", str(cfgp)]) == 2
    captured = capsys.readouterr()
    assert f"{path}: nested power measures are not supported" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_discrete_atom_outside_the_domain_is_a_config_error(tmp_path, capsys):
    cfgp = write_config(
        tmp_path, "e.json",
        operator={"a": 1.0, "measures": {"kind": "explicit_list", "measures": [
            {"kind": "discrete", "atoms": [[0.2], [1.5]], "weights": [0.5, 0.5]},
        ]}},
        experiment={"n_list": [1], "points": [[0.5]]},
    )
    assert main(["eval", "--config", str(cfgp)]) == 2
    captured = capsys.readouterr()
    assert "operator.measures.measures[0]: atom [1.5] lies outside" in captured.err
    assert captured.out == ""


def _nested(value, depth):
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("atoms,error", [
    ([[0.1], "x"], ".atoms[1]: expected a number, got 'x'"),
    ({"a": 1}, ".atoms: expected a number, got {'a': 1}"),
    ([[10**400]], f".atoms[0][0]: expected a finite number, got {10**400}"),
    # deeper than Python's stack would allow a recursive walk
    (_nested(0.5, 500), ": discrete measure atoms and weights must be numbers"),
], ids=["string", "object", "beyond-float", "deep"])
def test_junk_discrete_atoms_are_a_config_error_at_their_path(tmp_path, capsys, atoms, error):
    cfgp = write_config(
        tmp_path, "e.json",
        operator={"a": 1.0, "measures": {"kind": "explicit_list", "measures": [
            {"kind": "discrete", "atoms": atoms, "weights": [1.0]},
        ]}},
        experiment={"n_list": [1], "points": [[0.5]]},
    )
    assert main(["eval", "--config", str(cfgp)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: operator.measures.measures[0]{error}\n"
    assert captured.out == ""


def _discrete(atoms, weights):
    return {"a": 1.0, "measures": {"kind": "explicit_list", "measures": [
        {"kind": "discrete", "atoms": atoms, "weights": weights}]}}


@pytest.mark.parametrize("overrides,error", [
    ({"operator": _discrete([["0.25"]], [1.0])},
     "operator.measures.measures[0].atoms[0][0]: expected a number, got '0.25'"),
    ({"operator": _discrete([[0.25]], [True])},
     "operator.measures.measures[0].weights[0]: expected a number, got True"),
    ({"function": {"name": "abs_dist", "params": ["0.5"]}},
     "function.params[0]: expected a number, got '0.5'"),
], ids=["string-atom", "boolean-weight", "string-param"])
def test_strings_and_booleans_are_not_numbers(tmp_path, capsys, overrides, error):
    # numpy and float() would read each of these as a number, and eval exited 0
    cfgp = write_config(tmp_path, "e.json", experiment={"n_list": [1], "points": [[0.5]]},
                        **overrides)
    assert main(["eval", "--config", str(cfgp)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {error}\n"
    assert captured.out == ""


@pytest.mark.parametrize("atoms,weights,shapes", [
    ([[0.1]], [[1.0]], "(1, 1) and (1, 1)"),
    ([[0.1], [0.2]], [[0.5], [0.5]], "(2, 1) and (2, 1)"),
    ([[0.1]], [[]], "(1, 1) and (1, 0)"),
    ([[[0.1]]], [1.0], "(1, 1, 1) and (1,)"),
], ids=["nested-weight", "nested-weights", "empty-nested-weight", "nested-atom"])
def test_nested_discrete_atoms_or_weights_are_a_config_error_at_their_path(
        tmp_path, capsys, atoms, weights, shapes):
    cfgp = write_config(
        tmp_path, "e.json",
        operator={"a": 1.0, "measures": {"kind": "explicit_list", "measures": [
            {"kind": "discrete", "atoms": atoms, "weights": weights},
        ]}},
        experiment={"n_list": [1], "points": [[0.5]]},
    )
    assert main(["eval", "--config", str(cfgp)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("config error: operator.measures.measures[0]: discrete measure "
                            "atoms must be a list of points and weights a list of numbers, "
                            f"got shapes {shapes}\n")
    assert captured.out == ""


# Small valid configs, one per subcommand, each a fraction of a second to
# run; together they reach every measure kind and bound id.
_FUZZ_BASES = {
    "eval": {
        "domain": {"kind": "simplex", "dim": 2},
        "operator": {"a": 1.0, "measures": {"kind": "explicit_list", "measures": [
            {"kind": "discrete", "atoms": [[0.2, 0.2], [0.5, 0.1]], "weights": [0.5, 0.5]},
            {"kind": "power", "base": {"kind": "lebesgue"}, "exponent": 2},
        ]}},
        "function": {"name": "exp_sum", "params": []},
        "experiment": {"n_list": [1, 2], "points": [[0.25, 0.5]]},
        "seed": 3,
    },
    "converge": {
        "domain": {"kind": "interval", "dim": 1},
        "operator": {"markov": "T1", "a": 1.0, "measures": {
            "kind": "power_of_base", "base": {"kind": "lebesgue"}, "exponent": 2}},
        "function": {"name": "abs_dist", "params": [0.5]},
        "experiment": {"n_list": [2, 4], "grid_resolution": 20, "p": 2.0,
                       "bounds": ["omega_total", "omega_pointwise"]},
    },
    "moduli": {
        "domain": {"kind": "hypercube", "dim": 2},
        "operator": {"a": 0.5, "measures": {"kind": "dirac_shift", "point": [0.5, 0.25]}},
        "function": {"name": "runge", "params": []},
        "experiment": {"delta_list": [0.5, 0.25], "grid_resolution": 8, "p": 1.5, "k": 2},
    },
    "verify": {
        "domain": {"kind": "interval", "dim": 1},
        "operator": {"a": 2.0},
        "function": {"name": "runge", "params": []},
        "experiment": {"n_list": [2], "grid_resolution": 10, "p": 2,
                       "bounds": ["omega_uniform", "lambda_p_bound", "lp_equibounded"]},
    },
    "preserve": {
        "domain": {"kind": "simplex", "dim": 2},
        "operator": {"a": 1.0},
        "function": {"name": "exp_sum", "params": []},
        "experiment": {"n_list": [2], "grid_resolution": 4},
    },
}
# [[0.5], [0.5]]: a nested list of the length of the two-atom weights
_FUZZ_VALUES = [math.nan, math.inf, -math.inf, -1, 0, True, "x", "0.5", [], 2**64, 10**400,
                [[0.5], [0.5]]]


def _field_paths(node, prefix=()):
    """The path of every object member and list entry below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _field_paths(child, prefix + (key,))


_FUZZ_FIELDS = [(command, path) for command, base in _FUZZ_BASES.items()
                for path in _field_paths(base)]


@pytest.mark.parametrize("command", sorted(_FUZZ_BASES))
def test_fuzz_bases_pass(tmp_path, command):
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps(_FUZZ_BASES[command]))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, "--config", str(cfgp)]) == 0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(field=st.sampled_from(_FUZZ_FIELDS), value=st.sampled_from(_FUZZ_VALUES))
def test_random_cli_configs_never_crash(tmp_path_factory, field, value):
    # one field of a valid config set to a bad value: the CLI answers with
    # an exit code, never with an exception out of main()
    command, path = field
    doc = copy.deepcopy(_FUZZ_BASES[command])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    cfgp = tmp_path_factory.mktemp("fuzz") / "c.json"
    cfgp.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, "--config", str(cfgp)])
    # no field takes a string or a boolean in place of what it holds
    assert code == 2 if isinstance(value, (str, bool)) else code in (0, 1, 2)


def test_main_builds_its_parser_once(tmp_path, monkeypatch, capsys):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None, raising=False)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cfgp = write_config(tmp_path, "e.json", experiment={"n_list": [3], "points": [0.2]})
    assert main(["eval", "--config", str(cfgp)]) == 0
    assert main(["eval", "--config", str(tmp_path / "missing.json")]) == 2
    with pytest.raises(SystemExit) as exit_:
        main(["converge"])
    assert exit_.value.code == 2
    assert "--config" in capsys.readouterr().err
    assert len(built) == 1
