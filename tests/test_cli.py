import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import su2pair
from su2pair import thermo, verify
from su2pair.cli import main
from su2pair.hamiltonian import CaseKind, CoefficientSet
from su2pair.serialization import coefficient_set_from_dict, format_float

from references import band_columns, coefficient_set_to_dict, log_partition_numeric

ENTANGLED = {
    "upsilon": 0.0,
    "alpha": [0, 0, 1],
    "beta": [0, 0, 0],
    "omega": [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
}

# The XYZ exchange model: no local fields, full-rank diagonal omega.
XYZ = {
    "upsilon": 0.0,
    "alpha": [0, 0, 0],
    "beta": [0, 0, 0],
    "omega": [[1, 0, 0], [0, 2, 0], [0, 0, 3]],
}


@pytest.fixture
def entangled_file(tmp_path):
    path = tmp_path / "entangled.json"
    path.write_text(json.dumps(ENTANGLED))
    return path


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestSerialization:
    def test_round_trip(self):
        c = CoefficientSet(0.25, (1, 2, 3), (4, 5, 6), np.arange(9.0).reshape(3, 3))
        back = coefficient_set_from_dict(coefficient_set_to_dict(c))
        assert back.upsilon == c.upsilon
        assert np.array_equal(back.omega, c.omega)

    def test_seventeen_digit_floats_round_trip(self, rng):
        for _ in range(200):
            x = float(rng.normal() * 10.0 ** rng.integers(-8, 8))
            assert float(format_float(x)) == x

    def test_bad_payloads(self):
        from su2pair.errors import InputFormatError

        for payload in (
            [],
            {"upsilon": 0},
            {**ENTANGLED, "alpha": [0, 0]},
            {**ENTANGLED, "omega": [[0] * 3] * 2},
            {**ENTANGLED, "upsilon": "spam"},
            {**ENTANGLED, "upsilon": float("nan")},
        ):
            with pytest.raises(InputFormatError):
                coefficient_set_from_dict(payload)


    @pytest.mark.parametrize("key, value", [
        ("upsilon", "0.5"),
        ("upsilon", True),
        ("alpha", ["1", 0, 0]),
        ("alpha", [1, True, 0]),
        ("beta", [0, 0, "1e-3"]),
        ("omega", [[1, 0, 0], [0, 1, 0], [0, 0, False]]),
        ("omega", [[1, 0, 0], [0, 1, 0], "001"]),
    ])
    def test_entries_must_be_json_numbers(self, key, value):
        """A string or a boolean is no number, though float() takes it."""
        from su2pair.errors import InputFormatError

        with pytest.raises(InputFormatError, match=f"^{key} entries must be JSON numbers, not "):
            coefficient_set_from_dict({**ENTANGLED, key: value})

    @pytest.mark.parametrize("key, value, message", [
        ("upsilon", 10**400, "coefficients must be finite"),
        ("upsilon", float("nan"), "upsilon must be finite"),
        ("alpha", [0, 0, float("inf")], "coefficients must be finite"),
        ("omega", [[0, 0, 0], [0, -(10**400), 0], [0, 0, 0]], "coefficients must be finite"),
    ], ids=["upsilon-huge-integer", "upsilon-nan", "alpha-inf", "omega-huge-integer"])
    def test_entries_beyond_the_doubles_must_be_finite(self, key, value, message):
        from su2pair.errors import InputFormatError

        with pytest.raises(InputFormatError, match=f"^{message}"):
            coefficient_set_from_dict({**ENTANGLED, key: value})

    def test_strings_and_booleans_exit_2(self, tmp_path, capsys):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps({"upsilon": "0.5", "alpha": ["1", True, 0],
                                    "beta": [0, 0, "1e-3"],
                                    "omega": [[1, 0, 0], [0, 1, 0], [0, 0, False]]}))
        assert main(["classify", "--input", str(path)]) == 2
        assert capsys.readouterr() == (
            "", "error: upsilon entries must be JSON numbers, not '0.5'\n"
        )

    @pytest.mark.parametrize("key, value, message", [
        ("upsilon", [1], "upsilon must be a number"),
        ("alpha", [0, [0], 1], "alpha must be 3 numbers"),
        ("beta", [0, 0, [0]], "beta must be 3 numbers"),
        ("omega", [[1, 0, 0], [0, 1], [0, 0, 0]], "omega must be 3 rows of 3 numbers"),
    ])
    def test_wrong_nesting_names_the_key_and_its_layout(self, key, value, message, tmp_path,
                                                       capsys):
        """Every entry is a JSON number: the message names the key and the
        layout it needs."""
        path = tmp_path / "nested.json"
        path.write_text(json.dumps({**ENTANGLED, key: value}))
        assert main(["classify", "--input", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestSolveCommand:
    def test_entangled_file(self, entangled_file, tmp_path, capsys):
        out = tmp_path / "eig.json"
        assert main(["solve", "--input", str(entangled_file), "--output", str(out)]) == 0
        text = capsys.readouterr().out
        assert "entangled-closed-form" in text
        payload = json.loads(out.read_text())
        assert payload["method"] == "entangled-closed-form"
        values = sorted(e["value"] for e in payload["eigenvalues"])
        assert np.allclose(values, [-np.sqrt(5), -1, 1, np.sqrt(5)])
        state = np.array(payload["states"][0])
        assert state.shape == (4, 4, 2)

    def test_zero_set(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(
            json.dumps({"upsilon": 0.5, "alpha": [0, 0, 0], "beta": [0, 0, 0],
                        "omega": [[0, 0, 0]] * 3})
        )
        assert main(["solve", "--input", str(path)]) == 0
        assert "0.5" in capsys.readouterr().out

    def test_overflowing_composition(self, tmp_path, capsys):
        """A general set whose matrix overflows is an invariant violation."""
        path = tmp_path / "overflow.json"
        path.write_text(
            json.dumps({"upsilon": 0.0, "alpha": [0, 0, 1e308], "beta": [0, 0, 1e308],
                        "omega": (1e308 * np.eye(3)).tolist()})
        )
        with np.errstate(over="ignore"):
            assert main(["solve", "--input", str(path)]) == 3
        assert capsys.readouterr() == (
            "", "invariant violation: eig_hermitian input contains non-finite entries\n"
        )

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", "--input", str(path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["solve", "--input", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("command", [
        ["classify"], ["solve"], ["thermo", "--tmin", "1", "--tmax", "2", "--output", "x.csv"],
    ], ids=lambda argv: argv[0])
    def test_input_that_is_not_utf8_exits_2(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "utf16.json").write_bytes(b"\xff\xfe{\x00}\x00")
        assert main([command[0], "--input", "utf16.json", *command[1:]]) == 2
        assert capsys.readouterr() == ("", (
            "error: cannot read utf16.json: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte\n"
        ))
        assert not (tmp_path / "x.csv").exists()

    def test_json_nested_too_deeply_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        depth = 100_000
        nested = "[" * depth + "0" + "]" * depth
        path.write_text(json.dumps({**ENTANGLED, "alpha": None}).replace("null", nested))
        assert main(["classify", "--input", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {path} is not valid JSON: nested too deeply\n")

    def test_non_finite_coefficients(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({**ENTANGLED, "upsilon": "NaN"}))
        # json accepts NaN spelled as a bare token only; as a string it is a
        # format error either way.
        assert main(["solve", "--input", str(path)]) == 2


class TestClassifyCommand:
    def test_reports_case(self, entangled_file, capsys):
        assert main(["classify", "--input", str(entangled_file)]) == 0
        out = capsys.readouterr().out
        assert "entangled-constrained" in out
        assert "residual" in out

    def test_diagonal_omega_is_general(self, tmp_path, capsys):
        path = tmp_path / "xyz.json"
        path.write_text(json.dumps(XYZ))
        assert main(["classify", "--input", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "case: general"
        assert [line.split()[1] for line in lines[1:]] == [
            "alpha_constraint", "beta_constraint", "det_omega", "factor_consistency",
            "rank1", "s_cubic",
        ]


def test_cli_import_leaves_verify_unloaded():
    """Only the verify subcommand loads the suites and their samplers."""
    probe = (
        "import sys, su2pair.cli; "
        "print(sorted({'su2pair.verify', 'su2pair.sampling'} & set(sys.modules)))"
    )
    src = str(Path(su2pair.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "[]"


class TestQuarticCommand:
    def test_roots(self, capsys):
        assert main(["quartic", "--coeffs", "1", "0", "-5", "0", "4"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert len(out) == 4
        reals = sorted(float(line.split()[0]) for line in out)
        assert np.allclose(reals, [-2, -1, 1, 2], atol=1e-9)

    @pytest.mark.parametrize(
        "coeffs, message",
        [
            ("nan 0 0 0 1", "--coeffs must be finite"),
            ("1 inf 0 0 1", "--coeffs must be finite"),
            ("1 0 nan 0 0", "--coeffs must be finite"),
            ("0 1 1 1 1", "--coeffs: leading coefficient is zero: not a quartic"),
            ("-0 1 1 1 1", "--coeffs: leading coefficient is zero: not a quartic"),
        ],
    )
    def test_coefficients_that_are_no_quartic_are_usage_errors(self, coeffs, message, capsys):
        """Non-finite coefficients used to print four 'nan - nani' roots
        and exit 0, and a zero leading coefficient exited 3."""
        assert main(["quartic", "--coeffs", *coeffs.split()]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_non_finite_roots_are_invariant_violations(self, capsys):
        """A leading coefficient of 1e-300 overflows the monic coefficients:
        the command used to print four 'nan - nani' roots and exit 0."""
        assert main(["quartic", "--coeffs", "1e-300", "1", "0", "0", "1"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("invariant violation: ") and "not finite" in err

    def test_any_other_value_error_exits_3(self, monkeypatch, capsys):
        """A ValueError that is neither a usage error nor a named invariant
        violation is still a numeric failure: exit 3, no traceback."""
        from su2pair import quartic

        def failing(*coeffs):
            raise ValueError("no roots")

        monkeypatch.setattr(quartic, "solve_quartic", failing)
        assert main(["quartic", "--coeffs", "1", "0", "0", "0", "-1"]) == 3
        assert capsys.readouterr() == ("", "error: no roots\n")


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        assert main(["verify", "--samples", "20", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "numpy-PCG64" in out
        assert "all suites passed" in out

    def test_deterministic_output(self, capsys):
        main(["verify", "--samples", "15", "--seed", "7"])
        first = capsys.readouterr().out
        main(["verify", "--samples", "15", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second

    def test_zero_samples_usage_error(self):
        assert main(["verify", "--samples", "0"]) == 2

    def test_negative_seed_usage_error(self, capsys):
        """numpy refuses a negative seed with a ValueError, which would
        exit 3; it is refused first as a usage error."""
        assert main(["verify", "--samples", "5", "--seed", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: --seed must be non-negative")

    def test_named_suite(self, capsys):
        code = main(
            ["verify", "--samples", "10", "--seed", "3", "--suite", "thermal-concurrence"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "thermal-concurrence" in out
        assert "outside commuting regime" in out

    def test_unknown_suite(self):
        assert main(["verify", "--samples", "5", "--suite", "spam"]) == 2

    def test_unknown_suite_message_is_bare(self, capsys):
        """The message prints as every other usage error does, without the
        quotes of a KeyError's repr."""
        assert main(["verify", "--suite", "nope"]) == 2
        assert capsys.readouterr() == (
            "",
            "error: unknown suite 'nope'; choices: ['concurrence-routes', "
            "'oracle-equivalence', 'orthonormality', 'partition-function', "
            "'solver-dispatch', 'thermal-concurrence']\n",
        )

    def test_thermal_suites_fail_when_every_set_reads_general(self, monkeypatch, capsys):
        """With the sweep's route decision sending every set to the
        definition route, product sets read flag 2 and so do the commuting
        family and the constrained sets: both thermal suites must fail."""
        decide = thermo._decide

        def general(c):
            d = decide(c)[2]
            return CaseKind.GENERAL, None, dataclasses.replace(
                d, alpha_null=False, beta_null=False), None, None

        monkeypatch.setattr(thermo, "_decide", general)
        argv = ["verify", "--samples", "20", "--seed", "0",
                "--suite", "partition-function", "--suite", "thermal-concurrence"]
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("partition-function") and "FAIL" in lines[1]
        assert "product set read flag 2" in lines[1]
        assert lines[2].startswith("thermal-concurrence") and "FAIL" in lines[2]
        assert "commuting family flagged unreliable" in lines[2]

    def test_thermal_suites_fail_when_constrained_sets_read_flag_2(self, monkeypatch, capsys):
        """With the sweep reading the definition-route flag 2 wherever its
        closed forms read 1, product and commuting sets keep flag 0 and the
        constrained sets fail both thermal suites."""
        sweep = verify.thermal_sweep

        def flag_2_for_1(c, temps, branch=thermo.EnsembleBranch.FULL):
            s = sweep(c, temps, branch)
            return {**s, "flag": np.where(s["flag"] == 1, 2, s["flag"])}

        monkeypatch.setattr(verify, "thermal_sweep", flag_2_for_1)
        argv = ["verify", "--samples", "20", "--seed", "0",
                "--suite", "partition-function", "--suite", "thermal-concurrence"]
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        for line, name in zip(lines[1:3], ("partition-function", "thermal-concurrence")):
            assert line.startswith(name) and "FAIL" in line
            assert "constrained set read flag 2" in line

    def test_run_suites_refuses_zero_samples(self):
        with pytest.raises(ValueError, match="^sample count must be at least 1$"):
            verify.run_suites(0, 0)

    @pytest.mark.parametrize("suites", [[], ["solver-dispatch"]], ids=["all", "named"])
    @pytest.mark.parametrize("samples", [1, 2])
    def test_too_few_draws_for_every_route_is_a_usage_error(self, samples, suites, capsys):
        """solver-dispatch reaches the oracle route on its third draw, so
        fewer read as a failed route although every deviation is round-off.
        The CLI refuses them as a usage error, and run_suites with a
        ValueError."""
        argv = ["verify", "--samples", str(samples)]
        for name in suites:
            argv += ["--suite", name]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", (
            f"error: --samples {samples} is below 3, the fewest that reach every "
            "solver-dispatch route\n"))
        with pytest.raises(ValueError, match="^solver-dispatch needs at least 3 samples"):
            verify.run_suites(samples, 0, ["orthonormality", *suites] if suites else None)

    def test_one_draw_runs_without_solver_dispatch(self, capsys):
        assert main(["verify", "--samples", "1", "--suite", "orthonormality"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "all suites passed"

    def test_concurrence_routes_fail_on_nan_where_alpha_vanishes(self, monkeypatch, capsys):
        """A closed form that reads NaN on the draws whose constrained
        vector is tiny or zero fails the suite: a NaN deviation is the
        worst, not dropped by max()."""
        closed = verify.eigenstate_concurrence_closed_form

        def nan_where_alpha_vanishes(c, m, n):
            return float("nan") if np.linalg.norm(c.alpha) < 1e-3 else closed(c, m, n)

        monkeypatch.setattr(verify, "eigenstate_concurrence_closed_form", nan_where_alpha_vanishes)
        argv = ["verify", "--samples", "20", "--seed", "0", "--suite", "concurrence-routes"]
        assert main(argv) == 1
        line = capsys.readouterr().out.splitlines()[1]
        assert line.startswith("concurrence-routes") and "max_dev=nan" in line and "FAIL" in line


class TestThermoCommand:
    def test_sweep_endpoints(self, entangled_file, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["thermo", "--input", str(entangled_file), "--tmin", "0.01",
             "--tmax", "100", "--steps", "50", "--output", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["T", "Z", "purity", "concurrence", "flag"]
        assert len(rows) == 50
        assert float(rows[0][0]) == 0.01
        assert float(rows[-1][0]) == 100.0
        assert float(rows[0][2]) >= 1 - 1e-6
        assert abs(float(rows[-1][2]) - 0.25) <= 1e-3

    def test_positive_branch(self, entangled_file, tmp_path):
        out = tmp_path / "pos.csv"
        code = main(
            ["thermo", "--input", str(entangled_file), "--tmin", "0.5",
             "--tmax", "5", "--steps", "5", "--branch", "positive",
             "--output", str(out)]
        )
        assert code == 0
        _, rows = read_csv(out)
        z = float(rows[0][1])
        t = float(rows[0][0])
        assert np.isclose(z, np.exp(-np.sqrt(5) / t) + np.exp(-1 / t))

    def test_overflowing_partition_function_reads_inf(self, tmp_path):
        """The general set's lowest level is -7.14: Z = e^714 at T = 0.01."""
        from su2pair.hamiltonian import fano_compose
        from su2pair.oracle import eig_hermitian

        path = tmp_path / "general.json"
        path.write_text(json.dumps(GENERAL))
        out = tmp_path / "sweep.csv"
        code = main(["thermo", "--input", str(path), "--tmin", "0.01", "--tmax", "100",
                     "--steps", "40", "--output", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        table = np.array(rows, dtype=float)
        levels = eig_hermitian(fano_compose(coefficient_set_from_dict(GENERAL))).eigenvalues
        scaled = -levels[None, :] / table[:, :1]
        top = scaled.max(axis=1)
        log_z = top + np.log(np.exp(scaled - top[:, None]).sum(axis=1))
        overflow = log_z > np.log(np.finfo(float).max)
        assert 0 < overflow.sum() < len(rows)
        assert np.all(np.isposinf(table[overflow, 1]))
        assert np.all(np.isfinite(table[~overflow]))
        assert np.all(np.isfinite(np.delete(table, 1, axis=1)))

    def test_xyz_exchange_takes_the_definition_route(self, tmp_path):
        """alpha = beta = 0 with full-rank omega is unconstrained: flag 2, dense Z."""
        path = tmp_path / "xyz.json"
        path.write_text(json.dumps(XYZ))
        out = tmp_path / "sweep.csv"
        code = main(["thermo", "--input", str(path), "--tmin", "0.1", "--tmax", "10",
                     "--steps", "9", "--output", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        table = np.array(rows, dtype=float)
        assert np.all(table[:, 4] == 2)
        want = np.exp(log_partition_numeric(coefficient_set_from_dict(XYZ), table[:, 0]))
        assert np.max(np.abs(table[:, 1] / want - 1.0)) <= 1e-12

    def test_xyz_exchange_positive_branch_is_a_usage_error(self, tmp_path):
        path = tmp_path / "xyz.json"
        path.write_text(json.dumps(XYZ))
        out = tmp_path / "x.csv"
        code = main(["thermo", "--input", str(path), "--tmin", "0.1", "--tmax", "10",
                     "--branch", "positive", "--output", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("scale, upsilon", [(1.0, 1e8), (2.0**-24, 0.0)],
                             ids=["upsilon-1e8", "scaled-2^-24"])
    def test_one_temperature_keeps_the_entangled_flag(self, scale, upsilon, tmp_path):
        """--steps 1 sweeps T = tmin alone.  The entangled set reads flag 1
        with upsilon = 1e8, and with the set and T scaled by 2^-24: the
        flag reads neither upsilon nor the global scale."""
        path, out = tmp_path / "set.json", tmp_path / "one.csv"
        path.write_text(json.dumps({
            "upsilon": upsilon, "alpha": [0, 0, scale], "beta": [0, 0, 0],
            "omega": [[scale, 0, 0], [0, scale, 0], [0, 0, 0]],
        }))
        t = format_float(scale)
        code = main(["thermo", "--input", str(path), "--tmin", t, "--tmax", t,
                     "--steps", "1", "--output", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        assert [(row[0], row[4]) for row in rows] == [(t, "1")]

    def test_bad_range(self, entangled_file, tmp_path):
        code = main(
            ["thermo", "--input", str(entangled_file), "--tmin", "-1",
             "--tmax", "5", "--output", str(tmp_path / "x.csv")]
        )
        assert code == 2


class TestGrapheneCommands:
    def test_bands_csv(self, tmp_path):
        out = tmp_path / "bands.csv"
        code = main(["graphene-bands", "--bias", "0.5", "--grid", "15", "--output", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["kx", "ky", "E1", "E2"]
        assert len(rows) == 15 * 15
        e1 = np.array([float(r[2]) for r in rows])
        e2 = np.array([float(r[3]) for r in rows])
        assert np.all(e2 >= e1) and np.all(e1 >= 0)

    def test_bands_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            main(["graphene-bands", "--bias", "1", "--grid", "9", "--output", str(path)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["graphene-bands", "--bias", "0.1"],
        ["graphene-concurrence", "--bias", "1", "--branch-n", "2", "--mask", "hex"],
    ], ids=lambda argv: argv[0])
    def test_figure_csv_is_the_same_bytes_in_every_process(self, argv, tmp_path):
        """The paper's two 201^2 figure commands, each run in two processes
        with different hash seeds, write byte-identical multi-chunk CSVs."""
        from su2pair.graphene import CHUNK_POINTS

        src = str(Path(su2pair.__file__).resolve().parent.parent)
        outputs = []
        for seed in ("1", "2"):
            out = tmp_path / f"{seed}.csv"
            subprocess.run(
                [sys.executable, "-m", "su2pair.cli", *argv, "--output", str(out)],
                capture_output=True, check=True,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            )
            outputs.append(out.read_bytes())
        assert outputs[0].count(b"\n") > CHUNK_POINTS + 1
        assert outputs[0] == outputs[1]

    def test_bands_hex_mask(self, tmp_path):
        full, masked = tmp_path / "f.csv", tmp_path / "m.csv"
        main(["graphene-bands", "--grid", "15", "--output", str(full)])
        main(["graphene-bands", "--grid", "15", "--mask", "hex", "--output", str(masked)])
        assert len(read_csv(masked)[1]) < len(read_csv(full)[1])

    def test_concurrence_csv(self, tmp_path):
        out = tmp_path / "conc.csv"
        code = main(
            ["graphene-concurrence", "--bias", "1", "--grid", "11",
             "--branch-m", "2", "--branch-n", "2", "--output", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["kx", "ky", "C", "flag"]
        for row in rows:
            assert 0.0 <= float(row[2]) <= 1.0
            assert row[3] in ("0", "1")

    def test_thermal_curve_at_dirac_point(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(
            ["graphene-thermal", "--tmin", "0.1", "--tmax", "10",
             "--steps", "20", "--output", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["T", "C", "flag"]
        values = [float(r[1]) for r in rows]
        assert values[0] > 0.9  # deep below the death temperature
        assert values[-1] == 0.0

    @pytest.mark.parametrize(
        "command", ["graphene-bands", "graphene-concurrence", "graphene-thermal"]
    )
    def test_parameters_past_the_structural_scale_are_usage_errors(
        self, command, tmp_path, capsys
    ):
        """A parameter beyond STRUCTURAL_SCALE is refused before any output.
        Such grids used to exit 0 with inf or nan cells, or exit 3."""
        out = tmp_path / "x.csv"
        for name in ("t", "t3", "tperp", "m", "bias"):
            for value in ("2e60", "1e155", "1e300", "-1e300"):
                assert main([command, f"--{name}={value}", "--output", str(out)]) == 2
                assert not out.exists()
                assert capsys.readouterr() == (
                    "", f"error: {name} = {float(value)!r} exceeds 1e+60 in magnitude\n"
                )

    @pytest.mark.parametrize(
        "command", ["graphene-bands", "graphene-concurrence", "graphene-thermal"]
    )
    def test_lattice_at_and_below_the_smallest_lattice(self, command, tmp_path, capsys):
        """At SMALLEST_LATTICE every graphene command writes finite cells;
        one double below it the command is refused before any output."""
        from su2pair.graphene import SMALLEST_LATTICE

        out = tmp_path / "x.csv"
        size = ["--steps", "5"] if command == "graphene-thermal" else ["--grid", "5"]
        argv = [command, *size, "--output", str(out)]
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            assert main([*argv, f"--lattice={SMALLEST_LATTICE!r}"]) == 0
        _, rows = read_csv(out)
        assert rows and np.isfinite(np.array(rows, dtype=float)).all()
        out.unlink()
        capsys.readouterr()
        below = float(np.nextafter(SMALLEST_LATTICE, 0.0))
        assert main([*argv, f"--lattice={below!r}"]) == 2
        assert not out.exists()
        assert capsys.readouterr() == (
            "", f"error: lattice = {below!r} is below {SMALLEST_LATTICE!r}, "
            "where the k-space window overflows\n"
        )

    @pytest.mark.parametrize(
        "command", ["graphene-bands", "graphene-concurrence", "graphene-thermal"]
    )
    def test_lattice_at_and_above_the_largest_lattice(self, command, tmp_path, capsys):
        """At LARGEST_LATTICE every graphene command writes finite cells;
        one double above it the command is refused before any output."""
        from su2pair.graphene import LARGEST_LATTICE

        out = tmp_path / "x.csv"
        size = ["--steps", "5"] if command == "graphene-thermal" else ["--grid", "5"]
        argv = [command, *size, "--output", str(out)]
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            assert main([*argv, f"--lattice={LARGEST_LATTICE!r}"]) == 0
        _, rows = read_csv(out)
        assert rows and np.isfinite(np.array(rows, dtype=float)).all()
        out.unlink()
        capsys.readouterr()
        above = float(np.nextafter(LARGEST_LATTICE, np.inf))
        assert main([*argv, f"--lattice={above!r}"]) == 2
        assert not out.exists()
        assert capsys.readouterr() == (
            "", f"error: lattice = {above!r} is above {LARGEST_LATTICE!r}, "
            "where the Dirac point overflows\n"
        )

    def test_thermal_curve_k_flags(self, tmp_path):
        code = main(
            ["graphene-thermal", "--kx", "0", "--output", str(tmp_path / "x.csv")]
        )
        assert code == 2

    @pytest.mark.parametrize("kx, ky", [("nan", "0"), ("0", "inf"), ("-inf", "nan")])
    def test_thermal_curve_at_a_non_finite_k(self, kx, ky, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["graphene-thermal", f"--kx={kx}", f"--ky={ky}", "--output", str(out)])
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr() == ("", "error: --kx and --ky must be finite\n")

    def test_csv_round_trip_exact(self, tmp_path):
        from su2pair.graphene import GrapheneParams, default_grid

        out = tmp_path / "bands.csv"
        main(["graphene-bands", "--bias", "0.3", "--grid", "7", "--output", str(out)])
        _, rows = read_csv(out)
        p = GrapheneParams(bias=0.3)
        data = band_columns(p, default_grid(p, 7))
        for row, e1, e2 in zip(rows, data["e1"], data["e2"]):
            assert float(row[2]) == e1
            assert float(row[3]) == e2


GENERAL = {
    "upsilon": 0.3,
    "alpha": [1, 2, 3],
    "beta": [3, 1, 2],
    "omega": [[1, 0.5, 0], [0.2, 2, 0.1], [0, 0.4, 3]],
}


@pytest.mark.parametrize(
    "argv",
    [
        ["thermo", "--input", "general.json", "--tmin", "0.5", "--tmax", "5",
         "--branch", "positive"],
        ["graphene-bands", "--t", "nan", "--grid", "5"],
        ["graphene-bands", "--grid", "1"],
        # The hex mask removes all four corners of a 2x2 grid.
        ["graphene-bands", "--grid", "2", "--mask", "hex"],
        ["graphene-concurrence", "--grid", "2", "--mask", "hex"],
        # Below graphene.SMALLEST_LATTICE the k-space window overflows.
        *[[command, "--lattice", lattice]
          for lattice in ("3e-308", "1e-310")
          for command in ("graphene-bands", "graphene-concurrence", "graphene-thermal")],
    ],
    ids=["positive-branch-unconstrained", "non-finite-hopping", "grid-too-small",
         "bands-fully-masked", "concurrence-fully-masked",
         *[f"{command}-lattice-{lattice}"
           for lattice in ("3e-308", "1e-310")
           for command in ("bands", "concurrence", "thermal")]],
)
def test_usage_errors_exit_2(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "general.json").write_text(json.dumps(GENERAL))
    assert main([*argv, "--output", "out.csv"]) == 2
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--input", "entangled.json"],
        ["thermo", "--input", "entangled.json", "--tmin", "1", "--tmax", "2", "--steps", "3"],
        ["graphene-bands", "--grid", "5"],
        ["graphene-concurrence", "--grid", "5"],
        ["graphene-thermal", "--steps", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_output_exits_2(argv, target, tmp_path, monkeypatch, capsys):
    """An --output that cannot be opened is a usage error, as an --input
    that cannot be read is, not a traceback, and nothing is printed."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "entangled.json").write_text(json.dumps(ENTANGLED))
    path = tmp_path / "absent" / "out" if target == "missing-directory" else tmp_path
    assert main([*argv, "--output", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: cannot write {path}: ")
    assert out == ""


GOLDEN_SETS = {
    "entangled": ENTANGLED,
    "general": GENERAL,
    "xyz": XYZ,
    # (2 I + s_x) (x) (0.5 I + s_z)
    "dyadic": {"upsilon": 1.0, "alpha": [0.5, 0, 0], "beta": [0, 0, 2.0],
               "omega": [[0, 0, 1.0], [0, 0, 0], [0, 0, 0]]},
    # The entangled set at 1e-3: its exponents overflow only where T/2 is
    # already subnormal.
    "small": {"upsilon": 0.0, "alpha": [0, 0, 1e-3], "beta": [0, 0, 0],
              "omega": [[1e-3, 0, 0], [0, 1e-3, 0], [0, 0, 0]]},
}


class TestSweepBounds:
    """Sweep bounds are usage errors (exit 2) unless every cell they give is
    finite: a bound must be finite, and the lowest temperature T must be at
    least twice the smallest normal double, with 16 S/T finite for the set's
    coefficient scale S."""

    @staticmethod
    def _run(tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        for name, payload in GOLDEN_SETS.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(payload))
        return main([*argv, "--output", "out.csv"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["thermo", "--input", "general.json", "--tmin", "0.1", "--tmax", "inf"],
            ["thermo", "--input", "entangled.json", "--tmin", "inf", "--tmax", "inf"],
            ["thermo", "--input", "entangled.json", "--tmin", "nan", "--tmax", "1"],
            ["graphene-thermal", "--tmax", "inf"],
            ["graphene-thermal", "--tmin", "0.1", "--tmax", "nan"],
        ],
        ids=["thermo-tmax-inf", "thermo-both-inf", "thermo-tmin-nan",
             "graphene-thermal-tmax-inf", "graphene-thermal-tmax-nan"],
    )
    def test_non_finite_bounds(self, argv, tmp_path, monkeypatch):
        assert self._run(tmp_path, monkeypatch, argv) == 2
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            # The parent wrote NaN purity (general) and NaN Z, purity and C
            # (entangled) here, and a purity of 0 at 3e-308.
            ["thermo", "--input", "general.json", "--tmin", "1e-310", "--tmax", "1"],
            ["thermo", "--input", "entangled.json", "--tmin", "1e-310", "--tmax", "1"],
            ["thermo", "--input", "entangled.json", "--tmin", "3e-308", "--tmax", "1"],
            ["thermo", "--input", "dyadic.json", "--tmin", "1e-309", "--tmax", "1"],
            ["graphene-thermal", "--tmin", "1e-310", "--tmax", "1"],
            # A normal T whose half is not exact: the parent wrote purity 0.
            ["thermo", "--input", "small.json", "--tmin", "2.892596016066276e-308",
             "--tmax", "1"],
        ],
        ids=["general-1e-310", "entangled-1e-310", "entangled-3e-308",
             "dyadic-1e-309", "graphene-thermal-1e-310", "small-inexact-half"],
    )
    def test_lowest_temperature_where_exponents_overflow(self, argv, tmp_path, monkeypatch,
                                                        capsys):
        assert self._run(tmp_path, monkeypatch, argv) == 2
        assert not (tmp_path / "out.csv").exists()
        assert capsys.readouterr().err.endswith(
            ": 16 S/T overflows, or T is below twice the smallest normal double\n"
        )

    @pytest.mark.parametrize("name", sorted(GOLDEN_SETS))
    def test_lowest_accepted_temperature_writes_finite_cells(self, name, tmp_path, monkeypatch):
        """Just above the refused range every purity and concurrence cell is
        finite and in [0, 1]; Z may read inf.  Just below it is refused."""
        import math
        import sys

        c = coefficient_set_from_dict(GOLDEN_SETS[name])
        scale = math.hypot(c.upsilon, *c.alpha, *c.beta, *c.omega.ravel())
        edge = max(16.0 * scale / sys.float_info.max, 2.0 * sys.float_info.min)
        branches = ["full", "positive"] if name == "entangled" else ["full"]
        for branch in branches:
            argv = ["thermo", "--input", f"{name}.json", "--tmax", "10", "--steps", "200",
                    "--branch", branch]
            below, above = repr(edge * (1 - 1e-9)), repr(edge * (1 + 1e-9))
            assert self._run(tmp_path, monkeypatch, [*argv, "--tmin", below]) == 2
            assert self._run(tmp_path, monkeypatch, [*argv, "--tmin", above]) == 0
            _, rows = read_csv(tmp_path / "out.csv")
            table = np.array(rows, dtype=float)
            z, pur, conc = table[:, 1], table[:, 2], table[:, 3]
            assert np.all(np.isfinite(z) | np.isposinf(z))
            assert np.all(np.isfinite(pur)) and np.all((pur >= 0.0) & (pur <= 1.0)), branch
            assert np.all(np.isfinite(conc)) and np.all((conc >= 0.0) & (conc <= 1.0)), branch
            (tmp_path / "out.csv").unlink()

    @pytest.mark.parametrize("point", [[], ["--bias", "0.5", "--kx", "0.3", "--ky", "2.2"]],
                             ids=["dirac-point", "biased-off-dirac"])
    def test_graphene_thermal_at_the_lowest_accepted_temperature(
        self, point, tmp_path, monkeypatch
    ):
        import math
        import sys

        from su2pair.graphene import GrapheneParams, find_dirac_point, map_to_su2su2

        p = GrapheneParams(bias=0.5 if point else 0.0)
        k = (0.3, 2.2) if point else find_dirac_point(p)
        c = map_to_su2su2(p, *k)
        scale = math.hypot(c.upsilon, *c.alpha, *c.beta, *c.omega.ravel())
        edge = max(16.0 * scale / sys.float_info.max, 2.0 * sys.float_info.min)
        argv = ["graphene-thermal", *point, "--tmax", "10", "--steps", "200"]
        below, above = repr(edge * (1 - 1e-9)), repr(edge * (1 + 1e-9))
        assert self._run(tmp_path, monkeypatch, [*argv, "--tmin", below]) == 2
        assert self._run(tmp_path, monkeypatch, [*argv, "--tmin", above]) == 0
        _, rows = read_csv(tmp_path / "out.csv")
        conc = np.array(rows, dtype=float)[:, 1]
        assert np.all(np.isfinite(conc)) and np.all((conc >= 0.0) & (conc <= 1.0))


class TestSizeLimits:
    def test_oversized_grid_rejected_before_building(self, tmp_path, monkeypatch):
        from su2pair import cli, graphene

        def no_grid(*_):
            raise AssertionError("grid was built")

        monkeypatch.setattr(graphene.GridSpec, "axes", no_grid)
        for cmd in ("graphene-bands", "graphene-concurrence"):
            argv = [cmd, "--grid", "100000", "--output", str(tmp_path / "x.csv")]
            assert main(argv) == 2
            assert main([cmd, "--grid", str(cli.MAX_GRID + 1), *argv[3:]]) == 2

    def test_oversized_sweep_rejected_before_running(
        self, entangled_file, tmp_path, monkeypatch
    ):
        from su2pair import cli

        def no_sweep(*_):
            raise AssertionError("sweep ran")

        monkeypatch.setattr(thermo, "thermal_sweep", no_sweep)
        steps = ["--steps", str(cli.MAX_STEPS + 1), "--output", str(tmp_path / "x.csv")]
        sweep = ["thermo", "--input", str(entangled_file), "--tmin", "0.1", "--tmax", "1"]
        assert main([*sweep, *steps]) == 2
        assert main(["graphene-thermal", *steps]) == 2

    def test_oversized_verify_rejected_before_any_suite(self, monkeypatch, capsys):
        from su2pair import cli

        def no_suites(*_):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(verify, "run_suites", no_suites)
        assert main(["verify", "--samples", str(cli.MAX_SAMPLES + 1)]) == 2
        assert capsys.readouterr() == (
            "", f"error: --samples {cli.MAX_SAMPLES + 1} exceeds the limit of 100000\n"
        )

    def test_limits_admit_defaults_and_benchmark_sizes(self):
        from su2pair import cli

        parser = cli.build_parser()
        grid = parser.parse_args(["graphene-bands", "--output", "x.csv"]).grid
        steps = parser.parse_args(["graphene-thermal", "--output", "x.csv"]).steps
        samples = parser.parse_args(["verify"]).samples
        assert max(grid, 101) <= cli.MAX_GRID
        assert max(steps, 1000) <= cli.MAX_STEPS
        # CI's largest verify run.
        assert max(samples, 20_000) <= cli.MAX_SAMPLES


def test_usage_error_without_subcommand():
    assert main([]) == 2


def test_help_exits_zero():
    assert main(["--help"]) == 0


class TestNegativeValuesInExponentForm:
    """A negative number in exponent form is an option's value, as -1 is,
    on every Python: argparse before 3.13 reads it as an unknown option."""

    def test_quartic_coefficients(self, capsys):
        assert main(["quartic", "--coeffs", "1", "0", "-5e0", "0", "4"]) == 0
        out = capsys.readouterr().out
        assert main(["quartic", "--coeffs", "1", "0", "-5", "0", "4"]) == 0
        assert out == capsys.readouterr().out
        assert len(out.splitlines()) == 4

    def test_graphene_bands_bias(self, tmp_path, capsys):
        for name, bias in (("a.csv", ["--bias", "-1e-3"]), ("b.csv", ["--bias=-1e-3"])):
            argv = ["graphene-bands", "--grid", "5", *bias, "--output", str(tmp_path / name)]
            assert main(argv) == 0
        assert capsys.readouterr().out.count("25 points written to") == 2
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("command, values", [
        ("graphene-thermal", {"--kx": "-1E-1", "--ky": "-.5e+0", "--tmin": "1e-2",
                              "--bias": "-2.e3", "--output": "-1e-3"}),
        ("thermo", {"--input": "-7e0", "--tmin": "-1e-2", "--tmax": "-3.5E2",
                    "--output": "-1e-3"}),
        ("verify", {"--suite": "-1e0"}),
    ])
    def test_values_read_as_after_an_equals_sign(self, command, values, monkeypatch):
        """Each option, a string one included, reads what --option=value reads."""
        from su2pair import cli

        seen = []
        monkeypatch.setitem(cli._HANDLERS, command, lambda args: seen.append(vars(args)))
        assert main([command, *(x for item in values.items() for x in item)]) is None
        assert main([command, *(f"{option}={value}" for option, value in values.items())]) is None
        assert seen[0] == seen[1]

    @pytest.mark.parametrize("argv", [
        ["graphene-bands", "--grid", "-1e3", "--output", "x.csv"],
        ["graphene-bands", "--mask", "-1e0", "--output", "x.csv"],
        ["graphene-concurrence", "--branch-m", "-1e0", "--output", "x.csv"],
        ["quartic", "--coeffs", "1", "0", "0", "0", "-1", "-5e0"],
        ["quartic", "--coeffs", "1", "-5e0", "-h"],
        ["quartic", "-h", "--coeffs", "1", "-5e0"],
        ["-1e3"],
    ], ids=lambda argv: " ".join(argv))
    def test_where_they_cannot_be_values_argparse_answers(self, argv, capsys):
        """An option that takes no such value keeps argparse's own exit code
        and bytes: those of the complete parser."""
        from su2pair import cli

        seen = (main(argv), *capsys.readouterr())
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            code = exc.code
        assert seen == (code, *capsys.readouterr())


# An option of each subcommand that takes a value.
VALUED_OPTION = {
    "solve": "--input", "classify": "--input", "quartic": "--coeffs", "verify": "--samples",
    "thermo": "--tmin", "graphene-bands": "--grid", "graphene-concurrence": "--branch-m",
    "graphene-thermal": "--kx",
}
# Every subcommand with help, with no options, with an unknown option, with
# one followed by values and with an option missing its value, and the
# top level's own cases.
PARSE_CASES = [
    [], ["-h"], ["-h", "thermo"], ["no-such-command"], ["--bogus"],
    ["--bogus", "quartic", "--coeffs", "1", "0", "0", "0", "-1"],
    *([name, *tail] for name, option in VALUED_OPTION.items()
      for tail in (["-h"], [], ["--bogus"], ["--bogus", "1", "2"], [option])),
]


class TestSharedParser:
    """``main`` builds its parser once per process and reuses it."""

    @pytest.fixture
    def builds(self):
        """The number of times the shared parser has been built since the
        fixture cleared it."""
        from su2pair import cli

        cli._shared_parser.cache_clear()
        return lambda: cli._shared_parser.cache_info().misses

    @pytest.fixture
    def seen(self, monkeypatch):
        """The parsed arguments of each graphene-concurrence and verify call."""
        from su2pair import cli

        calls = []

        def record(args):
            calls.append(args)
            return 0

        for command in ("graphene-concurrence", "verify"):
            monkeypatch.setitem(cli._HANDLERS, command, record)
        return calls

    def test_built_once_over_many_calls(self, builds, capsys):
        for _ in range(5):
            assert main(["quartic", "--coeffs", "1", "0", "0", "0", "-1"]) == 0
            assert main(["--help"]) == 0
        assert builds() == 1

    def test_identical_calls_give_identical_bytes(self, tmp_path, capsys):
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            argv = ["graphene-concurrence", "--bias", "1", "--grid", "9",
                    "--output", str(path)]
            assert main(argv) == 0
            stdout = capsys.readouterr().out.replace(str(path), "OUT")
            outs.append((stdout, path.read_bytes()))
        assert outs[0] == outs[1]

    def test_options_do_not_carry_over(self, seen):
        base = ["graphene-concurrence", "--output", "x.csv"]
        assert main([*base, "--branch-m", "1", "--grid", "5"]) == 0
        assert main(base) == 0
        assert (seen[0].branch_m, seen[0].grid) == (1, 5)
        assert (seen[1].branch_m, seen[1].grid) == (2, 201)
        assert main(["verify", "--suite", "a", "--suite", "b"]) == 0
        assert main(["verify", "--suite", "c"]) == 0
        assert main(["verify"]) == 0
        assert [args.suite for args in seen[2:]] == [["a", "b"], ["c"], None]

    def test_usage_error_then_valid_command(self, capsys):
        assert main(["graphene-bands", "--grid", "many", "--output", "x.csv"]) == 2
        assert main(["quartic", "--coeffs", "1", "0"]) == 2
        assert main(["no-such-command"]) == 2
        assert main(["quartic", "--coeffs", "1", "0", "0", "0", "-1"]) == 0
        assert main(["--help"]) == 0

    def test_build_parser_returns_a_parser_of_its_own(self):
        from su2pair import cli

        mine = cli.build_parser()
        assert mine is not cli.build_parser()
        mine.add_argument("--extra", required=True)
        assert main(["quartic", "--coeffs", "1", "0", "0", "0", "-1"]) == 0
        assert cli._shared_parser() is not mine

    def test_threads_running_their_first_command_together_all_parse_it(self, monkeypatch):
        """Threads that share one parser all parse their first command:
        20 rounds of four threads, each round on a newly built shared
        parser."""
        from su2pair import cli

        parsed, codes = [], []
        monkeypatch.setitem(
            cli._HANDLERS, "graphene-concurrence",
            lambda args: parsed.append((args.output, args.branch_m, args.grid)),
        )
        argv = ["graphene-concurrence", "--output", "x.csv", "--branch-m", "1", "--grid", "5"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                cli._shared_parser.cache_clear()
                cli._shared_parser()
                barrier = threading.Barrier(4)

                def first_command():
                    barrier.wait()
                    codes.append(main(argv))

                threads = [threading.Thread(target=first_command) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert codes == [None] * 80
        assert parsed == [("x.csv", 1, 5)] * 80

    @pytest.mark.parametrize("first", [False, True], ids=["fresh", "after-another-command"])
    @pytest.mark.parametrize("argv", PARSE_CASES, ids=lambda argv: " ".join(argv) or "none")
    def test_main_parses_as_the_complete_parser(self, argv, first, monkeypatch, capsys):
        """Exit code, stdout and stderr of main equal build_parser()'s, with
        every handler printing the arguments it was given."""
        from su2pair import cli

        for name in cli._HANDLERS:
            monkeypatch.setitem(cli._HANDLERS, name, lambda args: print(sorted(vars(args).items())))
        cli._shared_parser.cache_clear()
        if first:
            other = next(name for name in cli._HANDLERS if name not in argv)
            main([other, "-h"])
            capsys.readouterr()
        code = main(argv)
        seen = (code or 0, *capsys.readouterr())
        try:
            print(sorted(vars(cli.build_parser().parse_args(argv)).items()))
            code = 0
        except SystemExit as exc:
            code = exc.code or 0
        assert seen == (code, *capsys.readouterr())
