import json
import os
import warnings

import numpy as np
import pytest
from conftest import skewed_heisenberg3

from nilcoh import algebra, cli
from nilcoh.algebra import save_algebra
from nilcoh.cli import main
from nilcoh.report import render_stable


@pytest.fixture()
def files(tmp_path):
    save_algebra(algebra.heisenberg3(), str(tmp_path / "h3.json"))
    save_algebra(algebra.abelian(3), str(tmp_path / "r3.json"))
    save_algebra(algebra.abelian(1), str(tmp_path / "r1.json"))
    save_algebra(algebra.abelian(2), str(tmp_path / "r2.json"))
    save_algebra(algebra.abelian(4), str(tmp_path / "r4.json"))
    save_algebra(algebra.filiform(4), str(tmp_path / "fil4.json"))
    f1 = {"domain": "r1.json", "codomain": "r2.json", "components": ["x1", "sin(x1)"]}
    (tmp_path / "f1.map.json").write_text(json.dumps(f1))
    auto = {"domain": "h3.json", "codomain": "h3.json", "components": ["2*x1", "x2", "2*x3"]}
    (tmp_path / "auto.map.json").write_text(json.dumps(auto))
    return tmp_path


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cohomology_command(files, capsys):
    code, out, _ = run(["cohomology", "--algebra", str(files / "h3.json")], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["betti"] == [1, 2, 2, 1]
    assert rep["results"]["cup_ranks"]["1,1"] == 0
    assert rep["inputs"]["algebra"]["sha256"]


def test_compare_command(files, capsys):
    code, out, _ = run(
        ["compare", "--algebra-a", str(files / "r3.json"), "--algebra-b", str(files / "h3.json")],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["results"]["verdict"] == "distinguished"

    code, out, _ = run(
        ["compare", "--algebra-a", str(files / "r4.json"), "--algebra-b", str(files / "fil4.json")],
        capsys,
    )
    assert json.loads(out)["results"]["verdict"] == "distinguished"

    code, out, _ = run(
        ["compare", "--algebra-a", str(files / "h3.json"), "--algebra-b", str(files / "h3.json")],
        capsys,
    )
    assert json.loads(out)["results"]["verdict"] == "indistinguishable-by-these-invariants"


def test_average_command_with_output_file(files, capsys):
    out_path = files / "avg.report.json"
    code, out, _ = run(
        [
            "average", "--map", str(files / "f1.map.json"), "--form", "e2",
            "--radii", "12.566370614359172,25.132741228718345",
            "--samples", "20000", "--seed", "7", "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    final = rep["results"]["extrapolated"].get("0", 0.0)
    assert abs(final) < 1e-2
    assert out_path.exists()
    assert json.loads(out_path.read_text()) == rep


def test_orbit_command_probe(files, capsys):
    f2 = {"domain": "r1.json", "codomain": "r2.json", "components": ["x1", "abs(x1)"]}
    (files / "f2.map.json").write_text(json.dumps(f2))
    code, out, _ = run(
        [
            "orbit", "--map", str(files / "f2.map.json"), "--observables", "d12,d12sq",
            "--radii", "2,4,8", "--basepoints=-10,10", "--samples", "4000", "--seed", "7",
        ],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["verdict"] == "non-ergodic-evidence"
    assert rep["results"]["spreads"]["d12"] >= 1.5


def test_reports_are_strict_json_where_the_results_overflow(files, capsys):
    # exp(800*x1) overflows on the ball: the limits, stderrs, spreads and
    # tolerances of the probe are NaN or infinite, and the report wrote
    # them as bare NaN and Infinity tokens, which RFC 8259 parsers refuse
    spec = {"domain": "r1.json", "codomain": "r2.json", "components": ["x1", "exp(800*x1)"]}
    (files / "blowup.map.json").write_text(json.dumps(spec))
    with np.errstate(all="ignore"):
        code, out, _ = run(["orbit", "--map", str(files / "blowup.map.json"),
                            "--observables", "d12", "--basepoints=0,1", "--radii", "2,4",
                            "--samples", "200"], capsys)
    assert code == 0

    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")

    results = json.loads(out, parse_constant=refuse)["results"]
    assert results["verdict"] == "inconclusive"
    written = json.dumps(results)
    assert '"NaN"' in written and '"Infinity"' in written


def test_overflow_in_a_command_prints_no_numpy_warning(files, capsys):
    # exp(800*x1) overflows: the tape, the ball average and the multiply
    # printed RuntimeWarnings to stderr, outside the report, which already
    # carries its non-finite warning line
    spec = {"domain": "r1.json", "codomain": "r2.json", "components": ["x1", "exp(800*x1)"]}
    (files / "blowup.map.json").write_text(json.dumps(spec))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(["orbit", "--map", str(files / "blowup.map.json"),
                              "--observables", "d12", "--basepoints=0,1", "--radii", "2,4",
                              "--samples", "200"], capsys)
    assert code == 0 and err == ""
    assert [str(w.message) for w in caught] == []
    assert any("not finite" in w for w in json.loads(out)["warnings"])


def test_orbit_command_without_basepoints_reports_convergence(files, capsys):
    code, out, _ = run(
        ["orbit", "--map", str(files / "f1.map.json"), "--observables", "d12,d12sq",
         "--radii", "2,4,8", "--samples", "500"],
        capsys,
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["mode"] == "convergence"
    assert results["limits"] == {t["observable"]: t["means"][-1] for t in results["traces"]}
    assert list(results["limits"]) == ["d12", "d12sq"]


def _h3_orbit(files, basepoints):
    wavy = {"domain": "h3.json", "codomain": "h3.json",
            "components": ["x1 + 0.3*sin(x2)", "x2", "x3"]}
    (files / "wavy.map.json").write_text(json.dumps(wavy))
    return ["orbit", "--map", str(files / "wavy.map.json"), "--observables", "d11",
            "--radii", "2,4", "--samples", "500", f"--basepoints={basepoints}"]


def test_orbit_probes_basepoint_tuples_on_a_3d_domain(files, capsys):
    code, out, _ = run(_h3_orbit(files, "0,0,0;1,2,3"), capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["mode"] == "ergodicity-probe"
    assert results["basepoints"] == [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]
    assert [t["basepoint"] for t in results["traces"]] == results["basepoints"]

    code, out, err = run(_h3_orbit(files, "0,0;1,2,3"), capsys)
    assert (code, out) == (1, "")
    assert "basepoint '0,0' has 2 coordinates, need 3" in err


@pytest.mark.parametrize("basepoints, count", [("0,0,0", "got 1 (1 given)"),
                                               ("1,2,3;1,2,3", "got 1 (2 given)"),
                                               (";", "got 0 (0 given)")],
                         ids=["one", "repeated", "none"])
def test_orbit_refuses_a_probe_with_fewer_than_two_basepoints(files, capsys, basepoints, count):
    # one basepoint exited 0 with 'consistent-with-ergodic' and spread 0.0,
    # and ';' ran the convergence mode although basepoints were given
    code, out, err = run(_h3_orbit(files, basepoints), capsys)
    assert (code, out) == (1, "")
    assert f"needs at least 2 distinct basepoints, {count}" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.01"])
def test_orbit_refuses_a_tolerance_that_is_not_finite_and_nonnegative(files, capsys, tol):
    # --tol nan read 'non-ergodic-evidence' where --tol 0.01 reads
    # 'consistent-with-ergodic', and the report echoed tol NaN
    code, out, err = run(_h3_orbit(files, "0,1,0;0,1.05,0") + [f"--tol={tol}"], capsys)
    assert (code, out) == (1, "")
    assert f"tol must be finite and nonnegative, got {float(tol)!r}" in err


def test_exit_code_on_a_coordinate_observable(files, capsys):
    # observables are expressions over the dIJ symbols: x2 was read as d12
    code, out, err = run(
        ["orbit", "--map", str(files / "f1.map.json"), "--observables", "x2",
         "--radii", "2,4", "--samples", "200"],
        capsys,
    )
    assert (code, out) == (1, "")
    assert "unknown symbol 'x2'" in err


def test_degree_command(files, capsys):
    xsin = {"domain": "r1.json", "codomain": "r1.json", "components": ["x1 + sin(x1)"]}
    (files / "xsin.map.json").write_text(json.dumps(xsin))
    code, out, _ = run(
        ["degree", "--map", str(files / "xsin.map.json"), "--window", "R=10",
         "--target", "0.5", "--grid", "8", "--seed", "7"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["value"] == 1
    assert rep["results"]["stable_under_refinement"] is True


def test_asymdeg_command(files, capsys):
    code, out, _ = run(
        ["asymdeg", "--map", str(files / "auto.map.json"), "--radii", "2,4,8",
         "--samples", "2000", "--seed", "7"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["ratios"] == [4.0, 4.0, 4.0]
    assert rep["results"]["verdict"] == "positive-asymptotic-degree"


def test_exit_code_on_validation_error(files, capsys):
    bad = {"dim": 3, "brackets": [[1, 5, [[3, "1"]]]]}
    (files / "bad.json").write_text(json.dumps(bad))
    code, _, err = run(["cohomology", "--algebra", str(files / "bad.json")], capsys)
    assert code == 1
    assert "(1, 5)" in err

    code, _, err = run(["cohomology", "--algebra", str(files / "missing.json")], capsys)
    assert code == 1


@pytest.mark.parametrize("comps, message", [
    # kept the last entry and printed H3's Betti numbers for a zero bracket
    ([[3, 1], [3, -1]], "duplicate bracket target index 3 in pair (1, 2)"),
    # a ZeroDivisionError traceback
    ([[3, "1/0"]], "structure constant '1/0' is not an exact rational, in pair (1, 2)"),
    # a TypeError traceback
    (5, "bracket components 5 of pair (1, 2) must be a list of [k, c]"),
    # a bare ValueError naming no pair
    ([[3]], "malformed bracket component [3] in pair (1, 2)"),
    # read as [e1, e2] = e1
    ([[True, "1"]], "bracket target index True is not an integer, in pair (1, 2)"),
    # a whole record, for the basis and dim fields: a TypeError traceback,
    # then three records read as names a, b, c, as dim 3 and as dim 1
    ({"dim": 3, "basis": 5}, "'basis' must be a list of names, got 5"),
    ({"dim": 3, "basis": "abc"}, "'basis' must be a list of names, got 'abc'"),
    ({"dim": 3.7}, "algebra record needs an integer 'dim' field, got 3.7"),
    ({"dim": True}, "algebra record needs an integer 'dim' field, got True"),
])
def test_exit_code_on_malformed_bracket_components(files, capsys, comps, message):
    record = comps if isinstance(comps, dict) else {"dim": 3, "brackets": [[1, 2, comps]]}
    (files / "bad.json").write_text(json.dumps(record))
    code, out, err = run(["cohomology", "--algebra", str(files / "bad.json")], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {files / 'bad.json'}: {message}\n"


def test_exit_code_on_refused_grid_and_radii(files, capsys):
    xsin = {"domain": "r1.json", "codomain": "r1.json", "components": ["x1 + sin(x1)"]}
    (files / "xsin.map.json").write_text(json.dumps(xsin))
    code, _, err = run(
        ["degree", "--map", str(files / "xsin.map.json"), "--window", "R=10",
         "--target", "0.5", "--grid", "0"],
        capsys,
    )
    assert code == 1
    assert "got 0" in err

    code, _, err = run(
        ["orbit", "--map", str(files / "f1.map.json"), "--radii", "8,4,2", "--samples", "200"],
        capsys,
    )
    assert code == 1
    assert "strictly increasing" in err


def _inverse_orbit(files, observables, *basepoints):
    inv = {"domain": "r1.json", "codomain": "r2.json", "components": ["x1", "1/x1"]}
    (files / "inv.map.json").write_text(json.dumps(inv))
    return ["orbit", "--map", str(files / "inv.map.json"), "--observables", observables,
            "--radii", "2,4", "--samples", "200", *basepoints]


def test_orbit_derivative_observables_never_evaluate_the_map_at_a_basepoint(files, capsys):
    # each exited 1 with "division by zero at point (0.0)": the orbit
    # statistics normalized the map to F(0) = 0, and the probe evaluated
    # F(0) for a shift, which neither the differential nor F(x)^-1 . F(x . p)
    # reads.  The cloud of radii 2, 4 has no point at 0 or -0.5, so F and
    # its differential are defined on it.
    code, out, err = run(_inverse_orbit(files, "d11"), capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["results"]["mode"] == "convergence"
    for observables in ("d11", "d12", "d12*d11 + 1", "coord1@0.5"):
        code, out, err = run(_inverse_orbit(files, observables, "--basepoints=0,1"), capsys)
        assert (code, err) == (0, ""), observables
        assert json.loads(out)["results"]["basepoints"] == [[0.0], [1.0]]


@pytest.mark.parametrize("argv, value", [
    (["degree", "--map", "xsin.map.json", "--window", "R=nan", "--target", "0.5"], "nan"),
    (["average", "--map", "f1.map.json", "--form", "e2", "--radii", "4,inf"], "inf"),
    (["orbit", "--map", "f1.map.json", "--observables", "d12", "--radii", "nan,4"], "nan"),
    (["degree", "--map", "xsin.map.json", "--window", "R=10", "--target", "nan"], "nan"),
])
def test_exit_code_on_non_finite_radii_and_windows(files, capsys, argv, value):
    # each exited 0: degree 0 called "stable", a NaN average, a "stable" NaN
    # trace, degree 0 at a NaN target called "stable"
    xsin = {"domain": "r1.json", "codomain": "r1.json", "components": ["x1 + sin(x1)"]}
    (files / "xsin.map.json").write_text(json.dumps(xsin))
    argv = [str(files / a) if a.endswith(".map.json") else a for a in argv]
    code, out, err = run(argv + ["--samples", "200"] * (argv[0] != "degree"), capsys)
    assert (code, out) == (1, "")
    assert f"must be finite, got {value}" in err


@pytest.mark.parametrize("argv, value", [
    (["--observables", "d12", "--basepoints=0,nan"], "nan"),
    (["--observables", "d12", "--basepoints=0,inf"], "inf"),
    (["--observables", "coord2@nan", "--basepoints=0,1"], "nan"),
], ids=["basepoint-nan", "basepoint-inf", "probe-nan"])
def test_exit_code_on_non_finite_basepoints_and_probe_points(files, capsys, argv, value):
    # each exited 0 with 'consistent-with-ergodic' and spread 0.0 or NaN limits
    code, out, err = run(["orbit", "--map", str(files / "f1.map.json"), *argv,
                          "--radii", "2,4", "--samples", "200"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and value in err and "finite" in err


@pytest.mark.parametrize("argv, code, message", [
    (["average", "--form", "e2", "--radii", "1:2"], 2, "radii spec must be start:factor:count"),
    (["average", "--form", "e2", "--radii", "0:2:3"], 2, "need start > 0, factor > 1"),
    (["average", "--form", "e2", "--radii", ","], 2, "empty radius list"),
    (["average", "--form", "e2", "--ball", "cube"], 2, "bad ball spec field 'cube'"),
    (["average", "--form", "e2", "--ball", "shape=cube"], 2, "unknown ball shape 'cube'"),
    (["average", "--form", "e2", "--ball", "size=3"], 2, "unknown ball spec field 'size'"),
    (["degree", "--window", "5", "--target", "0.5"], 0, ""),
    (["orbit", "--observables", ","], 1, "error: no observables given"),
    (["orbit", "--observables", "coord2@0.5:1"], 1, "index or probe dimension out of range"),
], ids=["radii-two-fields", "radii-zero-start", "radii-empty", "ball-no-key", "ball-shape",
        "ball-field", "window-without-R", "observables-empty", "observables-probe-dim"])
def test_exit_code_on_malformed_arguments(files, capsys, argv, code, message):
    # usage errors exit 2 before any map is read; refused inputs exit 1
    xsin = {"domain": "r1.json", "codomain": "r1.json", "components": ["x1 + sin(x1)"]}
    (files / "xsin.map.json").write_text(json.dumps(xsin))
    the_map = "xsin.map.json" if argv[0] == "degree" else "f1.map.json"
    argv = [argv[0], "--map", str(files / the_map), *argv[1:]]
    argv += ["--samples", "200", "--radii", "2,4"] * (argv[0] == "orbit")
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    err = capsys.readouterr().err
    assert got == code
    assert message in err if message else err == ""


def test_asymdeg_warnings_go_to_the_top_level(files, capsys):
    kink = {"domain": "r1.json", "codomain": "r1.json", "components": ["x1 + abs(x1 - x1)"]}
    (files / "kink.map.json").write_text(json.dumps(kink))
    code, out, _ = run(["asymdeg", "--map", str(files / "kink.map.json"), "--radii", "2,4",
                        "--samples", "500"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["warnings"] == ["abs evaluated within 1e-09 of its kink (500 sample(s))"]
    assert "warnings" not in rep["results"]


def test_exit_code_on_overflowing_constant_power(files, capsys):
    # constant subtrees run on Python floats, whose ** raised a raw OverflowError
    huge = {"domain": "r1.json", "codomain": "r1.json", "components": ["x1 + 10^400"]}
    (files / "huge.map.json").write_text(json.dumps(huge))
    code, out, err = run(
        ["degree", "--map", str(files / "huge.map.json"), "--window", "R=2", "--target", "0.5"],
        capsys,
    )
    assert (code, out) == (1, "")
    assert err == "error: constant power 10.0^400 overflows a float\n"


def test_exit_code_on_a_basis_not_adapted_to_the_lower_central_series(files, capsys):
    # the skewed H3 has Betti numbers, but its weighted boxes are not Følner
    # sets: its averages used to come out on them, silently wrong
    save_algebra(skewed_heisenberg3(), str(files / "skew.json"))
    ident = {"domain": "skew.json", "codomain": "skew.json", "components": ["x1", "x2", "x3"]}
    (files / "skew.map.json").write_text(json.dumps(ident))
    code, out, _ = run(["cohomology", "--algebra", str(files / "skew.json")], capsys)
    assert code == 0
    assert json.loads(out)["results"]["betti"] == [1, 2, 2, 1]
    code, out, err = run(
        ["average", "--map", str(files / "skew.map.json"), "--form", "e3",
         "--radii", "2,4", "--samples", "100"],
        capsys,
    )
    assert (code, out) == (1, "")
    assert "weight >= 2 but dim g^2 = 1" in err


def test_exit_code_on_one_sample(files, capsys):
    # one sample has no spread: its stderr used to read 0.0 and asymdeg
    # called a degree positive from it
    code, out, err = run(
        ["average", "--map", str(files / "f1.map.json"), "--form", "e2",
         "--radii", "4,8", "--samples", "1"],
        capsys,
    )
    assert (code, out) == (1, "")
    assert "at least 2 samples, got 1" in err

    code, out, err = run(
        ["asymdeg", "--map", str(files / "auto.map.json"), "--radii", "2,4", "--samples", "1"],
        capsys,
    )
    assert (code, out) == (1, "")
    assert "at least 2 samples, got 1" in err


def test_exit_code_on_an_unwritable_out_file(files, capsys):
    # the report went to stdout first, then the write raised FileNotFoundError
    out_path = files / "missing-dir" / "x.json"
    code, out, err = run(["cohomology", "--algebra", str(files / "h3.json"),
                          "--out", str(out_path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and str(out_path) in err


def test_exit_code_on_a_repro_outdir_that_is_a_file(tmp_path, capsys):
    # os.makedirs raised FileExistsError out of main
    taken = tmp_path / "taken"
    taken.write_text("")
    code, out, err = run(["repro", "--outdir", str(taken)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and str(taken) in err


def test_exit_code_on_usage_error(files):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["average", "--map"])
    assert exc.value.code == 2


def test_ball_radius_field_is_a_usage_error(files, capsys):
    # R= in --ball was parsed and then read by nothing, so the run answered
    # for the --radii schedule as if the field were not there
    argv = ["average", "--map", str(files / "f1.map.json"), "--form", "e2",
            "--radii", "4,8", "--samples", "200"]
    for ball in ("shape=box,R=1000", "R=1000"):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--ball", ball])
        assert exc.value.code == 2
        assert "unknown ball spec field 'R'" in capsys.readouterr().err
    code, out, _ = run(argv + ["--ball", "shape=quasiball"], capsys)
    assert code == 0
    assert json.loads(out)["params"]["shape"] == "quasiball"


def test_reports_bit_identical_across_runs(files, capsys):
    argv = [
        "average", "--map", str(files / "f1.map.json"), "--form", "e1 + e2",
        "--radii", "4,8", "--samples", "12000", "--seed", "3",
    ]
    outs = []
    for _ in range(3):
        code, out, _ = run(argv, capsys)
        assert code == 0
        outs.append(render_stable(json.loads(out)))
    assert outs[0] == outs[1] == outs[2]


def test_repro_subcommand(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["repro", "--outdir", "out", "--samples", "2000", "--seed", "7"])
    assert code == 0
    assert os.path.exists(tmp_path / "out" / "asymdeg-h3-doubling.report.json")
    listed = capsys.readouterr().out
    assert "orbit-f2: ok" in listed


def test_repro_builds_the_parser_once_and_repeats_its_bytes(tmp_path, capsys, monkeypatch):
    # a parser per step cost about 1.8 ms each; the one shared parser also
    # shares the parsed --radii and --ball defaults between steps and runs
    builds = []
    build = cli.build_parser

    def counting():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    stable = []
    for run_dir in (tmp_path / "a", tmp_path / "b"):
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        assert main(["repro", "--outdir", "out", "--samples", "2000", "--seed", "7"]) == 0
        stable.append({name: render_stable(json.loads((run_dir / "out" / name).read_text()))
                       for name in sorted(os.listdir(run_dir / "out"))
                       if name.endswith(".report.json")})
    assert len(builds) == 1
    assert len(stable[0]) == 7 and stable[0] == stable[1]
