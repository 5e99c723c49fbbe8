import json

import numpy as np
import pytest

from octfield.cli import main

WORKED_JSON = '{"e":[1,1,1],"k":[1,1,1],"omega_units":3}'


def test_classify_worked_example(capsys):
    assert main(["classify", "--json", WORKED_JSON]) == 0
    out = capsys.readouterr().out
    assert "nonconformal, Delta=2, energy=7 pi" in out


def test_classify_accepts_wrapping_form(capsys):
    payload = json.dumps(
        {"w": {"+++": 1, "++-": 1, "+-+": 1, "+--": 0,
               "-++": 1, "-+-": 0, "--+": 0, "---": -1}}
    )
    assert main(["classify", "--json", payload]) == 0
    report = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    assert report["class"]["omega_units"] == 3


def test_classify_rejects_invalid_topology():
    bad = '{"e":[1,1,1],"k":[1,1,1],"omega_units":4}'
    assert main(["classify", "--json", bad]) == 2


def test_classify_rejects_perturbed_wrapping():
    payload = json.dumps(
        {"w": {"+++": 2, "++-": 1, "+-+": 1, "+--": 0,
               "-++": 1, "-+-": 0, "--+": 0, "---": -1}}
    )
    assert main(["classify", "--json", payload]) == 2


def test_classify_prism_bounds(capsys):
    assert main(["classify", "--json", WORKED_JSON, "--prism", "1", "1", "1"]) == 0
    report = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    assert report["prism_bounds"]["lower"] == pytest.approx(28 * 3.14159265, rel=1e-6)


def test_spelling_word(capsys):
    assert main(["spelling", "--word", "a b a' b'"]) == 0
    out = capsys.readouterr().out
    assert "lambda=2" in out


def test_spelling_empty_word(capsys):
    assert main(["spelling", "--word", "e"]) == 0
    assert "lambda=0" in capsys.readouterr().out


@pytest.mark.parametrize("args", [["a z"], ["a b c", "--alphabet", "2"]])
def test_spelling_rejects_invalid_word(args, capsys):
    assert main(["spelling", "--word", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid word: ")


@pytest.mark.parametrize("argv, message", [
    (["classify", "--json", WORKED_JSON, "--prism", "1", "2", "3"], "prism"),
    (["classify", "--json", "[1, 2]"], "a class must be a JSON object, got list"),
    (["spelling", "--json", "[1, 2]"], "a class must be a JSON object, got list"),
    (["verify", "--json", "[1, 2]"], "a class must be a JSON object, got list"),
    (["classify", "missing-class.json"], "missing-class.json"),
    (["spelling", "--word", "a b", "--alphabet", "0"], "alphabet"),
    (["classify", "--json", '{"e":[1,1,1],"k":[1,1,1],"omega_units":3.7}'],
     "omega_units must be an integer, got 3.7"),
    (["classify", "--json", '{"e":[1,1,1],"k":[1.5,1,1],"omega_units":3}'],
     "k must be an integer, got 1.5"),
    (["classify", "--json", '{"e":[1,1,1],"k":[1,1],"omega_units":3}'],
     "k must be a triple of integers"),
    (["classify", "--json", '{"e":[1,1,1],"omega_units":3}'], "missing field 'k'"),
    (["classify", "--json", '{"w":{"+++":1}}'], "w must give exactly the eight sectors"),
    (["classify", "--json", '{"w":{"+++":-1,"++-":0,"+-+":0,"+--":0,"-++":0,"-+-":0,'
      '"--+":0,"---":0},"k":[5,5,5],"omega_units":99}'], "missing field 'e'"),
], ids=["prism-order", "classify-list", "spelling-list", "verify-list", "missing-file",
        "alphabet-0", "fractional-omega", "fractional-kink", "short-kinks",
        "missing-kinks", "missing-sectors", "wrapping-with-partial-class"])
def test_invalid_inputs_exit_2(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid ") and message in err


def test_spelling_refuses_overlong_word_before_the_dp(monkeypatch, capsys):
    import octfield.cli as cli
    from octfield.words import MAX_WORD_LETTERS

    def no_dp(u):
        raise AssertionError("spelling DP reached")

    monkeypatch.setattr(cli, "spelling_length", no_dp)
    monkeypatch.setattr(cli, "optimal_pairing", no_dp)
    word = " ".join(["a", "b"] * (MAX_WORD_LETTERS // 2) + ["a"])
    assert MAX_WORD_LETTERS == 1000
    assert main(["spelling", "--word", word]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid word: 1001 letters")


def test_spelling_class_bound(capsys):
    assert main(["spelling", "--json", WORKED_JSON]) == 0
    out = capsys.readouterr().out
    assert "spelling bound = 7 pi" in out


def test_spelling_rejects_mixed_kinks():
    payload = '{"e":[1,1,1],"k":[1,1,-1],"omega_units":3}'
    assert main(["spelling", "--json", payload]) == 3


def test_spelling_bound_matches_energy_for_double_kinks(capsys):
    payload = '{"e":[1,1,1],"k":[2,2,2],"omega_units":-1}'
    assert main(["classify", "--json", payload]) == 0
    energy_line = capsys.readouterr().out.splitlines()[0]
    assert main(["spelling", "--json", payload]) == 0
    report = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    assert report["spelling_bound_pi_units"] == report["energy_pi_units"]
    assert report["tight"]


def test_construct_conformal_identity_class(tmp_path, capsys):
    payload = '{"e":[1,1,1],"k":[0,0,0],"omega_units":-1}'
    code = main([
        "construct", "--json", payload, "--out", str(tmp_path),
        "--grid-level", "2", "--format", "json,csv,svg",
    ])
    assert code == 0
    report = json.loads((tmp_path / "construct.json").read_text())
    assert report["energy_pi_units"] == 1
    assert abs(report["energy_gap_relative"]) < 0.02
    assert (tmp_path / "field.csv").read_text().startswith("u,v,re_k,im_k")
    assert (tmp_path / "domain.svg").read_text().startswith("<svg")


def test_construct_worked_example(tmp_path):
    code = main([
        "construct", "--json", WORKED_JSON, "--out", str(tmp_path),
        "--epsilon", "0.05", "--grid-level", "2",
    ])
    assert code == 0
    report = json.loads((tmp_path / "construct.json").read_text())
    assert report["patchwork"]["case_id"] == "1f"
    assert all(report["checks"].values())
    assert abs(report["energy_gap_relative"]) < 0.05


def test_construct_unsupported_class_exit_code():
    # all-negative kinks fall outside the implemented recipes
    payload = '{"e":[1,1,1],"k":[-1,-1,-1],"omega_units":3}'
    assert main(["construct", "--json", payload, "--grid-level", "1"]) == 4


@pytest.mark.parametrize("payload, reason", [
    # the only matching bulk shape has complex start parameters closer than
    # a fit admits, so every fit is refused
    ('{"e":[1,1,1],"k":[3,3,12],"omega_units":-57}', "no rational representative"),
    ('{"e":[1,1,1],"k":[-2,-2,2],"omega_units":-1}', "modulus-inverting reflection"),
], ids=["all-fits-refused", "mixed-kink-signs"])
def test_verify_unconstructible_class_exits_4(payload, reason, capsys):
    assert main(["verify", "--json", payload, "--grid-level", "1"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("unsupported class: ") and reason in err


@pytest.mark.parametrize("payload, reflections", [
    ('{"e":[1,1,-1],"k":[-2,-2,0],"omega_units":-7}', [1, 1, -1]),
    ('{"e":[-1,1,1],"k":[-2,-1,1],"omega_units":-7}', [-1, 1, 1]),
], ids=["reflect-z", "reflect-x"])
def test_construct_checks_the_normalized_class(payload, reflections, tmp_path):
    # an odd number of reflections flips the trapped area: the map represents
    # the normalized class, and every check compares with that class
    assert main(["construct", "--json", payload, "--grid-level", "1",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "construct.json").read_text())
    assert report["reflections"] == reflections
    assert report["normalized_class"]["e"] == [1, 1, 1]
    assert report["normalized_class"]["omega_units"] == 7
    assert all(report["checks"].values()), report["checks"]


def test_verify_flipped_general_sign_stacks():
    payload = '{"e":[1,1,1],"k":[-1,-1,-1],"omega_units":-5}'
    assert main(["verify", "--json", payload, "--grid-level", "1"]) == 0


def test_verify_runs_without_artifacts(tmp_path):
    assert main(["verify", "--json", WORKED_JSON, "--grid-level", "2"]) == 0
    assert list(tmp_path.iterdir()) == []


def test_reports_are_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main([
            "construct", "--json", WORKED_JSON, "--out", str(out),
            "--grid-level", "2", "--format", "json,csv",
        ]) == 0
    assert (a / "construct.json").read_bytes() == (b / "construct.json").read_bytes()
    assert (a / "field.csv").read_bytes() == (b / "field.csv").read_bytes()


def test_epsilon_validation():
    with pytest.raises(SystemExit):
        main(["construct", "--json", WORKED_JSON, "--epsilon", "0.2"])


def test_sweep_small(tmp_path, capsys):
    assert main(["sweep", "--kmax", "1", "--grid-level", "1",
                 "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "sweep.json").read_text())
    assert len(data["results"]) == 1
    assert data["results"][0]["k"] == [1, 1, 1]


def test_construct_integrates_trapped_area_once(monkeypatch, tmp_path):
    from octfield import numerics

    calls = []
    real = numerics.trapped_area

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(numerics, "trapped_area", counting)
    assert main(["construct", "--json", WORKED_JSON, "--grid-level", "1",
                 "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    report = json.loads((tmp_path / "construct.json").read_text())
    assert report["checks"]["trapped_area"] and report["checks"]["degrees_match"]


def test_energy_below_infimum_fails_the_checks(monkeypatch, capsys):
    from octfield import numerics

    real = numerics.dirichlet_energy
    monkeypatch.setattr(numerics, "dirichlet_energy",
                        lambda *args, **kwargs: 0.9 * real(*args, **kwargs))
    assert main(["verify", "--json", WORKED_JSON, "--grid-level", "1"]) == 5
    assert "energy_not_below_infimum" in capsys.readouterr().err


def test_unresolved_windings_exit_before_the_point_cap(monkeypatch, capsys):
    # at epsilon = 1e-4 the boundary loop's parameter cannot resolve this
    # class's innermost stack layers: the bisection stops at the cap with
    # exit 5 instead of growing the loop until memory runs out
    from octfield import rational
    from octfield.numerics import MAX_BOUNDARY_POINTS

    real = rational.boundary_points

    def capped(t):
        assert np.size(t) <= MAX_BOUNDARY_POINTS
        return real(t)

    monkeypatch.setattr(rational, "boundary_points", capped)
    payload = '{"e":[1,1,1],"k":[1,2,3],"omega_units":-1}'
    assert main(["verify", "--json", payload, "--epsilon", "0.0001",
                 "--grid-level", "1"]) == 5
    assert "boundary windings" in capsys.readouterr().err


def test_unconverged_trapped_area_is_an_invariant_failure(monkeypatch, tmp_path, capsys):
    # a trapped area too far from a multiple of pi/2 cannot anchor the
    # wrapping numbers: construct exits 5 and sweep lists the class as failed
    from octfield import numerics

    real = numerics.trapped_area

    def unconverged(*args, **kwargs):
        omega, _ = real(*args, **kwargs)
        return omega, 0.4

    monkeypatch.setattr(numerics, "trapped_area", unconverged)
    assert main(["verify", "--json", WORKED_JSON, "--grid-level", "1"]) == 5
    assert "trapped area did not converge" in capsys.readouterr().err
    assert main(["sweep", "--kmax", "1", "--grid-level", "1",
                 "--out", str(tmp_path)]) == 5
    data = json.loads((tmp_path / "sweep.json").read_text())
    assert data["unsupported"] == []
    assert [(f["k"], f["n"]) for f in data["failed"]] == [([1, 1, 1], 1)]


def test_sweep_reports_integration_failures(monkeypatch, tmp_path):
    from octfield import numerics

    monkeypatch.setattr(numerics, "MAX_BOUNDARY_POINTS", 100)
    assert main(["sweep", "--kmax", "1", "--grid-level", "1",
                 "--out", str(tmp_path)]) == 5
    data = json.loads((tmp_path / "sweep.json").read_text())
    assert data["results"] == []
    assert [(f["k"], f["n"]) for f in data["failed"]] == [([1, 1, 1], 1)]


def test_sweep_fails_classes_that_fail_their_checks(monkeypatch, tmp_path, capsys):
    from octfield import numerics

    real = numerics.dirichlet_energy
    monkeypatch.setattr(numerics, "dirichlet_energy",
                        lambda *args, **kwargs: 0.9 * real(*args, **kwargs))
    assert main(["sweep", "--kmax", "1", "--grid-level", "1",
                 "--out", str(tmp_path)]) == 5
    assert "FAIL" in capsys.readouterr().out
    data = json.loads((tmp_path / "sweep.json").read_text())
    assert [r["k"] for r in data["results"]] == [[1, 1, 1]]
    assert data["results"][0]["checks"]["energy_not_below_infimum"] is False
    assert [(f["k"], f["n"]) for f in data["failed"]] == [([1, 1, 1], 1)]
    assert "energy_not_below_infimum" in data["failed"][0]["reason"]
