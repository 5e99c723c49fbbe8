import json
import warnings

import pytest

from octfield import cli
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


def test_main_runs_different_subcommands_in_one_process(tmp_path, capsys):
    # the parser is built once; a second call keeps nothing of the first's
    # options (here --out), and a bad epsilon still exits 2
    assert main(["classify", "--json", WORKED_JSON, "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "classify.json").read_text())["energy_pi_units"] == 7
    capsys.readouterr()
    assert main(["spelling", "--word", "a b a' b'"]) == 0
    out = capsys.readouterr().out
    assert "lambda=2" in out and json.loads(out.split("\n", 1)[1])["spelling_length"] == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["classify.json"]
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--json", WORKED_JSON, "--epsilon", "0.2"])
    assert exit_info.value.code == 2
    assert cli._parser() is cli._parser()


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
    (["spelling", "--word", "c1 c2", "--alphabet", "10000000"],
     "10000000 generators, at most 1000"),
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
    (["construct", "--json", WORKED_JSON, "--format", "xml"], "format: 'xml'"),
    (["construct", "--json", WORKED_JSON, "--format", "json,jsn"], "format: 'jsn'"),
    (["classify", "--json", WORKED_JSON, "--prism", "inf", "1", "1"], "must be finite"),
    (["classify", "--json", WORKED_JSON, "--prism", "1e308", "1e308", "1e308"],
     "are not finite"),
], ids=["prism-order", "classify-list", "spelling-list", "verify-list", "missing-file",
        "alphabet-0", "alphabet-huge", "fractional-omega", "fractional-kink", "short-kinks",
        "missing-kinks", "missing-sectors", "wrapping-with-partial-class",
        "unknown-format", "misspelt-format", "prism-infinite", "prism-overflow"])
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


def test_spelling_reads_the_bound_on_the_reflected_class(capsys):
    # reflected to edge signs (+,+,+), (1,1,-1) kinks (1,1,1) become mixed
    payload = '{"e":[1,1,-1],"k":[1,1,1],"omega_units":13}'
    assert main(["spelling", "--json", payload]) == 3
    assert "reflected" in capsys.readouterr().err
    # the unreflected loop words read 16 pi here, above the infimum
    payload = '{"e":[-1,-1,-1],"k":[-2,-2,-2],"omega_units":1}'
    assert main(["spelling", "--json", payload]) == 0
    out = capsys.readouterr().out
    assert "spelling bound = 13 pi (energy formula 13 pi)" in out


def test_spelling_bound_above_the_formula_is_an_invariant_failure(monkeypatch, capsys):
    monkeypatch.setattr(cli, "spelling_lower_bound_check", lambda t: 9)
    assert main(["spelling", "--json", WORKED_JSON]) == 5
    assert "exceeds the energy formula 7 pi" in capsys.readouterr().err


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
    # the only bulk shape has complex start parameters closer than a fit
    # admits, so it is not built
    ('{"e":[1,1,1],"k":[3,3,12],"omega_units":-57}', "no rational representative"),
    ('{"e":[1,1,1],"k":[-2,-2,2],"omega_units":-1}', "modulus-inverting reflection"),
    # its bulk k=(0,0,20) of degree 81 has no shape with at most 5 complex
    # factors; a scan of its shapes used to take seconds
    ('{"e":[1,1,1],"k":[-20,-20,20],"omega_units":-81}', "no rational representative found"),
    # no shape of at most 9 edge factors has the edge kink 40; a scan of
    # every shape of degree 32001 used to hang
    ('{"e":[1,1,1],"k":[40,0,0],"omega_units":-32001}', "no rational representative found"),
    # its power of degree near 10^6 winds the arc about 250,000 turns past
    # k_z = 0, which 5 complex factors cannot take back; that scan also hung
    ('{"e":[1,1,1],"k":[1,1,0],"omega_units":-1000001}', "no rational representative found"),
], ids=["all-fits-refused", "mixed-kink-signs", "shape-scan-limit", "long-edge-kink",
        "degree-1000001"])
def test_verify_unconstructible_class_exits_4(payload, reason, capsys):
    assert main(["verify", "--json", payload, "--grid-level", "1"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("unsupported class: ") and reason in err


def test_built_map_whose_counts_miss_the_class_exits_5(tmp_path, capsys):
    # case 2e builds this class; at grid level 1 its regions count wrapping
    # numbers other than the class's: a failed check of a built map, not
    # exit 4
    from octfield.topology import OctantTopology, wrapping_from_invariants

    payload = '{"e":[1,1,1],"k":[1,2,4],"omega_units":11}'
    assert main(["construct", "--json", payload, "--grid-level", "1",
                 "--out", str(tmp_path)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("invariant failure: ") and "degrees_match" in err
    report = json.loads((tmp_path / "construct.json").read_text())
    assert report["patchwork"]["case_id"] == "2e"
    assert report["checks"]["degrees_match"] is False
    assert "wrapping_error" not in report
    target = wrapping_from_invariants(OctantTopology((1, 1, 1), (1, 2, 4), 11))
    assert report["measured_wrapping"] != target.as_dict()
    assert main(["verify", "--json", payload, "--grid-level", "1"]) == 5


def test_low_confidence_counts_fail_the_degree_check(monkeypatch, tmp_path, capsys):
    # a sector whose target stays near an image-triangle edge through every
    # retry is not trusted: its wrapping number is not read
    import dataclasses

    from octfield import numerics

    real = numerics.degree_count

    def unsure(*args, **kwargs):
        report = real(*args, **kwargs)
        by_sector = dict(report.by_sector)
        by_sector[(1, -1, 1)] = dataclasses.replace(by_sector[(1, -1, 1)], confident=False)
        return numerics.DegreeReport(by_sector)

    monkeypatch.setattr(numerics, "degree_count", unsure)
    assert main(["construct", "--json", WORKED_JSON, "--grid-level", "1",
                 "--out", str(tmp_path)]) == 5
    err = capsys.readouterr().err
    assert "degrees_match" in err and "not confident in sectors +-+" in err
    report = json.loads((tmp_path / "construct.json").read_text())
    assert report["measured_wrapping"] is None
    assert [k for k, v in report["checks"].items() if not v] == ["degrees_match"]


@pytest.mark.parametrize("payload", [
    WORKED_JSON,  # one stack
    '{"e":[1,1,1],"k":[2,2,2],"omega_units":-1}',  # three stacks, not in the report
    '{"e":[1,1,1],"k":[0,0,-1],"omega_units":-5}',  # conformal
], ids=["one-stack", "three-stacks", "conformal"])
def test_construct_reads_no_boundary_windings(payload, monkeypatch, tmp_path):
    # the wrapping numbers come from the regions' signed counts, one count
    # per map
    from octfield import numerics, rational

    def no_windings(*args, **kwargs):
        raise AssertionError("boundary windings reached")

    monkeypatch.setattr(numerics, "degree_differences_by_winding", no_windings)
    monkeypatch.setattr(rational, "degree_differences_by_winding", no_windings)
    counted = []
    real = numerics.region_degrees
    monkeypatch.setattr(numerics, "region_degrees",
                        lambda *args, **kwargs: counted.append(1) or real(*args, **kwargs))
    assert main(["construct", "--json", payload, "--grid-level", "2",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "construct.json").read_text())
    assert all(report["checks"].values()), report["checks"]
    assert len(counted) == 1

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


def test_verify_conformal_class_whose_first_shapes_had_too_many_complex_factors():
    # its first 400 shapes by scan all had 9 or more complex factors, whose
    # fits start inadmissible; the 35 shapes with at most 5 are built and fit
    payload = '{"e":[1,1,1],"k":[0,0,3],"omega_units":-61}'
    assert main(["verify", "--json", payload, "--grid-level", "1"]) == 0


def test_construct_class_with_one_reachable_vertex(tmp_path):
    # sigma_- = (+,-,+): only the y vertex reaches its covered pair by a
    # modulus-preserving reflection, and a two-layer y stack builds the class
    payload = '{"e":[1,1,1],"k":[-1,1,-1],"omega_units":-5}'
    assert main(["construct", "--json", payload, "--grid-level", "2",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "construct.json").read_text())
    assert report["patchwork"]["M"] == [0, 2, 0]
    assert all(report["checks"].values()), report["checks"]
    assert report["degree_report"] is not None


def test_seam_check_reaches_the_innermost_seams():
    # the 2c stacks of k = (1,1,3), omega_units = -5 have x seams near 1e-11;
    # the check compares the formulas that meet there on the same chart points
    import dataclasses

    from octfield.cli import _max_seam_jump
    from octfield.patchwork import assemble_patchwork, select_case
    from octfield.topology import OctantTopology

    sm = assemble_patchwork(select_case(OctantTopology((1, 1, 1), (1, 1, 3), -5)))
    assert _max_seam_jump(sm) < 1e-6
    i = [region.name for region in sm.regions].index("annulus(x,1)")
    layer = sm.regions[i].evaluate
    sm.regions[i] = dataclasses.replace(sm.regions[i], evaluate=lambda u: 1.01 * layer(u))
    assert _max_seam_jump(sm) > 1e-6


def test_field_csv_keeps_each_tag_in_one_column():
    import csv
    import io

    from octfield.patchwork import assemble_patchwork, select_case
    from octfield.reports import field_grid_csv
    from octfield.topology import OctantTopology

    sm = assemble_patchwork(select_case(OctantTopology((1, 1, 1), (1, 1, 1), 3)))
    rows = list(csv.DictReader(io.StringIO(field_grid_csv(sm))))
    assert {row["subdomain_tag"] for row in rows} == {"bulk", "annulus(x,1)", "switch(x)"}
    assert all(None not in row for row in rows)


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


def test_a_class_beyond_the_windings_verifies_from_its_region_counts(tmp_path):
    # at epsilon = 1e-4 the boundary loop's parameter cannot resolve this
    # class's innermost stack layers (its windings stop at the
    # numerics.MAX_BOUNDARY_POINTS cap); its regions count in chart
    # coordinates, so it verifies
    payload = '{"e":[1,1,1],"k":[1,2,3],"omega_units":-1}'
    assert main(["construct", "--json", payload, "--epsilon", "0.0001",
                 "--grid-level", "1", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "construct.json").read_text())
    assert all(report["checks"].values()), report["checks"]
    assert 0 < report["energy_gap_relative"] < 0.001


@pytest.mark.parametrize("payload, epsilon, code, message", [
    # the layer-ratio floor would overflow: delta = epsilon, and the
    # collar's energy density overflows
    ('{"e":[1,1,1],"k":[1,1,1],"omega_units":3}', "1e-200", 5,
     "non-finite energy density persists in region switch(x)"),
    # the innermost layer, or a layer seam, underflows
    ('{"e":[1,1,1],"k":[1,1,1],"omega_units":3}', "1e-300", 4, "below double precision"),
    ('{"e":[1,1,1],"k":[3,3,3],"omega_units":-13}', "1e-300", 4, "below double precision"),
], ids=["one-layer-1e-200", "one-layer-1e-300", "four-layers-1e-300"])
def test_a_tiny_epsilon_exits_with_a_documented_code(payload, epsilon, code, message, capsys):
    assert main(["verify", "--json", payload, "--epsilon", epsilon, "--grid-level", "1"]) == code
    assert message in capsys.readouterr().err


def test_an_overflowing_energy_density_is_refused_without_a_warning(capsys):
    # at epsilon = 1e-50 a stencil difference of the innermost interpolant
    # overflows: the density is non-finite, subdivided, then refused, and
    # NumPy's overflow warning stays off stderr
    payload = '{"e":[1,1,1],"k":[3,3,3],"omega_units":-13}'
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", "--json", payload, "--epsilon", "1e-50",
                     "--grid-level", "1"]) == 5
    assert "non-finite energy density" in capsys.readouterr().err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_a_bulk_above_the_preimage_limit_is_an_invariant_failure(capsys):
    # w^257: realize counts its fit's wrapping numbers from centroid
    # preimages, which are not solved above degree 256
    payload = '{"e":[1,1,1],"k":[0,0,-64],"omega_units":-257}'
    assert main(["verify", "--json", payload, "--grid-level", "1"]) == 5
    assert "preimages of a degree-257 map exceed the limit of 256" in capsys.readouterr().err


def test_unconverged_trapped_area_is_an_invariant_failure(monkeypatch, tmp_path, capsys):
    # a trapped area too far from a multiple of pi/2 fails its own check,
    # and no other: construct exits 5 and sweep lists the class as failed
    from octfield import numerics

    real = numerics.trapped_area

    def unconverged(*args, **kwargs):
        omega, _ = real(*args, **kwargs)
        return omega, 0.4

    monkeypatch.setattr(numerics, "trapped_area", unconverged)
    assert main(["verify", "--json", WORKED_JSON, "--grid-level", "1"]) == 5
    assert "invariant failure: ['trapped_area']" in capsys.readouterr().err
    assert main(["sweep", "--kmax", "1", "--grid-level", "1",
                 "--out", str(tmp_path)]) == 5
    data = json.loads((tmp_path / "sweep.json").read_text())
    assert data["unsupported"] == []
    assert data["failed"] == [{"k": [1, 1, 1], "n": 1, "reason": "failed checks: trapped_area"}]


def test_sweep_reports_integration_failures(tmp_path):
    # at epsilon = 1e-200 the collar's energy density overflows, and the
    # energy integral refuses the class
    assert main(["sweep", "--kmax", "1", "--grid-level", "1", "--epsilon", "1e-200",
                 "--out", str(tmp_path)]) == 5
    data = json.loads((tmp_path / "sweep.json").read_text())
    assert data["results"] == []
    assert [(f["k"], f["n"]) for f in data["failed"]] == [([1, 1, 1], 1)]
    assert "non-finite energy density" in data["failed"][0]["reason"]


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
