"""What ``import octfield`` and the console script load: the invariants and
words start without NumPy, and the numeric layer loads on first use.  Each
import check runs in a fresh interpreter, since this process has long since
imported everything."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import octfield

SRC = Path(octfield.__file__).resolve().parent.parent
WORKED_JSON = '{"e":[1,1,1],"k":[1,1,1],"omega_units":3}'


def run_fresh(code: str) -> str:
    """stdout of ``code`` run in a new interpreter that imports this
    checkout's ``octfield``; fails the test on a non-zero exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_octfield_loads_no_numpy():
    loaded = json.loads(run_fresh("""
        import json, sys
        import octfield
        print(json.dumps(sorted(m for m in sys.modules
                                if m == "numpy" or m.startswith("octfield"))))
    """))
    assert loaded == ["octfield", "octfield.topology", "octfield.words"]


def test_the_console_runs_classify_and_spelling_without_numpy():
    run_fresh(f"""
        import sys
        from octfield.console import main
        assert main(["spelling", "--word", "a b a' b'"]) == 0
        assert main(["spelling", "--json", {WORKED_JSON!r}]) == 0
        assert main(["classify", "--json", {WORKED_JSON!r}]) == 0
        assert main(["classify", "--json", {WORKED_JSON!r}, "--prism", "3", "2", "1"]) == 0
        assert "numpy" not in sys.modules, "numpy was imported"
    """)


def test_import_cli_loads_every_traced_module():
    loaded = set(json.loads(run_fresh("""
        import json, sys
        import octfield.cli
        print(json.dumps(sorted(sys.modules)))
    """)))
    for name in ("rational", "patchwork", "numerics", "words", "reports"):
        assert f"octfield.{name}" in loaded
    assert "numpy" in loaded


def test_the_numeric_commands_load_the_numeric_layer():
    # construct is dispatched into octfield.cli, which brings NumPy with it
    run_fresh(f"""
        import contextlib, io, sys
        from octfield.console import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", "--json", {WORKED_JSON!r}, "--grid-level", "1"]) == 0
        assert "numpy" in sys.modules and "octfield.cli" in sys.modules
    """)


def test_the_readme_quickstart_import():
    run_fresh("""
        from octfield import (OctantTopology, classify, infimum_energy,
                              select_case, assemble_patchwork, dirichlet_energy,
                              measure_map_wrapping, degree_count, trapped_area,
                              wrapping_from_invariants)
        t = OctantTopology(e=(1, 1, 1), k=(1, 1, 1), omega_units=3)
        w = wrapping_from_invariants(t)
        assert infimum_energy(w, classify(w, t)) == 7
        assert callable(select_case) and callable(dirichlet_energy)
    """)


@pytest.mark.parametrize("name", octfield.__all__)
def test_each_public_name_is_its_defining_modules_object(name):
    obj = getattr(octfield, name)
    assert obj.__module__.startswith("octfield.")
    assert getattr(sys.modules[obj.__module__], name) is obj
    assert name in dir(octfield)


def test_the_lazy_names_are_never_bound_in_the_package():
    # a traced benchmark pass wraps the functions at every binding site it
    # finds; a wrapper cached in the package would outlive the pass
    for name in octfield.__all__:
        getattr(octfield, name)
    lazy = [name for name in octfield.__all__
            if not getattr(octfield, name).__module__.endswith((".topology", ".words"))]
    assert len(lazy) == 20
    assert not set(lazy) & set(vars(octfield))
    assert octfield.realize is octfield.rational.realize


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'realise'"):
        octfield.realise
    assert not hasattr(octfield, "realise")
