"""Start-up: the package API, and which engines a CLI process imports.

``python -m probuchi.cli`` imports each engine inside the handler that calls
it, while ``import probuchi.cli`` still binds every engine.  The in-process
CLI tests import the module form, so the fresh interpreters here are the
only tests of the ``-m`` form's handler imports.
"""

import io
import os
import subprocess
import sys

import pytest

import probuchi
from probuchi import gen_m_id, gen_p3, gen_succinct, hpba_to_nba
from probuchi.cli import run
from probuchi.textio import serialize

SRC = os.path.dirname(os.path.dirname(probuchi.__file__))
ENGINES = ("construct", "core", "decide", "graphs", "markov", "sim", "textio")

# Every name the package exports, by home module.
EXPORTS = {
    "core": (
        "Automaton AutomatonError BuchiAcceptance ConstructionError "
        "InvalidAutomatonError LassoWord RabinAcceptance RankFunction "
        "ResourceLimitError UnknownSymbolError ValidationReport infer_hierarchy "
        "lasso post validate"
    ),
    "markov": (
        "RationalMatrix binary_value_lasso final_passage_matrix "
        "lasso_acceptance word_matrix"
    ),
    "construct": (
        "almost_sure_intersection almost_sure_union complement_to_fpm dra_to_hpba "
        "fpm_product gen_m_id gen_m_id_squared gen_m_id_swapped gen_p3 gen_succinct "
        "generate_example hpba_to_nba rabin_decomposition reject_pba rename_states "
        "safety_closure"
    ),
}
HOME = {name: module for module, names in EXPORTS.items() for name in names.split()}


def _python(*args, stdin=""):
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC, "COLUMNS": "80"},
    )


def test_the_package_binds_what_it_bound():
    assert len(HOME) == 36
    for name, module in HOME.items():
        home = getattr(probuchi, module)
        assert getattr(probuchi, name) is getattr(home, name), name
    for module in ENGINES:
        assert getattr(probuchi, module) is sys.modules[f"probuchi.{module}"]
    assert probuchi.__version__ == "0.1.0"
    public = {*HOME, *ENGINES}
    assert {n for n in dir(probuchi) if not n.startswith("_")} >= public
    assert "__version__" in dir(probuchi)
    star: dict = {}
    exec("from probuchi import *", star)
    assert set(star) - {"__builtins__"} == public
    with pytest.raises(AttributeError, match="has no attribute 'nosuch'"):
        probuchi.nosuch
    with pytest.raises(ImportError):
        exec("from probuchi import nosuch", {})


def test_a_fresh_package_lists_what_it_bound_and_loads_nothing():
    script = (
        "import sys, probuchi\n"
        "print(sorted(m for m in sys.modules if m.startswith('probuchi.')))\n"
        "print(sorted(n for n in dir(probuchi) if not n.startswith('_')))\n"
        "from probuchi import gen_m_id\n"
        "print(sorted(m for m in sys.modules if m.startswith('probuchi.')))\n"
    )
    proc = _python("-c", script)
    loaded, listed, after = proc.stdout.splitlines()
    assert loaded == "[]"
    assert listed == str(sorted({*HOME, *ENGINES}))
    assert after == str([f"probuchi.{m}" for m in ("construct", "core", "graphs", "textio")])


def test_importing_the_cli_module_binds_every_engine():
    """The traced benchmark imports ``probuchi.cli`` and then wraps functions
    in every engine it finds in ``sys.modules``."""
    script = (
        "import sys, probuchi.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('probuchi.')))\n"
    )
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == str(sorted(f"probuchi.{m}" for m in ("cli", *ENGINES))) + "\n"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("startup")
    texts = {
        "m_id.pba": serialize(gen_m_id()),
        "p3.pba": serialize(gen_p3("1/3")),
        "s2.hpba": serialize(gen_succinct(2)),
        "s2.nba": serialize(hpba_to_nba(gen_succinct(2))),
        "d.dra": (
            "type: dra\nalphabet: a b\nstates: qb qa\ninit: qb\npair: {} {qa}\n"
            "qa -a-> qa\nqa -b-> qb\nqb -a-> qa\nqb -b-> qb\n"
        ),
        "r.pra": (
            "type: pra\nalphabet: a\nstates: s t\ninit: s\npair: {s} {t}\n"
            "s -a-> t : 1\nt -a-> t : 1\n"
        ),
    }
    for name, text in texts.items():
        (d / name).write_text(text)
    return d


# One invocation per subcommand, with the engines its handler imports on top
# of core, graphs and textio; stdin is fed to ``monitor``.
_BASE = {"core", "graphs", "textio"}
_DECIDE = _BASE | {"construct", "decide", "markov"}
INVOCATIONS = [
    ("validate m_id.pba", _BASE),
    ("rank s2.hpba", _BASE),
    ("prob m_id.pba ;10", _BASE | {"markov"}),
    ("mc m_id.pba ;10 --samples 200 --seed 3", _BASE | {"markov", "sim"}),
    ("monitor m_id.pba", _BASE | {"markov", "sim"}),
    ("complement s2.nba --complement-cap 9", _DECIDE),
    ("product m_id.pba m_id.pba", _BASE | {"construct"}),
    ("union p3.pba p3.pba", _BASE | {"construct"}),
    ("intersect p3.pba p3.pba", _BASE | {"construct"}),
    ("dra2hpba d.dra", _BASE | {"construct"}),
    ("hpba2nba s2.hpba", _BASE | {"construct"}),
    ("closure s2.hpba", _BASE | {"construct"}),
    ("decompose r.pra", _BASE | {"construct"}),
    ("empty m_id.pba --semantics almost-sure", _DECIDE),
    ("universal s2.nba", _DECIDE),
    ("witness m_id.pba --max-len 1 --max-j 3", _DECIDE),
    ("contain p3.pba m_id.pba --semantics positive --bound 2", _DECIDE),
    ("gen succinct 2", _BASE | {"construct"}),
    ("empty m_id.pba --monoid-cap 1", _DECIDE),
    ("prob nosuch.pba ;0", _BASE | {"markov"}),
    ("nosuch", _BASE),
    ("--help", _BASE),
]
_STDIN = "0\n1\n0\n"


def _argv(line, files):
    return [str(files / a) if (files / a).exists() else a for a in line.split()]


@pytest.mark.parametrize("line", [line for line, _ in INVOCATIONS])
def test_module_form_prints_what_the_in_process_cli_prints(
    line, files, capsys, monkeypatch
):
    argv = _argv(line, files)
    proc = _python("-m", "probuchi.cli", *argv, stdin=_STDIN)
    monkeypatch.setattr("sys.stdin", io.StringIO(_STDIN))
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = run(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    out, err = capsys.readouterr()
    assert (proc.stdout, proc.stderr, proc.returncode) == (out, err, code)


@pytest.mark.parametrize("line, engines", INVOCATIONS)
def test_module_form_imports_only_the_engines_it_runs(line, engines, files):
    script = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print(sorted(m for m in sys.modules"
        " if m.startswith('probuchi.')), file=sys.stderr))\n"
        "sys.argv[0] = 'probuchi'\n"
        "runpy.run_module('probuchi.cli', run_name='__main__', alter_sys=True)\n"
    )
    proc = _python("-c", script, *_argv(line, files), stdin=_STDIN)
    loaded = proc.stderr.splitlines()[-1]
    assert loaded == str(sorted(f"probuchi.{m}" for m in engines))
