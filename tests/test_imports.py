"""The import contract: the package resolves its public names on first use,
the exact-side subcommands run without loading the Monte Carlo modules, and
``--help``, usage errors, zeros and moments load no numpy, ``dataclasses`` or
``inspect``.  Each check of what a run loads runs in a fresh interpreter, so
no earlier import hides a load; the checks on the source (the package's name
table, the one numpy binding, the exact side's imports) read the modules or
their parse."""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
MONTE_CARLO = ["freezing_dyson.stochastic", "freezing_dyson.stats", "numpy.random"]
# stdlib modules that the exact side's start-up does without: dataclasses
# imports inspect, which imports ast, dis and tokenize
HEAVY_STDLIB = ["dataclasses", "inspect"]


def run_fresh(script: str, cwd):
    """Run ``script`` in a new interpreter that imports from src/; its last
    stdout line, parsed as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after_main(argv, cwd):
    """(exit code, the Monte Carlo modules loaded) of ``cli.main(argv)``."""
    script = (
        "import json, sys\n"
        "from freezing_dyson import cli\n"
        f"code = cli.main({argv!r})\n"
        f"print(json.dumps([code, [m for m in {MONTE_CARLO!r} if m in sys.modules]]))\n"
    )
    return run_fresh(script, cwd)


@pytest.mark.parametrize(
    "argv",
    [
        ["zeros", "--family", "laguerre", "--n", "4", "--alpha", "2.5", "--out", "zeros.csv"],
        ["convolve", "--a", "a.csv", "--b", "b.csv", "--out", "convolve.csv"],
        ["limit", "--kind", "laguerre", "--initial", "a.csv", "--alpha", "6", "--t", "0.5",
         "--verify-ode", "--out", "limit.csv"],
        ["limit", "--kind", "gaussian", "--initial", "a.csv", "--t", "0.5", "--verify-ode",
         "--out", "limit.csv"],
        ["moments", "--n", "3", "--max", "4", "--out", "moments.csv"],
    ],
    ids=["zeros", "convolve", "limit-laguerre", "limit-gaussian", "moments"],
)
def test_exact_side_subcommands_leave_the_monte_carlo_modules_unloaded(argv, tmp_path):
    (tmp_path / "a.csv").write_text("0.5,1,2\n")
    (tmp_path / "b.csv").write_text("-1,0,3\n")
    code, loaded = loaded_after_main(argv, tmp_path)
    assert code == 0
    assert loaded == []


@pytest.mark.parametrize(
    "argv",
    [
        ["clt", "--kind", "gaussian", "--n", "3", "--beta", "1e4", "--samples", "50",
         "--seed", "1", "--out", "clt.json"],
        ["simulate", "--kind", "dyson", "--n", "2", "--beta", "2", "--t", "0.01",
         "--dt", "0.005", "--paths", "3", "--seed", "1", "--out", "sim.csv"],
    ],
    ids=lambda argv: argv[0],
)
def test_monte_carlo_subcommands_load_their_modules(argv, tmp_path):
    code, loaded = loaded_after_main(argv, tmp_path)
    assert code == 0
    assert loaded == MONTE_CARLO


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["zeros", "--family", "gamma", "--n", "3"], 2),  # rejected by argparse
        (["zeros", "--n", "3"], 2),  # --family missing
        (["zeros", "--family", "laguerre", "--n", "3", "--alpha", "0"], 2),
        (["zeros", "--family", "hermite", "--n", "12", "--t", "2"], 0),
        (["zeros", "--family", "laguerre", "--n", "9", "--alpha", "2.5", "--format", "json"], 0),
        (["moments", "--n", "3", "--max", "6"], 0),
    ],
    ids=["help", "argparse-error", "missing-flag", "bad-alpha", "zeros-hermite",
         "zeros-laguerre", "moments"],
)
def test_numpy_free_runs_load_no_numpy(argv, code, tmp_path):
    # both sys.modules at exit and python -X importtime, which lists every
    # module imported, name no numpy module and neither dataclasses nor inspect
    if argv != ["--help"]:
        argv = argv + ["--out", "run.out"]
    script = (
        "import json, sys\n"
        "from freezing_dyson import cli\n"
        "try:\n"
        f"    code = cli.main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(json.dumps([code, [m for m in sys.modules\n"
        f"                         if m.partition('.')[0] in ['numpy', *{HEAVY_STDLIB!r}]]]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", script], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got, loaded = json.loads(proc.stdout.splitlines()[-1])
    timed = [
        line.split("|")[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert got == code
    assert "freezing_dyson.cli" in timed
    assert loaded == []
    assert [m for m in timed if m.partition(".")[0] in ["numpy", *HEAVY_STDLIB]] == []


def test_package_resolves_each_public_name_on_first_use(tmp_path):
    script = (
        "import json, sys\n"
        "import freezing_dyson as fd\n"
        "submodules = sorted(m for m in sys.modules if m.startswith('freezing_dyson.'))\n"
        "listed = dir(fd)\n"
        "owners = {}\n"
        "for name in fd.__all__:\n"
        "    obj = getattr(fd, name)\n"
        "    owner = sys.modules[obj.__module__]\n"
        "    owners[name] = [obj.__module__, getattr(owner, name) is obj]\n"
        "star = {}\n"
        "exec('from freezing_dyson import *', star)\n"
        "print(json.dumps([submodules, listed, fd.__all__, owners, sorted(star)]))\n"
    )
    submodules, listed, public, owners, star = run_fresh(script, tmp_path)
    assert submodules == []  # importing the package loads no submodule
    assert len(public) == len(set(public))
    assert set(public) <= set(listed)
    assert sorted(owners) == sorted(public)
    for name, (module, same) in owners.items():
        assert module.startswith("freezing_dyson.") and same, name
    assert sorted(star) == sorted(public + ["__builtins__"])


def test_unknown_attribute_raises_attribute_error(tmp_path):
    script = (
        "import json\n"
        "import freezing_dyson as fd\n"
        "try:\n"
        "    fd.no_such_name\n"
        "except AttributeError as exc:\n"
        "    message = str(exc)\n"
        "from freezing_dyson import stochastic\n"
        "print(json.dumps([message, stochastic.__name__]))\n"
    )
    message, submodule = run_fresh(script, tmp_path)
    assert message == "module 'freezing_dyson' has no attribute 'no_such_name'"
    assert submodule == "freezing_dyson.stochastic"  # submodule imports still work


def test_cli_imports_no_private_name():
    # the CLI is a client of the public API: every name it imports, at the
    # top or inside a function, is public (a dunder such as __version__ is)
    with open(os.path.join(SRC, "freezing_dyson", "cli.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    private = [n for n in imported if n.startswith("_") and not n.endswith("__")]
    assert imported and private == []


def test_package_lists_each_submodules_public_names():
    # the package table must name what each submodule declares public, or a
    # public name is missing from ``freezing_dyson`` (or a stale one kept)
    import freezing_dyson

    for module, names in freezing_dyson._PUBLIC.items():
        declared = importlib.import_module(f"freezing_dyson.{module}").__all__
        assert sorted(names) == sorted(declared), module


def _imports(node, packages) -> bool:
    """Whether ``node`` imports from one of the top-level ``packages``."""
    if isinstance(node, ast.Import):
        return any(alias.name.partition(".")[0] in packages for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] in packages


def _names_numpy(node) -> bool:
    """The name ``numpy``, or "numpy" as a call's argument or a key of
    ``sys.modules`` (as in ``import_module("numpy")``)."""
    if isinstance(node, ast.Call):
        operands = node.args
    elif isinstance(node, ast.Subscript) and getattr(node.value, "attr", None) == "modules":
        operands = [node.slice]
    else:
        return isinstance(node, ast.Name) and node.id == "numpy"
    return any(isinstance(op, ast.Constant) and op.value == "numpy" for op in operands)


def parsed_modules():
    """(module name, parse) of each module of the package, by name."""
    package = os.path.join(SRC, "freezing_dyson")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                yield name[: -len(".py")], ast.parse(fh.read())


def test_numpy_is_bound_once():
    # the exact-side modules reach numpy through the lazy ``errors.np``; only
    # stats and stochastic, which always need numpy, import it, at module
    # level, and no function imports it (the parse alone is checked)
    local, top, naming = [], [], set()
    for module, tree in parsed_modules():
        for node in ast.walk(tree):
            if _imports(node, ["numpy"]):
                (top if node in tree.body else local).append((module, node.lineno))
            elif _names_numpy(node):
                naming.add(module)
    assert local == []
    assert [module for module, _ in top] == ["stats", "stochastic"]
    assert naming == {"errors"}


def test_exact_side_imports_no_dataclasses_or_typing():
    # the exact side's value types derive from elemsym._Value rather than
    # frozen dataclasses; only stats and stochastic, which load numpy
    # anyway, may import dataclasses (the parse alone is checked)
    exact_side = ["__init__", "cli", "dynamics", "elemsym", "errors", "finfree", "orthopoly"]
    modules = dict(parsed_modules())
    assert sorted(set(modules) - {"stats", "stochastic"}) == exact_side
    found = [
        (module, node.lineno)
        for module in exact_side
        for node in ast.walk(modules[module])
        if _imports(node, ["dataclasses", "typing"])
    ]
    assert found == []


def _referenced(tree) -> set:
    """The identifiers that ``tree`` reads, as names or attributes."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_public_name_has_a_caller():
    # a public name must be used by the library outside its own definition,
    # or by an acceptance criterion; a name that neither reaches is a
    # surface that no subcommand or criterion runs
    import freezing_dyson

    used = set()
    for _, tree in parsed_modules():
        for node in tree.body:  # a top-level definition's reads, less its own name
            used |= _referenced(node) - {getattr(node, "name", None)}
    with open(os.path.join(os.path.dirname(__file__), "test_acceptance.py"), encoding="utf-8") as fh:
        used |= _referenced(ast.parse(fh.read()))
    public = [name for names in freezing_dyson._PUBLIC.values() for name in names]
    assert [name for name in public if name not in used] == []
