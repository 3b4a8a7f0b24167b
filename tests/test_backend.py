"""Kernel backend selection, each case in a fresh interpreter.

The C kernel comes from the `kernel_c` fixture (conftest.py), copied into
a copy of the package as if built in place, so these tests check the
current source whether or not the checkout itself was built.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import basinscope
from conftest import TOGGLE

PACKAGE = Path(basinscope.__file__).parent


def run_python(code, path, backend=None, returncode=0, flags=()):
    """Run code in a fresh interpreter, started with the given flags, that
    imports basinscope from path, with BASINSCOPE_DD_BACKEND set to backend
    (unset for None); returns the finished process."""
    return run_interpreter([*flags, "-c", code], path, backend, returncode)


def run_interpreter(args, path, backend=None, returncode=0):
    """Run a fresh interpreter with the given arguments, as run_python."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("BASINSCOPE_DD_BACKEND", "PYTHONPATH")}
    env["PYTHONPATH"] = str(path)
    if backend is not None:
        env["BASINSCOPE_DD_BACKEND"] = backend
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == returncode, proc.stderr
    return proc


@pytest.fixture
def built_in_place(kernel_c, tmp_path):
    """A copy of the package with the C kernel next to its sources."""
    dest = tmp_path / "basinscope"
    shutil.copytree(PACKAGE, dest, ignore=shutil.ignore_patterns(
        "__pycache__", "_kernel_c.*.so"))
    shutil.copy(kernel_c.__file__, dest / "dd" / Path(kernel_c.__file__).name)
    return tmp_path


def test_c_path_never_loads_the_python_kernel(built_in_place):
    run_python(
        "import sys, basinscope.cli\n"
        "from basinscope.dd import BACKEND\n"
        "assert BACKEND == 'c', BACKEND\n"
        "assert 'basinscope.dd._kernel_py' not in sys.modules\n",
        built_in_place)


def test_both_kernels_raise_one_node_limit_error(built_in_place):
    run_python(
        "from basinscope.dd import NodeLimitError, _kernel_c, _kernel_py\n"
        "assert _kernel_c.NodeLimitError is _kernel_py.NodeLimitError\n"
        "assert _kernel_c.NodeLimitError is NodeLimitError\n",
        built_in_place)


def test_without_the_c_kernel_the_python_kernel_is_used():
    """The fallback for an install without a compiler."""
    run_python(
        "import sys\n"
        "sys.modules['basinscope.dd._kernel_c'] = None\n"
        "import basinscope.dd\n"
        "assert basinscope.dd.BACKEND == 'py', basinscope.dd.BACKEND\n",
        PACKAGE.parent)


def test_forced_c_kernel_must_load():
    """BASINSCOPE_DD_BACKEND=c without the C kernel fails at import, so
    that a run meant for the C kernel never falls back."""
    proc = run_python(
        "import sys\n"
        "sys.modules['basinscope.dd._kernel_c'] = None\n"
        "import basinscope.dd\n",
        PACKAGE.parent, backend="c", returncode=1)
    assert "import of basinscope.dd._kernel_c halted" in proc.stderr


def test_unknown_backend_is_one_line_error(tmp_path):
    """Any other value ends the CLI with one error line and exit code 1,
    as a bad BASINSCOPE_NODE_LIMIT does."""
    model = tmp_path / "toggle.bnet"
    model.write_text(TOGGLE)
    proc = run_python(
        "import sys\n"
        "from basinscope.cli import run\n"
        f"sys.exit(run(['attractors', '--bnet', {str(model)!r}]))\n",
        PACKAGE.parent, backend="x", returncode=1)
    assert proc.stderr == \
        "error: BASINSCOPE_DD_BACKEND must be 'py' or 'c', got 'x'\n"


def test_simulate_leaves_openssl_unloaded(tmp_path):
    """The walk keys hash with the builtin sha512, also when random has
    none yet (as on CPython 3.13): hashlib would load OpenSSL."""
    model = tmp_path / "toggle.bnet"
    model.write_text(TOGGLE)
    run_python(
        "import random, sys\n"
        "random._sha512 = None\n"
        "from basinscope.cli import run\n"
        f"argv = ['simulate', '--bnet', {str(model)!r}, '--markers', 'a']\n"
        "assert run(argv) == 0\n"
        "assert '_hashlib' not in sys.modules\n",
        PACKAGE.parent)



def test_cli_runs_as_a_module(tmp_path):
    """`python -m basinscope` runs the CLI from a source checkout, under
    the CLI's own name."""
    model = tmp_path / "toggle.bnet"
    model.write_text(TOGGLE)
    backend = os.environ.get("BASINSCOPE_DD_BACKEND")
    proc = run_interpreter(
        ["-m", "basinscope", "attractors", "--bnet", str(model), "--json",
         "-"], PACKAGE.parent, backend)
    assert '"representative": "01"' in proc.stdout
    proc = run_interpreter(["-m", "basinscope", "bogus"], PACKAGE.parent,
                           backend, returncode=2)
    assert proc.stderr.startswith("usage: basinscope ")


def test_files_are_read_and_written_as_utf8(tmp_path):
    """No file the CLI reads or writes takes the locale's encoding: every
    subcommand, with every file option, runs with EncodingWarning as an
    error."""
    model = tmp_path / "toggle.bnet"
    model.write_text(TOGGLE)
    seeds = tmp_path / "seeds.json"
    seeds.write_text('["01", "10"]')
    common = ["--bnet", str(model), "--json", str(tmp_path / "out.json")]
    runs = [
        ["attractors", *common, "--attractor-file", str(seeds)],
        ["basins", *common, "--svg", str(tmp_path / "b.svg")],
        ["commitment", *common, "--dot", str(tmp_path / "c.dot"),
         "--svg", str(tmp_path / "c.svg")],
        ["phenotypes", *common, "--markers", "a",
         "--dot", str(tmp_path / "p.dot"), "--svg", str(tmp_path / "p.svg")],
        ["check", *common, "--ctl", "EF(a)"],
        ["render", "--bnet", str(model), "--dot", str(tmp_path / "s.dot")],
        ["simulate", *common, "--markers", "a", "--walks", "20"],
    ]
    run_python(
        "from basinscope.cli import run\n"
        f"for argv in {runs!r}:\n"
        "    assert run(argv) == 0, argv\n",
        PACKAGE.parent, os.environ.get("BASINSCOPE_DD_BACKEND"),
        flags=["-X", "warn_default_encoding", "-W", "error::EncodingWarning"])

# the modules that `import basinscope.cli` loads, the start-up path that
# the benchmark times as setup_s: the package's own, one of the two
# kernels, and standard-library modules from this list, the union of what
# Python 3.10 to 3.13 load (top-level names; C accelerators such as _json
# left out)
CLI_MODULES = {
    "basinscope", "basinscope.attractors", "basinscope.basins",
    "basinscope.cli", "basinscope.ctl", "basinscope.dd",
    "basinscope.dd._errors", "basinscope.dd._select",
    "basinscope.dd.express", "basinscope.dd.manager", "basinscope.diagrams",
    "basinscope.model", "basinscope.report", "basinscope.stg",
}
KERNEL_MODULES = {"basinscope.dd._kernel_c", "basinscope.dd._kernel_py"}
CLI_STDLIB = {
    "argparse", "ast", "bisect", "collections", "contextlib", "copy",
    "copyreg", "dataclasses", "dis", "enum", "errno", "fnmatch", "functools",
    "genericpath", "gettext", "glob", "grp", "importlib", "inspect",
    "ipaddress", "itertools", "json", "keyword", "linecache", "math",
    "ntpath", "opcode", "operator", "os", "pathlib", "posixpath", "pwd",
    "random", "re", "reprlib", "sre_compile", "sre_constants", "sre_parse",
    "stat", "token", "tokenize", "types", "urllib", "warnings", "weakref",
}


def test_cli_import_loads_only_the_pinned_modules():
    """A new import on the CLI's start-up path fails here, not only as a
    slower setup_s in the benchmark.  The interpreter runs without site,
    whose start-up imports differ between installs."""
    proc = run_python(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import basinscope.cli\n"
        "print(*sorted(set(sys.modules) - before))\n",
        PACKAGE.parent, os.environ.get("BASINSCOPE_DD_BACKEND"), flags=["-S"])
    loaded = set(proc.stdout.split())
    package = {m for m in loaded if m.split(".")[0] == "basinscope"}
    assert len(package & KERNEL_MODULES) == 1
    assert package - KERNEL_MODULES == CLI_MODULES
    stdlib = {m.split(".")[0] for m in loaded - package
              if not m.startswith("_")}
    assert stdlib <= CLI_STDLIB, sorted(stdlib - CLI_STDLIB)


def test_cli_import_builds_no_parser():
    """The parser is built by the first run, not at import, where it
    would count in setup_s."""
    proc = run_python(
        "from basinscope import cli\n"
        "print(cli._parser.cache_info().currsize)\n",
        PACKAGE.parent, os.environ.get("BASINSCOPE_DD_BACKEND"))
    assert proc.stdout == "0\n"
