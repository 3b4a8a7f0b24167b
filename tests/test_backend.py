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


def run_python(code, path):
    """Run code in a fresh interpreter that imports basinscope from path,
    with no backend forced."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("BASINSCOPE_DD_BACKEND", "PYTHONPATH")}
    env["PYTHONPATH"] = str(path)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


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
