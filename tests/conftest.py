import importlib.util
import shutil
import sysconfig
from pathlib import Path

import pytest

from basinscope.dd import DdManager, _kernel_py, _select
from basinscope.model import parse_bnet
from basinscope.stg import UpdateMode, build

TOGGLE = "a, !b\nb, !a\n"
CHAIN = "a, a\nb, a & b\n"
REPRESSILATOR = "a, !c\nb, a\nc, b\n"
# a is constantly 0 and every state reaches the steady state 011; the second
# seed is a pattern over the transient states 110 and 111
OVERLAP = "a, b & !b\nb, !a\nc, b\n"
OVERLAP_SEEDS = [{"a": 0, "b": 1, "c": 1}, {"a": 1, "b": 1}]
# a van Ham pair (x_high on with x_medium off is not admissible): one
# steady and one cyclic async attractor, and which one a walk enters
# depends on the order of its draws; sync images that leave the space
# self-loop
VAN_HAM = ("x_medium, !a | x_high\nx_high, x_medium\n"
           "a, x_medium & !a | !x_high\nb, x_medium | a\nc, !a | x_medium\n")
KERNEL_C_SOURCE = Path(_kernel_py.__file__).with_name("_kernel_c.c")


@pytest.fixture(scope="session")
def kernel_c(request, tmp_path_factory):
    """The C kernel module, compiled from its source into a temporary
    directory and loaded from there.  An indirect parameter gives the
    build's define_macros, as setuptools takes them; by default there are
    none."""
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc}) to build the C kernel")
    # Python 3.12+ no longer bundles setuptools
    if importlib.util.find_spec("setuptools") is None:
        pytest.skip("no setuptools to build the C kernel")
    from setuptools import Distribution, Extension

    out = tmp_path_factory.mktemp("kernel_c")
    extension = Extension("_kernel_c", [str(KERNEL_C_SOURCE)],
                          define_macros=getattr(request, "param", []))
    dist = Distribution({"ext_modules": [extension]})
    cmd = dist.get_command_obj("build_ext")
    cmd.build_lib = str(out)
    cmd.build_temp = str(out / "tmp")
    cmd.ensure_finalized()
    cmd.run()
    spec = importlib.util.spec_from_file_location(
        "_kernel_c", cmd.get_ext_fullpath("_kernel_c"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.BACKEND == "c"
    return module


@pytest.fixture(params=["py", "c"])
def manager_on(request, monkeypatch):
    """DdManager factory on the named kernel backend; `build` then runs on
    that backend too."""
    module = (_kernel_py if request.param == "py"
              else request.getfixturevalue("kernel_c"))
    monkeypatch.setattr(_select, "Kernel", module.Kernel)
    return DdManager


@pytest.fixture
def toggle_net():
    return parse_bnet(TOGGLE)


@pytest.fixture
def toggle_ts(toggle_net):
    return build(toggle_net, UpdateMode.ASYNC)


@pytest.fixture
def chain_net():
    return parse_bnet(CHAIN)


@pytest.fixture
def chain_ts(chain_net):
    return build(chain_net, UpdateMode.ASYNC)


@pytest.fixture
def repressilator_ts():
    return build(parse_bnet(REPRESSILATOR), UpdateMode.ASYNC)


def pytest_report_header(config):
    from basinscope.dd import BACKEND
    return f"basinscope kernel backend: {BACKEND}"
