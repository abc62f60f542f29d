"""Whole-package import health and public-API consistency."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro


def _all_modules():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(info.name)
    return sorted(names)


@pytest.mark.parametrize("module_name", _all_modules())
def test_module_imports_cleanly(module_name):
    importlib.import_module(module_name)


@pytest.mark.parametrize("module_name", [
    name for name in _all_modules()
    if not name.rsplit(".", 1)[-1].startswith("_")
])
def test_dunder_all_names_exist(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists {name}"


def test_top_level_api_surface():
    expected = {
        "Switchboard", "SwitchboardPipeline", "Topology",
        "generate_population", "CallConfig", "MediaType",
        "ServiceSimulator",
    }
    assert expected <= set(repro.__all__)


def test_every_module_has_docstring():
    for module_name in _all_modules():
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"


def test_version_string():
    assert repro.__version__.count(".") == 2


#: Plans and serves the storm drills' small day, then prints whether
#: networkx was loaded, and the scipy modules loaded although the HiGHS
#: extension was there (without it, scipy < 1.15, ``linprog`` solves).
_FOOTPRINT = """
import sys
from repro.day import plan_day
from repro.provisioning import highs
from repro.storms import get_storm
from repro.topology import Topology
day = plan_day(Topology.small(), get_storm("flash-crowd-cascade").build(),
               n_configs=8, calls_per_slot=60.0, cushion=1.25, seed=29)
assert day.serve().admitted_calls > 0
print("networkx" in sys.modules)
if highs._core is not None:
    print(*sorted(name for name in sys.modules
                  if name.split(".")[0] == "scipy"))
"""

#: The HiGHS extension and the two submodules it registers itself.
_HIGHS_MODULES = ["scipy.optimize._highspy._core",
                  "scipy.optimize._highspy._core.cb",
                  "scipy.optimize._highspy._core.simplex_constants"]


def test_a_served_day_loads_neither_networkx_nor_scipy_optimize():
    """Of scipy, a served day loads only the HiGHS extension: not
    scipy.optimize, not scipy.sparse, not even scipy's ``__init__``."""
    src = str(Path(repro.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", _FOOTPRINT], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "False"
    assert lines[1:] in ([], [" ".join(_HIGHS_MODULES)])
