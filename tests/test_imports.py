"""What a process imports: package namespaces resolve on first use.

Every package ``__init__`` names its public surface in one table and
imports nothing until a name is asked for, so importing one module
pays for that module and what it imports, never for the rest of its
package.  Each check runs in a fresh interpreter: the test process has
long since imported everything.
"""

import json
import os

import pytest

from repro.campaign import ClusterSpec, run_campaign, save_catalog, sweep

from .conftest import REPO_SRC
from .test_campaign_preload import fresh_interpreter as fresh_stdout

PACKAGES = sorted(name for name in os.listdir(os.path.join(REPO_SRC, "repro"))
                  if os.path.isfile(os.path.join(REPO_SRC, "repro", name, "__init__.py")))


def fresh_interpreter(code: str):
    return json.loads(fresh_stdout(code))


def test_there_are_nineteen_packages():
    assert len(PACKAGES) == 19


def test_repro_lists_every_package():
    assert fresh_interpreter("import json, repro; print(json.dumps(sorted(repro.__all__)))") \
        == PACKAGES


@pytest.mark.parametrize("package", PACKAGES)
def test_importing_a_package_loads_none_of_its_modules(package):
    loaded = fresh_interpreter(
        "import json, sys\n"
        f"import repro.{package}\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro.{package}.'))))\n"
    )
    assert loaded == []


@pytest.mark.parametrize("package", ["repro"] + [f"repro.{name}" for name in PACKAGES])
def test_every_public_name_resolves_and_is_listed(package):
    if package == "repro.nas":
        pytest.importorskip("scipy")  # the NPB kernels are scipy's
    problems = fresh_interpreter(
        "import importlib, json\n"
        f"module = importlib.import_module({package!r})\n"
        "listed = dir(module)\n"
        "problems = [name for name in module.__all__ if name not in listed]\n"
        "problems += [name for name in module.__all__ if getattr(module, name, None) is None]\n"
        "print(json.dumps(problems))\n"
    )
    assert problems == []


def test_an_unknown_name_is_an_attribute_error_naming_the_module():
    messages = fresh_interpreter(
        "import importlib, json\n"
        "messages = {}\n"
        f"for package in ['repro'] + ['repro.' + name for name in {PACKAGES!r}]:\n"
        "    try:\n"
        "        getattr(importlib.import_module(package), 'no_such_name')\n"
        "    except AttributeError as exc:\n"
        "        messages[package] = str(exc)\n"
        "print(json.dumps(messages))\n"
    )
    assert messages == {
        package: f"module {package!r} has no attribute 'no_such_name'"
        for package in ["repro"] + [f"repro.{name}" for name in PACKAGES]
    }


def test_a_cached_campaign_rerun_loads_no_numpy(tmp_path):
    catalog = list(sweep(ClusterSpec(), n_nodes=[16, 32, 64, 128]))
    save_catalog(catalog, str(tmp_path / "catalog.jsonl"))
    run_campaign(catalog, str(tmp_path / "store"), workers=1)
    loaded = fresh_interpreter(
        "import json, sys\n"
        "from repro.campaign import load_catalog, run_campaign\n"
        f"report = run_campaign(load_catalog({str(tmp_path / 'catalog.jsonl')!r}),\n"
        f"                      {str(tmp_path / 'store')!r}, workers=1)\n"
        "assert report.cache_hits == 4, report.to_dict()\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')))\n"
    )
    assert loaded == []
