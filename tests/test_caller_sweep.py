"""The static caller gate: every ``src`` module is imported outside ``tests/``.

``benchmarks/caller_sweep.py --static`` builds the import graph from
``benchmarks/``, ``examples/`` and ``python -m repro``; a module no root
reaches is test-only code and goes, unless ``ALLOW_UNREACHED`` keeps it
with a reason.  One case per module here, so an orphan is named by the
failing id; the graph rules are checked on small synthetic trees.
"""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PKG = REPO / "src" / "repro"

_spec = importlib.util.spec_from_file_location(
    "caller_sweep", REPO / "benchmarks" / "caller_sweep.py")
caller_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(caller_sweep)

MODULES = sorted(
    ".".join(p.relative_to(REPO / "src").with_suffix("").parts)
    for p in PKG.rglob("*.py")
    if p.name not in ("__init__.py", "__main__.py")
)


@pytest.fixture(scope="module")
def graph():
    return caller_sweep.import_graph()


def test_graph_lists_every_module(graph):
    modules, _ = graph
    assert modules == MODULES


@pytest.mark.parametrize("module", MODULES)
def test_module_has_a_caller_outside_tests(graph, module):
    _, reached = graph
    assert module in reached or module in caller_sweep.ALLOW_UNREACHED, (
        f"{module} is imported by nothing outside tests/: give it a caller "
        "or delete it, or keep it on ALLOW_UNREACHED with its reason"
    )


def _tree(tmp_path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


def test_module_imported_only_by_tests_is_unreached(tmp_path):
    repo = _tree(tmp_path, {
        "src/pkg/__init__.py": "",
        "src/pkg/used.py": "",
        "src/pkg/orphan.py": "",
        "examples/run.py": "import pkg.used\n",
        "tests/test_orphan.py": "import pkg.orphan\n",
    })
    modules, reached = caller_sweep.import_graph(repo)
    assert modules == ["pkg.orphan", "pkg.used"]
    assert "pkg.used" in reached
    assert "pkg.orphan" not in reached


def test_name_from_a_package_credits_its_defining_module(tmp_path):
    # a re-export is followed to the module that defines the name; a
    # re-export nobody imports leads nowhere
    repo = _tree(tmp_path, {
        "src/pkg/__init__.py": (
            "from pkg.impl import Thing\n"
            "from pkg.other import Other\n"
            '__all__ = ["Thing", "Other"]\n'
        ),
        "src/pkg/impl.py": "class Thing: ...\n",
        "src/pkg/other.py": "class Other: ...\n",
        "benchmarks/bench_thing.py": "from pkg import Thing\n",
    })
    _, reached = caller_sweep.import_graph(repo)
    assert "pkg.impl" in reached
    assert "pkg.other" not in reached


def test_module_named_as_a_string_is_reached(tmp_path):
    # importlib.import_module("pkg.dyn") and ["-m", "pkg.dyn"] both run it
    repo = _tree(tmp_path, {
        "src/pkg/__init__.py": "",
        "src/pkg/dyn.py": "import pkg.helper\n",
        "src/pkg/helper.py": "",
        "examples/run.py": (
            "import importlib\n"
            'importlib.import_module("pkg.dyn")\n'
        ),
    })
    _, reached = caller_sweep.import_graph(repo)
    assert {"pkg.dyn", "pkg.helper"} <= reached
