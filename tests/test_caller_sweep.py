"""The static caller gate: every ``src`` module is imported outside ``tests/``.

``benchmarks/caller_sweep.py --static`` builds the import graph from
``benchmarks/``, ``examples/`` and ``python -m repro``; a module no root
reaches is test-only code and goes, unless ``ALLOW_UNREACHED`` keeps it
with a reason.  One case per module here, so an orphan is named by the
failing id; the graph rules are checked on small synthetic trees.

The traced sweep runs what CI runs: every ``python -m repro`` command
of the CI workflow must be one of its entry points (one case per
command), so a CI step added without one fails here.
"""

import importlib.util
import shlex
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


# -- the traced sweep runs every CI ``python -m repro`` command ------------

CI = REPO / ".github" / "workflows" / "ci.yml"
#: options whose value is where a run writes or finds its files (or the
#: server's port): CI uses its workspace, the sweep a scratch directory
_PLACE_OPTIONS = {"--out", "--checkpoint", "--resume", "--cache-dir", "--port"}
_SHELL = {"|", "&", ">", "2>"}


def _normalised(args) -> tuple[str, ...]:
    """A ``repro`` argv up to any shell operator, place values blanked."""
    out: list[str] = []
    for arg in args:
        if arg in _SHELL:
            break
        out.append("_" if out and out[-1] in _PLACE_OPTIONS else arg)
    return tuple(out)


def _ci_invocations() -> list[tuple[str, ...]]:
    """Every ``python -m repro`` command in the CI workflow, normalised."""
    text = CI.read_text().replace("\\\n", " ")
    found = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("#") or "python -m repro " not in line:
            continue
        found.append(_normalised(
            shlex.split(line.split("python -m repro ", 1)[1])))
    return found


def _sweep_entries() -> set[tuple[str, ...]]:
    """The ``repro`` commands the traced sweep runs, normalised the same
    way: its entry points and its served session."""
    entries = {
        _normalised(argv[3:]) for _, argv in caller_sweep.ENTRY_POINTS
        if argv[1:3] == ["-m", "repro"]
    }
    served = [caller_sweep.SERVE_ARGV] + [
        step for step in caller_sweep.SERVE_STEPS if isinstance(step, list)
    ]
    entries |= {
        _normalised([argv[0], "--port", "_", *argv[1:]]) for argv in served
    }
    return entries


CI_INVOCATIONS = _ci_invocations()


def test_ci_commands_are_found():
    commands = {argv[0] for argv in CI_INVOCATIONS}
    assert {"run", "validate", "profile", "bench", "serve", "submit",
            "jobs"} <= commands


@pytest.mark.parametrize(
    "argv", CI_INVOCATIONS, ids=[" ".join(a) for a in CI_INVOCATIONS]
)
def test_ci_command_is_a_sweep_entry_point(argv):
    assert argv in _sweep_entries(), (
        f"CI runs `python -m repro {' '.join(argv)}`, which "
        "benchmarks/caller_sweep.py does not: add it to ENTRY_POINTS "
        "(or SERVE_STEPS for the served session)"
    )
