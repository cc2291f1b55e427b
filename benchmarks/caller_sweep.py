"""Which ``src`` code does anything but the tests call?

    python benchmarks/caller_sweep.py > sweep.md
    python benchmarks/caller_sweep.py --static

The first form is the traced sweep (several minutes).  It runs every
non-test entry point of the repository (``ENTRY_POINTS``: the CI
``repro`` steps, the CLI commands CI does not run, the ledger smoke,
each ``examples/*.py``, each ``benchmarks/bench_*.py``, a served
session whose jobs run in slot processes, one of them sharded over rank
processes) in a fresh
interpreter whose ``sitecustomize`` installs a ``sys.setprofile`` /
``threading.setprofile`` hook.  The hook is re-armed in every forked
child (``os.register_at_fork``); spawned children import the same
``sitecustomize``.  Each process writes the code objects it entered when
it exits, through ``atexit`` or ``os._exit``.  The sweep then prints a
markdown table of every function defined under ``src/repro`` that no
process entered, with its line count, on stdout (progress on stderr),
and exits 0.

The second form is the cheap gate (a few seconds, no process started).
It builds the import graph of every ``*.py`` outside ``tests/`` from the
AST: roots are the files under ``benchmarks/`` and ``examples/`` and
``repro.__main__``; a name imported from a package ``__init__`` counts
as an import of the module that defines it, and a package ``__init__``'s
own re-exports lead nowhere.  It exits 1, naming them, when a module
under ``src/repro`` is reached from no root and is not on
``ALLOW_UNREACHED`` with its reason.
"""

from __future__ import annotations

import argparse
import ast
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
PKG = SRC / "repro"
PY = sys.executable

#: modules under src/repro that no root imports, kept anyway: name -> reason
ALLOW_UNREACHED: dict[str, str] = {}

# --------------------------------------------------------------------------
# the traced sweep

#: written to a temporary directory that is put first on PYTHONPATH;
#: {out} and {src} are filled in, so the hook reads no environment
SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_OUT, _SRC = {out!r}, {src!r}
_seen = set()
_real_exit = os._exit


def _hook(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _dump():
    rows = {{f"{{c.co_filename}}\\t{{c.co_firstlineno}}\\t{{c.co_name}}\\n"
            for c in list(_seen) if c.co_filename.startswith(_SRC)}}
    _seen.clear()
    if rows:
        path = os.path.join(_OUT, f"{{os.getpid()}}-{{len(os.listdir(_OUT))}}.txt")
        with open(path, "w") as fh:
            fh.writelines(sorted(rows))


def _exit(code):
    _dump()
    _real_exit(code)


def _arm():
    sys.setprofile(_hook)
    threading.setprofile(_hook)


os._exit = _exit
atexit.register(_dump)
os.register_at_fork(after_in_child=lambda: (_seen.clear(), _arm()))
_arm()
'''

QUICK = "examples/specs/ta_quick.toml"
BASELINE = "benchmarks/baseline_kernels.json"

#: spec files written to ``{tmp}`` before the runs: the file-only
#: ``[thermostat]`` table on each engine
SPEC_FILES = {
    f"{kind}_{engine}.toml": (
        f'element = "Ta"\nreps = [4, 4, 2]\nengine = "{engine}"\nsteps = 10\n'
        f'[thermostat]\nkind = "{kind}"\ntemperature = 290.0\n')
    for kind, engine in (("berendsen", "wse"), ("berendsen", "reference"),
                         ("langevin", "reference"))
}


def _repro(*args: str) -> list[str]:
    return [PY, "-m", "repro", *args]


def _pytest(path: str) -> list[str]:
    return [PY, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--benchmark-disable", path]


#: (name, argv) run from the repository root; ``{tmp}`` is a scratch
#: directory.  The CI steps mirror .github/workflows/ci.yml's
#: ``python -m repro`` and ``python examples/...`` lines.
ENTRY_POINTS: list[tuple[str, list[str]]] = [
    ("ci: spec-file run", _repro("run", "--spec", QUICK, "--checkpoint", "{tmp}/ck")),
    ("ci: resume", _repro("run", "--spec", QUICK, "--steps", "20", "--resume", "{tmp}/ck")),
    ("ci: validate", _repro("validate", "--reps", "4", "4", "2", "--steps", "10")),
    ("ci: profile --quick", _repro("profile", "--quick", "--check", "--out", "{tmp}/p.jsonl")),
    ("ci: bench par-Ta-w1/w2", _repro("bench", "--quick", "--cases", "par-Ta-w1", "par-Ta-w2",
                                      "--out", "{tmp}/bp.json", "--baseline", BASELINE)),
    ("ci: profile sharded", _repro("profile", "--quick", "--check", "--engines", "reference",
                                   "--backend", "parallel", "--workers", "2",
                                   "--out", "{tmp}/pp.jsonl")),
    ("ci: profile reference", _repro("profile", "--quick", "--check", "--engines",
                                     "reference")),
    ("ci: bench 2x2 socket", _repro("bench", "--quick", "--cases", "par-Ta-2x2-socket",
                                    "--out", "{tmp}/bd.json", "--baseline", BASELINE)),
    ("ci: profile 2x2 socket", _repro("profile", "--check", "--engines", "reference", "--spec",
                                      "examples/specs/ta_socket_2x2.toml",
                                      "--out", "{tmp}/pd.jsonl")),
    ("ci: bench --quick", _repro("bench", "--quick", "--out", "{tmp}/bk.json",
                                 "--baseline", BASELINE)),
    ("ci: wse checkpoint", _repro("run", "--engine", "wse", "--reps", "6", "6", "3",
                                  "--steps", "4", "--checkpoint", "{tmp}/nan")),
    ("ci: poisoned resume (exit 1)", _repro("run", "--engine", "wse", "--reps", "6", "6", "3",
                                            "--steps", "8", "--resume", "{tmp}/nan")),
    ("ci: wse scale profile", _repro("profile", "--check", "--engines", "wse", "--reps", "48",
                                     "48", "3", "--steps", "3", "--out", "{tmp}/pw.jsonl")),
    *[(f"cli: {cmd}", _repro(cmd)) for cmd in ("info", "table1", "table5", "table6", "fig1")],
    *[(f"spec file: {name}", _repro("run", "--spec", f"{{tmp}}/{name}",
                                    "--checkpoint", f"{{tmp}}/{name}.ck"))
      for name in SPEC_FILES],
    ("sharded run (rank children)", _repro("run", "--engine", "reference", "--backend",
                                           "parallel", "--workers", "2", "--reps", "8", "8",
                                           "3", "--steps", "20")),
    ("ledger smoke", [PY, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                      "benchmarks/ledger/test_ledger.py"]),
]
ENTRY_POINTS += [(f"example: {p.name}", [PY, str(p.relative_to(REPO))])
                 for p in sorted((REPO / "examples").glob("*.py"))]
ENTRY_POINTS += [(f"bench: {p.name}", _pytest(str(p.relative_to(REPO))))
                 for p in sorted((REPO / "benchmarks").glob("bench_*.py"))]

#: the served session: the server (argv after ``python -m repro``; each
#: command gets ``--port`` after its name) is started first, then
#: ``SERVE_STEPS`` run in order; ``KILL_SLOT`` kills one slot with
#: SIGKILL and ``CANCEL`` cancels the job the step before it queued.  That
#: job runs ~100 times longer than the cancel takes to arrive, so the
#: cancel always lands while it runs; the slot heeds it
#: (``Runner.request_stop``) at its next progress event, every 1,024 steps
#: of a job this long (under a second on a 2-vCPU host).  The kill comes
#: before that job: a process killed with SIGKILL writes no trace, so the
#: slot that ran it must live to the shutdown.
SERVE_ARGV = ["serve", "--slots", "2", "--cache-dir", "{tmp}/sc"]
KILL_SLOT, CANCEL = "kill-slot", "cancel"
SERVE_STEPS: list[list[str] | str] = [
    ["submit", "--spec", QUICK],                 # miss
    ["submit", "--spec", QUICK],                 # hit
    ["submit", "--spec", QUICK, "--steps", "24"],  # resume
    ["submit", "--engine", "reference", "--backend", "parallel", "--workers", "2",
     "--reps", "6", "6", "3", "--steps", "10"],  # a sharded job: slot -> ranks
    ["submit", "--spec", QUICK, "--sweep", "seed=1,2", "--watch"],  # an ensemble, streamed
    KILL_SLOT,
    ["submit", "--spec", QUICK, "--steps", "36"],
    ["jobs", "--stats"],
    ["submit", "--spec", QUICK, "--steps", "100000", "--no-wait"],
    CANCEL,
    ["jobs", "--verbose"],
    ["jobs", "--stats"],
    ["jobs", "--shutdown"],
]


def _run(name: str, argv: list[str], env: dict, tmp: str) -> str:
    """Run one entry point; its output."""
    argv = [a.replace("{tmp}", tmp) for a in argv]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=REPO, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    print(f"  {name:<40} exit {proc.returncode}  {time.perf_counter() - t0:6.1f} s",
          file=sys.stderr)
    return proc.stdout


def _poison(tmp: str) -> None:
    """What CI's NaN smoke does to the checkpoint between its two runs."""
    import numpy as np

    path = f"{tmp}/nan.npz"
    data = dict(np.load(path))
    data["positions"][5, 1] = np.nan
    np.savez(path, **data)


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _serve_session(env: dict, tmp: str) -> None:
    port = str(_free_port())
    server = subprocess.Popen(
        _repro(SERVE_ARGV[0], "--port", port,
               *(a.replace("{tmp}", tmp) for a in SERVE_ARGV[1:])),
        cwd=REPO, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        for _ in range(100):
            try:
                socket.create_connection(("127.0.0.1", int(port)), 0.5).close()
                break
            except OSError:
                time.sleep(0.2)
        output = ""
        for step in SERVE_STEPS:
            if step == CANCEL:
                job = output.split(":")[0].strip()
                _run(f"serve: jobs --cancel {job}",
                     _repro("jobs", "--port", port, "--cancel", job), env, tmp)
                continue
            if step == KILL_SLOT:
                stats = subprocess.run(_repro("jobs", "--port", port, "--stats"), cwd=REPO,
                                       env=env, stdout=subprocess.PIPE, text=True).stdout
                pid = int(stats.split("slot_pids: [")[1].split(",")[0].rstrip("]"))
                os.kill(pid, signal.SIGKILL)
                print(f"  {'serve: SIGKILL slot ' + str(pid):<40}", file=sys.stderr)
                continue
            output = _run(f"serve: {' '.join(step)}",
                          _repro(*step[:1], "--port", port, *step[1:]), env, tmp)
        server.wait(timeout=60)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


def trace() -> set[tuple[str, int, str]]:
    """Run the entry points under the hook; the code objects they entered."""
    with tempfile.TemporaryDirectory(prefix="caller-sweep-") as tmp:
        out, site = Path(tmp, "out"), Path(tmp, "site")
        out.mkdir()
        site.mkdir()
        (site / "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(out=str(out), src=str(SRC) + os.sep))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(site), str(SRC)]),
                   OPENBLAS_NUM_THREADS="1")
        for name, text in SPEC_FILES.items():
            Path(tmp, name).write_text(text)
        for name, argv in ENTRY_POINTS:
            _run(name, argv, env, tmp)
            if name == "ci: wse checkpoint":
                _poison(tmp)
        _serve_session(env, tmp)
        reached = set()
        for path in out.iterdir():
            for line in path.read_text().splitlines():
                filename, lineno, name = line.split("\t")
                reached.add((filename, int(lineno), name))
    return reached


def src_functions() -> list[tuple[str, int, str, int, str]]:
    """Every def under src/repro: (file, first line, name, lines, qualname).

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    out = []

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qual = f"{prefix}{child.name}"
                out.append((str(path), first, child.name,
                            child.end_lineno - first + 1, qual))
                walk(child, path, qual + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(PKG.rglob("*.py")):
        walk(ast.parse(path.read_text()), path, "")
    return out


def report(reached: set[tuple[str, int, str]]) -> str:
    functions = src_functions()
    entered = {f for f, _, name in reached if name == "<module>"}
    missed = [f for f in functions if f[:3] not in reached]
    lines = [
        f"{len(functions)} functions under src/repro ({sum(f[3] for f in functions)} lines); "
        f"{len(missed)} reached by no entry point ({sum(f[3] for f in missed)} lines).",
        "",
        "| module | function | lines |",
        "|---|---|---|",
    ]
    for path, _, _, n_lines, qual in missed:
        module = Path(path).relative_to(SRC).with_suffix("").as_posix().replace("/", ".")
        mark = "" if path in entered else " (never imported)"
        lines.append(f"| `{module}`{mark} | `{qual}` | {n_lines} |")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# the static gate

def _module_name(path: Path, src: Path = SRC) -> str | None:
    if not path.is_relative_to(src):
        return None
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _resolve(module: str, level: int, here: str, is_pkg: bool) -> str:
    if not level:
        return module
    base = here.split(".") if is_pkg else here.split(".")[:-1]
    base = base[: len(base) - (level - 1)]
    return ".".join(base + ([module] if module else []))


class _Module:
    """One file's imports: plain edges, and ``from X import name`` pairs."""

    def __init__(self, path: Path, modules: set[str], src: Path = SRC) -> None:
        self.name = _module_name(path, src)
        self.is_pkg = path.name == "__init__.py"
        self.edges: set[str] = set()
        self.from_names: list[tuple[str, str]] = []
        #: a package's re-exports (top-level imports of names in its
        #: ``__all__``): name -> the module it came from
        self.exports: dict[str, str] = {}
        tree = ast.parse(path.read_text())
        self.defines = {n.name for n in tree.body if isinstance(
            n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        public = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", "") == "__all__" for t in node.targets):
                public = set(ast.literal_eval(node.value))
        top = set(map(id, tree.body))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                self.edges.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = _resolve(node.module or "", node.level, self.name or "", self.is_pkg)
                for alias in node.names:
                    sub = f"{base}.{alias.name}"
                    if self.is_pkg and id(node) in top and (alias.asname or alias.name) in public:
                        self.exports[alias.asname or alias.name] = sub if sub in modules else base
                    else:
                        self.from_names.append((base, alias.name))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                # importlib.import_module("repro.x"), ["-m", "repro.x"]
                if node.value in modules:
                    self.edges.add(node.value)


def import_graph(repo: Path = REPO) -> tuple[list[str], set[str]]:
    """Every non-package module under ``repo/src`` (``__main__`` left
    out: it is a root), and the set of modules the roots reach."""
    src = repo / "src"
    files = [p for p in repo.rglob("*.py")
             if not {"tests", ".git", "build"} & set(p.relative_to(repo).parts)]
    modules = {_module_name(p, src) for p in files if _module_name(p, src)}
    parsed = {p: _Module(p, modules, src) for p in files}
    by_name = {m.name: m for m in parsed.values() if m.name}

    def targets(m: _Module) -> set[str]:
        out = set(m.edges)
        for base, name in m.from_names:
            sub = f"{base}.{name}"
            if sub in modules:
                out.add(sub)
                continue
            out.add(base)
            pkg = by_name.get(base)
            # follow a package's re-export chain to the defining module
            while pkg is not None and pkg.is_pkg and name in pkg.exports \
                    and name not in pkg.defines:
                base = pkg.exports[name]
                out.add(base)
                pkg = by_name.get(base)
        return {t for t in out if t in modules}

    roots = [m for p, m in parsed.items()
             if not p.is_relative_to(src) or m.name == "repro.__main__"]
    seen: set[str] = set()
    todo = [t for m in roots for t in targets(m)]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        todo.extend(targets(by_name[name]))
        # importing a.b.c runs a/__init__ and a/b/__init__ first
        todo.extend(name.rsplit(".", k)[0] for k in range(1, name.count(".") + 1))
    return sorted(m.name for m in by_name.values()
                  if not m.is_pkg and m.name != "repro.__main__"), seen


def static_check() -> int:
    modules, seen = import_graph()
    unreached = [name for name in modules
                 if name not in seen and name not in ALLOW_UNREACHED]
    for name in unreached:
        print(f"{name}: imported by nothing outside tests/", file=sys.stderr)
    print(f"{len(modules)} modules under src/repro, {len(unreached)} unreached "
          f"({len(ALLOW_UNREACHED)} allowed)")
    return 1 if unreached else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--static", action="store_true",
                    help="import-graph gate only (seconds, starts nothing)")
    args = ap.parse_args()
    if args.static:
        return static_check()
    print(report(trace()), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
