"""Every module under ``src/repro`` is reached from ``repro.cli``.

The walk follows the import statements of each reached module's syntax
tree, function-local imports included (``cli.py`` imports most
subcommands lazily), so it sees what the program can run without
running it.  A module nothing reaches is dead code; the few that are
kept on purpose are listed below, each with its reason.  The test fails
when a module becomes dead, and also when an allowlisted module is
deleted or wired in, so the list stays true.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent

#: Modules no path from ``repro.cli`` imports, and why each stays.
UNREACHED = {
    "repro.__main__": "the `python -m repro` entry point: it calls cli.main",
    "repro.bricks.halo_plan": "the benchmark ladder probes and times it "
    "as its bricks.gather rungs",
    "repro.gmg.mode_analysis": "test oracle: the local-mode convergence "
    "factor the solver's V-cycle is checked against",
    "repro.harness.agglomeration": "the priced coarse-level "
    "agglomeration model (AgglomeratedTimedSolve), kept for the "
    "in-solver agglomeration's pricing",
    "repro.machines.eventsim": "test oracle: the event simulation "
    "network.exchange_time is checked against",
}


def _module_files() -> dict[str, pathlib.Path]:
    files = {}
    for path in SRC.rglob("*.py"):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


def _imported(name: str, path: pathlib.Path, modules) -> set[str]:
    """Modules of ``modules`` that ``name``'s import statements load,
    with the packages each one's import runs on the way."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            # `from pkg import sub` loads the submodule too
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for target in targets:
            parts = target.split(".")
            found |= {
                ".".join(parts[:n]) for n in range(1, len(parts) + 1)
            } & set(modules)
    return found


def unreached_modules() -> set[str]:
    modules = _module_files()
    reached, todo = set(), ["repro", "repro.cli"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += _imported(name, modules[name], modules)
    return set(modules) - reached


def test_only_allowlisted_modules_are_unreached():
    assert unreached_modules() == set(UNREACHED)
