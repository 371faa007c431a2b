"""Every function defined in ``src/siqrng`` runs under some command line.

The command lines of ``ARGVS`` run in one process under a profile hook:
``sys.setprofile`` on this thread and ``threading.setprofile`` on the worker
threads that ``--threads 2`` starts (``coverage`` is not a test dependency).
A ``def`` of the package, nested ones included, whose code no call event
reaches fails the test unless ``ALLOWED`` names it with its reason.  The gate
counts functions, not branches or lines: an unreached ``raise`` inside a
reached function passes.
"""

import ast
import json
import sys
import threading
from pathlib import Path

import siqrng
from siqrng import cli

SRC = Path(siqrng.__file__).resolve().parent

# The sweep specification of README's command-line section, its one ```json block.
README = Path(__file__).resolve().parent.parent / "README.md"

SHORT = ["simulate", "--pulses", "20000"]
ARGVS = [
    ["autocorr"],
    ["autocorr", "--mc", "--points", "3", "--pulses", "20000"],
    ["autocorr", "--mc", "--points", "3", "--pulses", "20000", "--threads", "2"],
    ["hmin"],
    ["hmin", "--sweep", "efficiency"],
    ["rates"],
    ["rates", "--points", "5", "--p-hat-ap", "0.6"],
    ["finite-sampling"],
    ["simulate"],
    SHORT + ["--p-hat", "0.05", "--window-depth", "0"],
    SHORT + ["--nu", "10", "--p-hat", "0.05", "--window-depth", "2"],
    SHORT + ["--p-hat", "0.05", "--window-depth", "1000"],
    SHORT + ["--t-z", "0.5", "--t-x", "0.3"],
    SHORT + ["--nu", "50"],
    SHORT + ["--e-q", "0.7", "--q-x", "0.5"],
    SHORT + ["--e-q", "0"],
    SHORT + ["--q-x", "0"],
    SHORT + ["--threads", "2"],
    SHORT + ["--config", "{seed_config}"],
    ["rates", "--config", "{sweep_spec}"],
]

# Functions no command reaches yet, each with the reason it stays.
ALLOWED = {
    "finite_size.RateScenario.monitored": "ROADMAP item 3 gives it a command",
}


def defined_functions():
    """{(file, first line of the code object): "module.qualname"} of every
    ``def`` under ``SRC``.  A decorated function's code starts at its first
    decorator."""
    found = {}

    def visit(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[(str(path), line)] = f"{path.stem}.{name}"
                visit(path, child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(path, child, prefix + child.name + ".")
            else:
                visit(path, child, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(path, ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def run_profiled(argvs):
    """(exit statuses, code objects entered) of ``cli.main`` over ``argvs``.

    Memoized functions of the package forget what earlier tests cached, so
    their bodies run again here.
    """
    for name, module in list(sys.modules.items()):
        if name.startswith("siqrng."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        statuses = [cli.main(argv) for argv in argvs]
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return statuses, entered


def test_every_function_runs_under_a_command(tmp_path, capsys):
    seed_config, sweep_spec = tmp_path / "seed.json", tmp_path / "sweep.json"
    seed_config.write_text(json.dumps({"seed": 3.0}))
    sweep_spec.write_text(README.read_text().split("```json\n", 1)[1].split("```", 1)[0])
    argvs = [[arg.format(seed_config=seed_config, sweep_spec=sweep_spec) for arg in argv]
             + ["--out-dir", str(tmp_path / str(i))] for i, argv in enumerate(ARGVS)]

    statuses, entered = run_profiled(argvs)

    assert statuses == [0] * len(argvs), capsys.readouterr().err
    files = {name: str(Path(name).resolve()) for name in {c.co_filename for c in entered}}
    reached = {(files[c.co_filename], c.co_firstlineno) for c in entered}
    unreached = {name for key, name in defined_functions().items() if key not in reached}
    missing = sorted(unreached - set(ALLOWED))
    assert not missing, f"no command line reaches {', '.join(missing)}"
    stale = sorted(set(ALLOWED) - unreached)
    assert not stale, f"allow-listed but reached or gone: {', '.join(stale)}"
