"""The benchmark reaches stringsheet by module and name: the tracer
(``perfbench/tracing.py``) wraps functions, and the workloads
(``perfbench/workloads.py``) call them and check what they return.  A
renamed or moved name fails here, before it can break a benchmark run."""
import ast
import importlib.util
import sys
from pathlib import Path

import stringsheet
import stringsheet.cli  # noqa: F401  (the tracer wraps the CLI dispatch table)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
# methods the workloads' checks call on the objects the package returns
CHECKED_METHODS = [
    "ori.OriClosedForm.log_argument",
    "ori.OriClosedForm.u3",
    "ori.OriClosedForm.existence_check",
    "ori.OriClosedForm.corollary_flags",
    "ori.CorollaryFlags.any_true",
]


def load_tracing():
    spec = importlib.util.spec_from_file_location("stringsheet_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def boundary(module_name, path):
    """(namespace, key) of one boundary, resolved the way the tracer does."""
    module = getattr(stringsheet, module_name)
    owner, _, attr = path.rpartition(".")
    if owner == "COMMANDS":
        return module.COMMANDS, attr
    if owner:
        return vars(getattr(module, owner)), attr
    return vars(module), attr


def namespaces(boundaries):
    """Copies of every namespace the tracer may rebind: the package's
    modules, the classes it wraps methods of and the CLI dispatch table."""
    spaces = {name: vars(mod) for name, mod in sys.modules.items() if name.split(".")[0] == "stringsheet"}
    for _, module_name, path in boundaries:
        space, _ = boundary(module_name, path)
        spaces[(module_name, path.rpartition(".")[0])] = space
    return {key: (space, dict(space)) for key, space in spaces.items()}


def test_tracer_wraps_every_boundary_and_restores_it():
    tracing = load_tracing()
    before = namespaces(tracing.BOUNDARIES)
    originals = {}
    for name, module_name, path in tracing.BOUNDARIES:
        space, key = boundary(module_name, path)
        if key in space:
            originals[(module_name, path)] = space[key]
    tracer = tracing.Tracer()
    tracer.install(stringsheet)
    try:
        wrapped = {
            name
            for name, module_name, path in tracing.BOUNDARIES
            if (module_name, path) in originals
            and boundary(module_name, path)[0][path.rpartition(".")[2]]
            is not originals[(module_name, path)]
        }
    finally:
        tracer.uninstall()
    # every span name wraps at least one function (a method the class
    # inherits is skipped by the tracer, but not all of a span's methods)
    assert wrapped == {name for name, _, _ in tracing.BOUNDARIES}
    for key, (space, copy) in before.items():
        assert space.keys() == copy.keys(), key
        changed = [k for k in copy if space[k] is not copy[k]]
        assert not changed, (key, changed)


def package_chains(tree, alias):
    """Every attribute chain rooted at the name ``alias``, as a tuple of
    names."""
    chains = set()
    for node in ast.walk(tree):
        names, inner = [], node
        while isinstance(inner, ast.Attribute):
            names.append(inner.attr)
            inner = inner.value
        if names and isinstance(inner, ast.Name) and inner.id == alias:
            chains.add(tuple(reversed(names)))
    return chains


def test_workloads_reach_only_names_the_package_has():
    # workloads.py imports the package as ``ss``
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    chains = package_chains(tree, "ss")
    assert ("ori", "OriClosedForm", "from_profiles") in chains
    missing = []
    for chain in sorted(chains | {tuple(m.split(".")) for m in CHECKED_METHODS}):
        owner = stringsheet
        for name in chain:
            if not hasattr(owner, name):
                missing.append(".".join(chain))
                break
            owner = getattr(owner, name)
    assert not missing, missing
