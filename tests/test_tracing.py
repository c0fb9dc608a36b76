"""The benchmark tracer (``perfbench/tracing.py``) wraps stringsheet
functions by module and name.  A renamed or moved boundary fails here,
before it can break a traced benchmark run."""
import importlib.util
import sys
from pathlib import Path

import stringsheet
import stringsheet.cli  # noqa: F401  (the tracer wraps the CLI dispatch table)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
