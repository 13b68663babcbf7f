"""The end-to-end benchmark's tracer patches runtime entry points by name
(``benchmarks/e2e/e2ebench/tracing.py::ENTRY_POINTS``); a missing one
raises ``KeyError`` at install and one that is no longer a plain function
is skipped, silently zeroing a per-layer metric.  This pins the names: a
refactor that renames or drops a traced entry point fails here, in tier-1,
instead of in the benchmark."""

import importlib
import importlib.util
import types
from pathlib import Path

import repro  # noqa: F401 - loads every subclass the tracer would see
import repro.runtime.mp  # noqa: F401 - ... and the mp module's wire entry points

_TRACING = (Path(__file__).resolve().parents[2]
            / "benchmarks" / "e2e" / "e2ebench" / "tracing.py")


def test_every_traced_entry_point_resolves_to_a_plain_function():
    # loaded by path, read-only: tracing.py imports only the stdlib
    spec = importlib.util.spec_from_file_location("_e2e_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    broken = []
    for layer, sites in tracing.ENTRY_POINTS.items():
        for modname, clsname, names in sites:
            mod = importlib.import_module(modname)
            for name in names:
                # the tracer patches the module, or the class in the MRO
                # that defines the name plus every overriding subclass
                owners = ([mod] if clsname is None else
                          tracing._defining_classes(getattr(mod, clsname),
                                                    name))
                fns = [vars(o).get(name) for o in owners]
                if not fns or not all(isinstance(f, types.FunctionType)
                                      for f in fns):
                    broken.append(f"{layer}: {modname}:{clsname}.{name}")
    assert not broken, f"traced entry points no longer patchable: {broken}"
