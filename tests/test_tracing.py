"""The benchmark's tracer (perfbench/tracing.py) wraps phigamma's functions by
name from outside the package: every name it traces must still be defined
where it looks, in the owning module or in the class's own body."""
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_every_traced_name():
    tracing = load_tracing()
    originals = {}
    for name, modname, path, _hook in tracing.SPANS:
        owner, attr = tracing.Tracer._resolve(modname, path)
        assert attr in vars(owner), "%s: %s is gone from %s" % (name, attr, owner)
        originals[name] = (owner, attr, vars(owner)[attr])
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for name, (owner, attr, orig) in originals.items():
            assert vars(owner)[attr] is not orig, name
    finally:
        tracer.uninstall()
    for name, (owner, attr, orig) in originals.items():
        assert vars(owner)[attr] is orig, name
