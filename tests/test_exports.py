"""Every exported name resolves, and the package re-exports only module API."""
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import liouville


def test_exports_resolve_and_package_names_are_public():
    modules = [info.name for info in pkgutil.iter_modules(liouville.__path__)]
    exported = set()
    for name in modules:
        module = importlib.import_module(f"liouville.{name}")
        for attr in module.__all__:
            assert hasattr(module, attr), f"liouville.{name}.{attr}"
        exported.update(module.__all__)
    public = {n for n in vars(liouville) if not n.startswith("_")}
    public -= set(modules)
    assert public <= exported, sorted(public - exported)


def test_benchmark_trace_list_resolves():
    """Every function the benchmark tracer wraps exists in the library:
    perfbench/tracing.py's Tracer.install raises on a missing name."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for label, owner_path, attr in tracing.TRACED:
        module, _, cls = owner_path.partition(".")
        owner = importlib.import_module(f"liouville.{module}")
        if cls:
            owner = getattr(owner, cls)
        assert hasattr(owner, attr), label
