"""Every exported name resolves, and the package re-exports only module API."""
import importlib
import pkgutil

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
