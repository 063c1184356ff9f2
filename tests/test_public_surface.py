"""The package's public surface: each module's own __all__, re-exported."""

import importlib
import inspect
import pkgutil

import priarta


def submodules():
    return [importlib.import_module(f"priarta.{info.name}")
            for info in pkgutil.iter_modules(priarta.__path__)]


def test_all_has_no_duplicates_and_every_name_resolves():
    assert len(priarta.__all__) == len(set(priarta.__all__))
    for name in priarta.__all__:
        assert hasattr(priarta, name), name


def test_each_exported_name_is_listed_by_exactly_one_module():
    listed = [name for module in submodules() for name in getattr(module, "__all__", ())]
    assert len(listed) == len(set(listed))
    assert sorted(listed + ["__version__"]) == sorted(priarta.__all__)


def test_classes_and_functions_are_defined_where_listed():
    for module in submodules():
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            assert getattr(priarta, name) is obj
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, name


def test_internal_numerics_are_not_exported():
    for name in ("sqrtm_psd", "sym_eig"):
        assert name not in priarta.__all__
        assert not hasattr(priarta, name)
