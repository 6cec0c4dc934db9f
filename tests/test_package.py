"""The package namespace: public names resolve lazily to their submodule's
objects."""

import pytest

import rossmac

SUBMODULES = ("model", "kernel", "trajectory", "estimation")


def test_every_public_name_is_its_submodules_object():
    for name in rossmac.__all__:
        obj = getattr(rossmac, name)
        module = obj.__module__
        assert module in {f"rossmac.{m}" for m in SUBMODULES}, name
        assert getattr(getattr(rossmac, module.split(".")[1]), name) is obj
        assert name in dir(rossmac)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from rossmac import *", namespace)
    assert {name: namespace[name] for name in rossmac.__all__} == {
        name: getattr(rossmac, name) for name in rossmac.__all__}


def test_submodules_resolve_through_the_package(monkeypatch):
    # Without the attributes an earlier import set, only the package's own
    # lookup can answer, as after a bare `import rossmac`.
    modules = {name: getattr(rossmac, name) for name in SUBMODULES}
    for name in SUBMODULES:
        monkeypatch.delattr(rossmac, name)
    for name in SUBMODULES:
        assert getattr(rossmac, name) is modules[name]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rossmac.no_such_name
