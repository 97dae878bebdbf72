import types

import orbispin


def test_every_export_resolves_to_a_public_name_of_a_submodule():
    # __all__ is derived from the package's imports: each name must come from
    # an orbispin submodule (a class, a function, or one of their constants),
    # and no module object or stray import such as types.ModuleType may leak in
    submodules = [value for value in vars(orbispin).values() if isinstance(value, types.ModuleType)]
    assert submodules and len(set(orbispin.__all__)) == len(orbispin.__all__)
    for name in orbispin.__all__:
        value = getattr(orbispin, name)
        assert not name.startswith("_") and not isinstance(value, types.ModuleType), name
        if callable(value):  # a class or a function
            assert value.__module__.startswith("orbispin."), (name, value.__module__)
        assert any(getattr(module, name, None) is value for module in submodules), name
    namespace: dict = {}
    exec("from orbispin import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(orbispin.__all__)
