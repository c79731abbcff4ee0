"""Size of the public surface: library options and CLI config keys.

An option is a defaulted or ** parameter of a public module-level function
of an hjlax module.  A change that adds an option or a config key raises
the bound here in the same diff."""
import importlib
import inspect
import pkgutil

import hjlax
from hjlax import cli

MAX_OPTIONS = 37
MAX_CONFIG_KEYS = 66


def public_options() -> list[str]:
    found = []
    for info in pkgutil.iter_modules(hjlax.__path__):
        mod = importlib.import_module(f"hjlax.{info.name}")
        for name, fn in vars(mod).items():
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            for p in inspect.signature(fn).parameters.values():
                if p.default is not p.empty or p.kind is p.VAR_KEYWORD:
                    found.append(f"{mod.__name__}.{name}({p.name})")
    return found


def leaf_keys(keys: dict, where: str = "") -> list[str]:
    found = []
    for key, (convert, _) in keys.items():
        name = f"{where}.{key}" if where else key
        found += (leaf_keys(convert, name) if isinstance(convert, dict)
                  else [name])
    return found


def test_public_options_stay_within_bound():
    options = public_options()
    assert len(options) <= MAX_OPTIONS, options


def test_config_keys_stay_within_bound():
    keys = [key for kind, table in cli._SCHEMAS.items()
            for key in leaf_keys(table, kind)]
    assert len(keys) <= MAX_CONFIG_KEYS, keys
