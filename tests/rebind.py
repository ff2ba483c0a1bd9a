"""The one way the tests replace a package function: in every module that binds it."""

import sys


def rebind(monkeypatch, owner, name, replacement):
    """Set name to replacement, through monkeypatch, in every krylovexact
    module that binds owner's object of that name: owner itself and each
    module that imported it.  The modules come from sys.modules, because
    the package attribute krylovexact.lanczos is the function, not the module."""
    original = getattr(owner, name)
    for module in [m for key, m in sys.modules.items() if key.startswith("krylovexact")]:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)
