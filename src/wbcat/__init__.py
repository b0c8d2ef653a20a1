"""Exact-arithmetic engines for walled Brauer diagram categories."""

import sys

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every memo cache of the loaded wbcat modules: each
    functools.lru_cache and the intern table of diagrams.Monomial, every
    module-level object with a cache_clear method. The caches are unbounded;
    call this to give their memory back."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("wbcat.") and mod is not None:
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
