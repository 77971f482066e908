"""Per-layer timing by wrapping the package's public functions.

:meth:`Tracer.install` replaces every public function of every ``sbparity``
module, and every public method of its public classes, with a wrapper that
records calls, inclusive time and self time (inclusive minus the time of
wrapped calls made inside it).  The wrapper is put in place under every name
that bound the function in any ``sbparity`` module, so calls made between
modules are seen.  :meth:`Tracer.remove` puts the originals back.  The
package source is not touched.

Span names are ``<module>.<qualname>``, e.g. ``fockspace.d_matrix`` or
``symmat.SymmetricMatrix.to_dense``.  A few spans also record a size from
their arguments or result (bytes, pairs, entries, flops, residual).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from time import perf_counter

PACKAGE = "sbparity"

# span name -> (fact name, fn(bound arguments, result) -> value, "sum" or "max")
FACTS = {
    "symmat.SymmetricMatrix.to_dense": ("bytes", lambda a, r: 8 * a["self"].dim ** 2, "sum"),
    "fockspace.d_matrix": (
        "pairs", lambda a, r: a["basis"].dim * (a["basis"].dim + 1) // 2, "sum"),
    "fockspace.single_mode_l_table": ("entries", lambda a, r: r.size, "sum"),
    "parity.d_square_audit": ("flops", lambda a, r: 2 * a["basis"].dim ** 3, "sum"),
    "spectra.eigen_lowest": ("max_residual", lambda a, r: r.residual, "max"),
}


class Stat:
    __slots__ = ("calls", "total", "self", "facts")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.facts = {}


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self):
        self.stats = {}

    def _wrap(self, name, fn):
        fact = FACTS.get(name)
        signature = inspect.signature(fn) if fact is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat = self.stats.get(name)
                if stat is None:
                    stat = self.stats[name] = Stat()
                stat.calls += 1
                stat.total += elapsed
                stat.self += elapsed - child
            if fact is not None:
                key, measure, how = fact
                value = measure(signature.bind(*args, **kwargs).arguments, result)
                old = stat.facts.get(key)
                stat.facts[key] = (value if old is None
                                   else old + value if how == "sum" else max(old, value))
            return result

        return traced

    def _targets(self):
        """(owner, attribute, original, span name) for every public callable."""
        package = importlib.import_module(PACKAGE)
        modules = {
            info.name: importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        }
        names = {}  # id of a public function -> span name
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    names[id(obj)] = f"{short}.{obj.__qualname__}"
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth_name, meth in vars(obj).items():
                        if not meth_name.startswith("_") and inspect.isfunction(meth):
                            yield obj, meth_name, meth, f"{short}.{meth.__qualname__}"
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in names:
                    yield mod, attr, obj, names[id(obj)]

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for owner, attr, original, name in list(self._targets()):
            wrapper = wrappers.get(id(original))
            if wrapper is None:
                wrapper = wrappers[id(original)] = self._wrap(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
