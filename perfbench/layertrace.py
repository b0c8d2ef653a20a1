"""Per-layer spans and counters for wbcat, recorded from outside the package.

`Tracer.install()` replaces the functions listed below with wrappers, in the
defining module and in every other loaded module that bound the same function
object with `from ... import` (under that name or an alias); a listed method
is replaced on its class. The package itself is not modified on disk.

Each wrapper counts calls and errors and records a span. A group's self time
is its spans minus the spans of the wrapped calls they made; its total time
is the time inside its outermost spans, children included.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# (module, function, metric group). Functions in one group add up.
SPANS = (
    ("exact", "sparse_rank", "exact.sparse_rank"),
    ("exact", "row_echelon", "exact.dense"),
    ("exact", "rref", "exact.dense"),
    ("exact", "nullspace", "exact.dense"),
    ("exact", "series_add", "exact.series"),
    ("exact", "series_mul", "exact.series"),
    ("exact", "series_div", "exact.series"),
    ("exact", "series_negate_u", "exact.series"),
    ("exact", "series_star", "exact.series"),
    ("exact", "series_one", "exact.series"),
    ("diagrams", "compose_diagrams", "diagrams.compose_diagrams"),
    ("affine", "tok_mono", "affine.tok_mono"),
    ("affine", "multiply", "affine.multiply"),
    ("affine", "reduce", "affine.reduce"),
    ("cyclotomic", "cyclo_reduce", "cyclotomic.cyclo_reduce"),
    ("glrep", "apply_token", "glrep.apply_token"),
    ("glrep", "y_apply", "glrep.y_apply"),
    ("glrep", "omega_pair", "glrep.omega_pair"),
    ("glrep", "represent", "glrep.represent"),
    ("glrep", "ModuleVector.__add__", "glrep.vector_ops"),
    ("glrep", "ModuleVector.__sub__", "glrep.vector_ops"),
    ("glrep", "ModuleVector.scale", "glrep.vector_ops"),
    ("glrep", "ModuleVector.__eq__", "glrep.vector_ops"),
    ("relations", "all_instances", "relations.all_instances"),
    ("young4", "enumerate_Y", "young4.enumerate_Y"),
)

# Hot helpers whose calls are counted without a span, to keep the cost low.
COUNTS = (
    ("diagrams", "orseq", "diagrams.orseq"),
    ("diagrams", "word_for_monomial", "diagrams.word_for_monomial"),
)

CACHES = (
    ("affine", "_w_series"),
    ("affine", "_prefixes"),
    ("affine", "_arc_transport"),
    ("affine", "_bottom_arc_transport"),
    ("cyclotomic", "_quadratic_replacement"),
    ("diagrams", "word_for_diagram"),
    ("glrep", "_module_action"),
    ("young4", "gt_weight_multiplicity"),
)

# Group -> the workload on which it must record at least one call.
EXPECTED = {
    "exact.sparse_rank": "faithful3",
    "exact.dense": "cli_mix",
    "exact.series": "struct3",
    "diagrams.compose_diagrams": "struct3",
    "diagrams.orseq": "struct3",
    "diagrams.word_for_monomial": "struct3",
    "affine.tok_mono": "struct3",
    "affine.multiply": "struct3",
    "affine.reduce": "struct3",
    "cyclotomic.cyclo_reduce": "struct3",
    "glrep.apply_token": "relcheck3",
    "glrep.y_apply": "relcheck3",
    "glrep.omega_pair": "relcheck3",
    "glrep.represent": "faithful3",
    "glrep.vector_ops": "relcheck3",
    "relations.all_instances": "relcheck3",
    "young4.enumerate_Y": "cli_mix",
}


def _nnz(args, kwargs, result):
    rows = args[0] if args else kwargs.get("rows")
    return sum(len(r) for r in rows) if isinstance(rows, list) else 0


def _terms(args, kwargs, result):
    return len(getattr(result, "terms", ()))


def _items(args, kwargs, result):
    return len(result) if hasattr(result, "__len__") else 0


# Extra counters: group -> (counter name, function of (args, kwargs, result)).
EXTRA = {
    "exact.sparse_rank": ("exact.sparse_rank.nnz_in", _nnz),
    "glrep.apply_token": ("glrep.terms_out", _terms),
    "young4.enumerate_Y": ("young4.walks_out", _items),
}


# Generator functions: group -> counter of the items they yield.
YIELDS = {"relations.all_instances": "relations.instances_out"}


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "errors", "depth")

    def __init__(self):
        self.calls = self.errors = self.depth = 0
        self.self_s = self.total_s = 0.0


class Tracer:
    def __init__(self):
        self.stats = {}  # group -> _Stat
        self.counters = {}  # counter name -> int
        self.top_s = 0.0  # time inside outermost spans
        self._stack = []  # child time of each open span
        self.absent = []  # listed functions the package no longer has

    @staticmethod
    def _rebind(orig, wrapper):
        """Replace `orig` under every name any loaded wbcat module binds it to."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "wbcat" or name.startswith("wbcat.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)

    def _open(self, stat):
        stat.depth += 1
        self._stack.append(0.0)
        return time.perf_counter()

    def _close(self, stat, t0):
        dt = time.perf_counter() - t0
        stat.self_s += dt - self._stack.pop()
        stat.depth -= 1
        if not stat.depth:  # outermost call of this group: inclusive time
            stat.total_s += dt
        if self._stack:
            self._stack[-1] += dt
        else:
            self.top_s += dt

    def _span(self, fn, group):
        stat = self.stats.setdefault(group, _Stat())
        extra = EXTRA.get(group)
        if extra:
            self.counters.setdefault(extra[0], 0)

        if inspect.isgeneratorfunction(fn):
            # time each step of the generator and count the items it yields
            item_counter = YIELDS[group]
            self.counters.setdefault(item_counter, 0)

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                stat.calls += 1
                it = fn(*args, **kwargs)
                while True:
                    t0 = self._open(stat)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    except BaseException:
                        stat.errors += 1
                        raise
                    finally:
                        self._close(stat, t0)
                    self.counters[item_counter] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            t0 = self._open(stat)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                self._close(stat, t0)
            if extra:
                self.counters[extra[0]] += extra[1](args, kwargs, result)
            return result

        return wrapper

    def _count(self, fn, group):
        stat = self.stats.setdefault(group, _Stat())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every listed function that the loaded package defines."""
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for mod_name, fn_name, group in table:
                owner = sys.modules.get("wbcat." + mod_name)
                *path, attr = fn_name.split(".")
                for name in path:
                    owner = getattr(owner, name, None)
                orig = getattr(owner, attr, None)
                if orig is None:
                    self.absent.append(f"{mod_name}.{fn_name}")
                    self.stats.setdefault(group, _Stat())
                    continue
                wrapper = make(orig, group)
                if path:
                    setattr(owner, attr, wrapper)
                else:
                    self._rebind(orig, wrapper)
        return self

    def snapshot(self):
        """Counts and times of this process, as a flat dict."""
        out = {"top_s": self.top_s}
        spans = {g for _, _, g in SPANS}
        for group, st in self.stats.items():
            out[group + ".calls"] = st.calls
            if group in spans:
                out[group + ".self_s"] = st.self_s
                out[group + ".total_s"] = st.total_s
                out[group + ".errors"] = st.errors
        out.update(self.counters)
        out.update(cache_stats())
        return out


def missing_calls(snapshot, absent, workload):
    """Groups expected to run on `workload` that recorded no call, leaving
    out groups whose functions the package no longer defines."""
    return sorted(
        g for g, w in EXPECTED.items()
        if w == workload and snapshot.get(g + ".calls", 0) == 0
        and not all(f"{m}.{f}" in absent for m, f, gg in SPANS + COUNTS if gg == g)
    )


def cache_stats():
    """hits, misses and current size of every listed lru_cache."""
    out = {}
    for mod_name, name in CACHES:
        fn = getattr(sys.modules.get("wbcat." + mod_name), name, None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        key = f"{mod_name}.{name}"
        out[key + ".hits"] = info.hits if info else 0
        out[key + ".misses"] = info.misses if info else 0
        out[key + ".currsize"] = info.currsize if info else 0
    return out
