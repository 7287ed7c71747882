"""Per-layer tracer: wraps the public functions and methods of every
colorpart layer module and aggregates call counts, errors and self time.

A wrapper replaces the function in its own module and in every colorpart
module that imported the same object, so calls between layers (say,
algebra into diagrams.compose) are seen.  Self time is a call's duration
minus the wrapped calls nested inside it.  Spans are not kept per call:
only the benchmark's job spans are, because the inner calls number in the
millions.
"""

import functools
import inspect
import sys
from time import perf_counter

LAYERS = ("scalars", "diagrams", "algebra", "groupoid", "rs", "ribbon",
          "characters", "modules_rep", "cli")

_MISSING = object()

# Layers whose lru_caches report a hit ratio.
CACHED_LAYERS = ("scalars", "diagrams", "characters", "modules_rep")

# Per-function metrics by layer: (metric name, wrapped names in the layer
# module, the stats reported).  Both arithmetic slots count for a product.
FUNCTIONS = {
    "scalars": [
        ("mpoly_mul", ("MPoly.__mul__", "MPoly.__rmul__"), ("calls",)),
        ("mpoly_divexact", ("MPoly.divexact",), ("calls", "self_s")),
        ("cyc_mul", ("CycNumber.__mul__", "CycNumber.__rmul__"), ("calls",)),
    ],
    "diagrams": [
        ("compose", ("compose",), ("calls", "self_s")),
        ("enumerate_diagrams", ("enumerate_diagrams",), ("self_s",)),
    ],
    "algebra": [
        ("green_classes", ("green_classes",), ("self_s",)),
        ("generated_closure", ("generated_closure",), ("self_s",)),
    ],
    "groupoid": [],
    "rs": [("green_invariants", ("green_invariants",), ("self_s",))],
    "ribbon": [("insert", ("insert",), ("calls",))],
    "characters": [
        ("xt_act", ("xt_act",), ("calls", "self_s")),
        ("wreath_char_table", ("wreath_char_table",), ("self_s",)),
        ("k_coefficient", ("k_coefficient",), ("self_s",)),
    ],
    "modules_rep": [
        ("gram_matrix", ("gram_matrix",), ("self_s",)),
        ("det_bareiss", ("det_bareiss",), ("self_s",)),
        ("cartan_entry", ("cartan_entry",), ("self_s",)),
    ],
    "cli": [],
}

# Arithmetic methods are the scalar layer's public interface.
ARITH = frozenset({"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                   "__rmul__", "__neg__", "__truediv__", "__rtruediv__"})


class Stat:
    __slots__ = ("layer", "calls", "self_s", "errors", "usage_exits")

    def __init__(self, layer):
        self.layer = layer
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0
        self.usage_exits = 0


class Tracer:
    """Install with install(), remove with uninstall().  Single-threaded."""

    def __init__(self):
        self.stats = {}          # "module.qualname" -> Stat
        self.caches = {}         # layer -> [lru_cache objects]
        self._undo = []          # (namespace, name, original)
        self._stack = []         # child-time accumulators of open calls
        self.top_s = 0.0         # summed duration of outermost calls
        self.last_top = None     # key of the latest outermost call

    # -- wrapping ------------------------------------------------------
    def _timed(self, key, layer, fn):
        st = self.stats.setdefault(key, Stat(layer))
        stack = self._stack

        def finish(t0, child):
            dt = perf_counter() - t0
            stack.pop()
            st.self_s += dt - child[0]
            if stack:
                stack[-1][0] += dt
            else:
                self.top_s += dt
                self.last_top = key

        def failed(exc):
            if isinstance(exc, SystemExit):
                if exc.code == 2:
                    st.usage_exits += 1
                elif exc.code not in (0, None):
                    st.errors += 1
            else:
                st.errors += 1

        if inspect.isgeneratorfunction(fn):
            # one call, its time summed over every resume
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                st.calls += 1
                it = fn(*args, **kwargs)
                while True:
                    child = [0.0]
                    stack.append(child)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        finish(t0, child)
                        return
                    except BaseException as exc:
                        failed(exc)
                        finish(t0, child)
                        raise
                    finish(t0, child)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            child = [0.0]
            stack.append(child)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                failed(exc)
                raise
            finally:
                finish(t0, child)
        return wrapper

    def _set(self, ns, name, value):
        self._undo.append((ns, name, vars(ns).get(name, _MISSING)))
        setattr(ns, name, value)

    def install(self):
        import colorpart.cli  # noqa: F401  (imports every layer)
        mods = {n: sys.modules["colorpart." + n] for n in LAYERS + ("config",)}
        namespaces = [m for n, m in sys.modules.items()
                      if n == "colorpart" or n.startswith("colorpart.")]
        for name in LAYERS:
            mod = mods[name]
            self.caches[name] = [v for v in vars(mod).values()
                                 if hasattr(v, "cache_info")]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(name, obj)
                elif callable(obj) and not attr.startswith("_"):
                    self._wrap_function(name, attr, obj, namespaces)
        # config is read inside CLI requests and counted under cli
        self._wrap_function("cli", "from_env", mods["config"].from_env,
                            namespaces, module="config")
        group = mods["cli"].main
        self._set(group, "main", self._timed("cli.main", "cli", group.main))
        for cmd in group.commands.values():
            fn = cmd.callback
            self._set(cmd, "callback",
                      self._timed("cli." + fn.__name__, "cli", fn))

    def _wrap_function(self, layer, attr, obj, namespaces, module=None):
        wrapped = self._timed("%s.%s" % (module or layer, attr), layer, obj)
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                if value is obj:
                    self._set(ns, name, wrapped)

    def _wrap_class(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ARITH:
                continue
            key = "%s.%s.%s" % (layer, cls.__name__, attr)
            if isinstance(obj, staticmethod):
                self._set(cls, attr, staticmethod(
                    self._timed(key, layer, obj.__func__)))
            elif inspect.isfunction(obj):
                self._set(cls, attr, self._timed(key, layer, obj))

    def uninstall(self):
        while self._undo:
            ns, name, value = self._undo.pop()
            if value is _MISSING:
                delattr(ns, name)
            else:
                setattr(ns, name, value)

    # -- reporting -----------------------------------------------------
    def cache_ratio(self, layer):
        hits = misses = 0
        for fn in self.caches[layer]:
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
        return hits / (hits + misses) if hits + misses else 0.0

    def layer_totals(self):
        out = {name: Stat(name) for name in LAYERS}
        for st in self.stats.values():
            agg = out[st.layer]
            agg.calls += st.calls
            agg.self_s += st.self_s
            agg.errors += st.errors
            agg.usage_exits += st.usage_exits
        return out

    def report(self):
        """Plain-data totals per layer and per FUNCTIONS entry."""
        out = {"layers": {}, "functions": {}, "top_s": self.top_s}
        for name, st in self.layer_totals().items():
            out["layers"][name] = {
                "calls": st.calls, "self_s": st.self_s, "errors": st.errors,
                "usage_exits": st.usage_exits,
                "cache_hit_ratio": self.cache_ratio(name)}
        for layer, entries in FUNCTIONS.items():
            for metric, names, _ in entries:
                stats = [self.stats[key] for key in
                         ("%s.%s" % (layer, n) for n in names)
                         if key in self.stats]
                out["functions"]["%s.%s" % (layer, metric)] = {
                    "calls": sum(st.calls for st in stats),
                    "self_s": sum(st.self_s for st in stats)}
        return out
