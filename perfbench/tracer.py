"""Per-layer tracing by wrapping the library's public functions.

`Tracer.install()` replaces every public function and public method of each
layer module (and the one private hook `lift._lift_solutions`) with a wrapper
that counts calls and measures inclusive and self time.  The replacement is
made on the defining module or class and on every other `prflags` module that
imported the same function object, e.g. `pr.preimage` as well as
`gf.preimage`.  A generator function is timed per resumption, so the time its
consumer spends between items is not charged to it.

Per-entry arithmetic is left alone (NOT_WRAPPED): the `PrimeField` row codec
and the coefficient-list polynomial helpers of `lift`.  Wrapping them would
cost more than they do; their time is in their callers' self time.
Properties and dunder methods are left alone for the same reason.

Calls are aggregated per function (count, total, self, exceptions by type);
only per-case spans are kept in full.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter

NOT_WRAPPED = {
    "gf": ("PrimeField",),
    "lift": ("pnorm", "padd", "pneg", "psub", "pscale", "pmul", "pdivmod", "pgcd",
             "pconst", "peval0", "pshift"),
}
PRIVATE_HOOKS = {"lift": ("_lift_solutions",)}


class Stat:
    __slots__ = ("name", "layer", "calls", "yielded", "total", "self", "active", "raised", "extra")

    def __init__(self, name, layer):
        self.name = name
        self.layer = layer
        self.calls = self.yielded = self.active = 0
        self.total = self.self = 0.0
        self.raised = Counter()
        self.extra = Counter()


class Tracer:
    def __init__(self, layers):
        self.layers = tuple(layers)
        self.clock = time.perf_counter
        self.stats = {}
        self.stack = []  # frames: [stat, start, time covered by child frames]
        self.depth = dict.fromkeys(self.layers, 0)
        self.busy_since = dict.fromkeys(self.layers, 0.0)
        self.busy = dict.fromkeys(self.layers, 0.0)
        self.spans = []
        self._case = None
        self.t0 = self.clock()

    # --- frames -------------------------------------------------------------

    def _enter(self, stat):
        now = self.clock()
        self.stack.append([stat, now, 0.0])
        stat.active += 1
        layer = stat.layer
        self.depth[layer] += 1
        if self.depth[layer] == 1:
            self.busy_since[layer] = now

    def _exit(self):
        now = self.clock()
        stat, start, child = self.stack.pop()
        elapsed = now - start
        stat.self += elapsed - child
        stat.active -= 1
        if not stat.active:  # recursion: count the outermost call only
            stat.total += elapsed
        if self.stack:
            self.stack[-1][2] += elapsed
        layer = stat.layer
        self.depth[layer] -= 1
        if not self.depth[layer]:
            self.busy[layer] += now - self.busy_since[layer]

    # --- wrappers -------------------------------------------------------------

    def _wrap(self, fn, stat):
        enter, exit_ = self._enter, self._exit
        before = BEFORE.get(stat.name)
        after = AFTER.get(stat.name)
        on_yield = ON_YIELD.get(stat.name)

        if inspect.isgeneratorfunction(fn):

            def traced_gen(*args, **kwargs):
                stat.calls += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        enter(stat)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        except BaseException as exc:
                            stat.raised[type(exc).__name__] += 1
                            raise
                        finally:
                            exit_()
                        stat.yielded += 1
                        if on_yield:
                            on_yield(self, stat)
                        yield item
                finally:
                    inner.close()

            traced = traced_gen
        else:

            def traced(*args, **kwargs):
                stat.calls += 1
                if before:
                    args = before(stat, args)
                enter(stat)
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    stat.raised[type(exc).__name__] += 1
                    raise
                finally:
                    exit_()
                if after:
                    after(stat, result)
                return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def _stat(self, layer, qualname):
        name = "%s.%s" % (layer, qualname)
        stat = self.stats[name] = Stat(name, layer)
        return stat

    def install(self):
        """Wrap every traced function; returns self."""
        replaced = {}  # id(original function) -> wrapper
        for layer in self.layers:
            mod = importlib.import_module("prflags." + layer)
            skip = NOT_WRAPPED.get(layer, ())
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__ or attr in skip:
                    continue
                public = not attr.startswith("_")
                if inspect.isfunction(obj) and (public or attr in PRIVATE_HOOKS.get(layer, ())):
                    wrapper = self._wrap(obj, self._stat(layer, attr))
                    replaced[id(obj)] = (obj, wrapper)
                    setattr(mod, attr, wrapper)
                elif inspect.isclass(obj) and public and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        # every other import site of a wrapped function
        for name, mod in list(sys.modules.items()):
            if name != "prflags" and not name.startswith("prflags."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        return self

    def _wrap_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            stat_name = "%s.%s" % (cls.__name__, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapper = self._wrap(raw.__func__, self._stat(layer, stat_name))
                setattr(cls, attr, type(raw)(wrapper))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(raw, self._stat(layer, stat_name)))

    # --- cases ------------------------------------------------------------------

    def layer_self(self):
        out = dict.fromkeys(self.layers, 0.0)
        for stat in self.stats.values():
            out[stat.layer] += stat.self
        return out

    def on_case(self, name):
        """Open a case span (name) or close the open one (None)."""
        now = self.clock()
        if name is not None:
            self._case = (name, now, self.layer_self())
            return
        name, start, before = self._case
        after = self.layer_self()
        self.spans.append(
            {
                "case": name,
                "start_s": start - self.t0,
                "duration_s": now - start,
                "self_s": {k: after[k] - before[k] for k in self.layers if after[k] != before[k]},
            }
        )
        self._case = None

    # --- results ------------------------------------------------------------------

    def values(self):
        """Every per-layer number this trace can give, by metric name."""
        out = {}
        for stat in self.stats.values():
            out[stat.name + ".calls"] = stat.calls
            out[stat.name + ".yielded"] = stat.yielded
            out[stat.name + ".self_s"] = stat.self
            out[stat.name + ".total_s"] = stat.total
            for exc, n in stat.raised.items():
                out["%s.raised.%s" % (stat.name, exc)] = n
            for key, n in stat.extra.items():
                out["%s.%s" % (stat.name, key)] = n
        for layer, value in self.layer_self().items():
            out[layer + ".self_s"] = value
            out[layer + ".busy_s"] = self.busy[layer]
        s = self.stats
        data = s["pr.pr_all_data"].yielded
        classes = s["e3.iso_classes_oracle"].extra["classes"]
        out["e3.classes"] = classes
        out["e3.classes_per_datum"] = classes / data if data else 0.0
        out["e3.aut_generators.gens"] = s["e3.aut_generators"].extra["gens"]
        out["e3.enum_Yadm.points"] = s["e3.enum_Yadm"].extra["points"]
        step = s["lift.degenerate_step"]
        refused = step.raised["StratOrderError"]
        out["lift.degenerate_step.refused"] = refused
        search = s["lift._lift_solutions"]
        out["lift.candidates"] = search.yielded
        done = step.calls - refused
        served = search.extra["degeneration_candidates"]
        out["lift.candidates_per_degeneration"] = served / done if done else 0.0
        out["lift.search_budget_exhausted"] = search.raised["LiftConstructionError"]
        return out


# --- counters beyond calls, keyed by stat name ------------------------------------


def _count_rows(stat, args):
    rows = args[1]
    if isinstance(rows, (list, tuple)):
        stat.extra["rows_in"] += len(rows)
        return args

    def counted():  # consumed inside rref, so its cost stays there
        for row in rows:
            stat.extra["rows_in"] += 1
            yield row

    return (args[0], counted()) + args[2:]


BEFORE = {"gf.rref": _count_rows}

def _count_degeneration_candidate(tracer, stat):
    """A lifting-lemma candidate yielded while a degeneration is searching;
    the lifts of acceptance criteria 6-7 use the same search."""
    if tracer.stats["lift.degenerate_step"].active:
        stat.extra["degeneration_candidates"] += 1


ON_YIELD = {"lift._lift_solutions": _count_degeneration_candidate}

AFTER = {
    "e3.iso_classes_oracle": lambda stat, res: stat.extra.update(classes=res.count),
    "e3.aut_generators": lambda stat, res: stat.extra.update(gens=len(res)),
    "e3.enum_Yadm": lambda stat, res: stat.extra.update(points=len(res)),
}
