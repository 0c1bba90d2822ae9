"""Spans around the public functions of each toposlsc layer.

The tracer wraps, from outside the package, every public function of the
layer modules at its module attribute, at every alias another package module
imported with ``from .x import y``, and in module-level dicts such as
``verify.SUITES``.  Classes are wrapped through their methods (``__init__``,
public methods, class and static methods) and never replaced, so
``isinstance`` keeps working.  Properties, the other dunders and the
cheap lookups in LOOKUPS are left alone and run inside the calling
span: they are called millions of times from inner loops, and a span costs
more than they do.

Each span records name, start, end, parent span and job id in flat arrays;
nothing is written until ``dump`` at the end of the run.  Self time is a
span's duration minus the durations of its direct children.
"""

import functools
import gc
import gzip
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict

PACKAGE = "toposlsc"
LAYERS = ("io", "fincat", "lsc", "normalize", "filters", "words", "reports", "verify")


def _source_size(args, result):
    # every io.load_* takes its file as the last positional argument
    source = args[-1]
    if isinstance(source, (str, os.PathLike)):
        return {"io.bytes_read": os.path.getsize(source)}
    return {}


LOOKUPS = {
    "fincat.FiniteCategory": ("hom", "compose", "identity", "is_identity", "morphisms_into",
                              "composable", "signature", "generators", "generators_by_dst"),
    "fincat.Presheaf": ("elements", "act"),
    "fincat.RepCongruence": ("related", "block_id"),
    "lsc.LocalStateClassifier": ("elements", "index_of", "top_at", "act"),
    "normalize.FiniteGroup": ("mult", "inv", "conjugate"),
    "filters.InternalFilter": ("contains",),
    "words.Dfa": ("letter", "run", "accepts"),
    "words.RightCongruence": ("letter", "run", "related"),
    "words.TransitionMonoid": ("mult",),
}

# span name -> hook(args, result) giving counter increments
COUNTERS = {
    "fincat.enumerate_quotient_objects": lambda a, r: {"fincat.congruences": len(r)},
    "filters.filter_generated_by": lambda a, r: {
        "filters.selection_size": sum(len(v) for v in r.selection.values())},
    "words.minimize": lambda a, r: {"words.minimize.states_in": a[0].n,
                                    "words.minimize.states_out": r.n},
    "words.words_normalization_operator": lambda a, r: {
        "words.normalization_index": r.index},
    "words.transition_monoid": lambda a, r: {"words.monoid_order": r.order},
    "reports.render": lambda a, r: {"reports.bytes": len(r)},
    "io.load_category": _source_size,
    "io.load_group": _source_size,
    "io.load_dfa": _source_size,
    "io.load_presheaf": _source_size,
    "io.load_filter_selection": _source_size,
}


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("l")
        self.parent = array("q")
        self.job = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(float)  # (job id, counter) -> value
        self.job_id = -1
        self.enabled = False
        self._stack = [-1]
        self._undo = []
        self._gc_started = None

    # -- installation ----------------------------------------------------

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn):
        nid = self.name_id(name)
        hook = COUNTERS.get(name)
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            i = len(tracer.name)
            tracer.name.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.job.append(tracer.job_id)
            tracer.end.append(0.0)
            tracer._stack.append(i)
            tracer.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[i] = perf()
                tracer._stack.pop()
            if hook is not None:
                for counter, value in hook(args, result).items():
                    tracer.counts[(tracer.job_id, counter)] += value
            return result

        return traced

    def install(self):
        """Wrap the layers; call once, before enabling."""
        originals = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    originals[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self._replace(vars(mod), attr, originals[id(obj)][1], mod)
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        hit = originals.get(id(value))
                        if hit is not None and hit[0] is value:
                            self._replace(obj, key, hit[1])

    def _wrap_class(self, layer, cls):
        lookups = LOOKUPS.get(f"{layer}.{cls.__name__}", ())
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__" or attr in lookups:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(raw):
                self._replace(vars(cls), attr, self.wrap(name, raw), cls)
            elif isinstance(raw, (classmethod, staticmethod)):
                self._replace(vars(cls), attr, type(raw)(self.wrap(name, raw.__func__)), cls)

    def _replace(self, table, key, new, owner=None):
        self._undo.append((table, key, table[key], owner))
        if owner is None:
            table[key] = new
        else:
            setattr(owner, key, new)

    def uninstall(self):
        self.enabled = False
        while self._undo:
            table, key, old, owner = self._undo.pop()
            if owner is None:
                table[key] = old
            else:
                setattr(owner, key, old)

    # -- garbage collector pauses --------------------------------------

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.counts[(self.job_id, "gc.pause_s")] += time.perf_counter() - self._gc_started
            self.counts[(self.job_id, "gc.collections")] += 1
            self._gc_started = None

    def enable(self):
        self.enabled = True
        gc.callbacks.append(self._on_gc)

    def disable(self):
        self.enabled = False
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- analysis ---------------------------------------------------------

    def self_times(self):
        child = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(len(self.name))]

    def summary(self, jobs):
        """Per span name: self seconds, inclusive seconds and calls, over the
        spans of the given job ids; plus the inclusive time of top-level
        spans under the key None."""
        jobs = set(jobs)
        selfs = self.self_times()
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for i, nid in enumerate(self.name):
            if self.job[i] not in jobs:
                continue
            row = out[self.names[nid]]
            row[0] += selfs[i]
            row[1] += self.end[i] - self.start[i]
            row[2] += 1
            if self.parent[i] < 0:
                out[None][1] += self.end[i] - self.start[i]
        return out

    def counted(self, jobs):
        jobs = set(jobs)
        out = defaultdict(float)
        for (job, counter), value in self.counts.items():
            if job in jobs:
                out[counter] += value
        return out

    def dump(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write("name,start,end,parent,job\n")
            for i, nid in enumerate(self.name):
                fh.write(f"{self.names[nid]},{self.start[i]:.9f},{self.end[i]:.9f},"
                         f"{self.parent[i]},{self.job[i]}\n")


# spans whose self time is reported by name, classes whose methods' self
# time and calls are summed, and spans whose calls are counted
_SELF = (
    "fincat.enumerate_quotient_objects", "lsc.build_lsc", "lsc.xi_component",
    "normalize.subgroups", "normalize.normalization_operator",
    "normalize.normalizer_direct", "filters.certify_quotient_classifier",
    "filters.filter_generated_by", "words.minimize",
    "words.words_normalization_operator", "words.regex_to_min_dfa",
    "words.transition_monoid", "words.orbit_meet_check", "reports.lsc_report",
    "reports.group_report", "reports.words_report", "reports.render",
)
_CLASSES = ("fincat.FiniteCategory", "fincat.RepCongruence", "normalize.FiniteGroup",
            "words.RightCongruence")
_CALLS = ("fincat.enumerate_quotient_objects", "lsc.build_lsc", "lsc.xi_component",
          "words.congruence_meet")
_ORACLES = ("words.residual_count_dfa", "words.regex_member",
            "words.find_pointed_isomorphism", "words.syntactically_equivalent_bruteforce")
_SUITES = ("lsc", "normalize", "filters", "words")
_COUNTS = ("fincat.congruences", "filters.selection_size", "words.minimize.states_in",
           "words.minimize.states_out", "words.normalization_index", "words.monoid_order",
           "io.bytes_read", "reports.bytes", "gc.pause_s", "gc.collections")


def layer_metrics(summary, counts, wall):
    """The per-layer figures of one traced pass, as {name: (value, unit)}."""
    def total(pick, field):
        return sum(row[field] for name, row in summary.items()
                   if name is not None and pick(name))

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (total(lambda n: n.startswith(layer + "."), 0), "s")
    for name in _SELF:
        m[f"{name}.self_s"] = (total(lambda n: n == name, 0), "s")
    for cls in _CLASSES:
        m[f"{cls}.self_s"] = (total(lambda n: n.startswith(cls + "."), 0), "s")
        m[f"{cls}.calls"] = (total(lambda n: n.startswith(cls + "."), 2), "count")
    for name in _CALLS:
        m[f"{name}.calls"] = (total(lambda n: n == name, 2), "count")
    m["io.load.self_s"] = (total(lambda n: n.startswith("io.load_"), 0), "s")
    m["io.load.calls"] = (total(lambda n: n.startswith("io.load_"), 2), "count")
    m["words.oracles.self_s"] = (total(lambda n: n in _ORACLES, 0), "s")
    for suite in _SUITES:
        m[f"verify.suite_{suite}.s"] = (total(lambda n: n == f"verify.suite_{suite}", 1), "s")
    for counter in _COUNTS:
        m[counter] = (counts.get(counter, 0), "s" if counter.endswith("_s") else
                      "bytes" if counter.endswith(("bytes", "bytes_read")) else "count")
    enum_s = total(lambda n: n == "fincat.enumerate_quotient_objects", 1)
    m["fincat.congruences_per_s"] = (
        counts.get("fincat.congruences", 0) / enum_s if enum_s else 0.0, "1/s")
    m["harness.self_s"] = (wall - summary[None][1], "s")
    m["trace.wall_s"] = (wall, "s")
    return m


# the end-to-end metrics and workloads each per-layer metric should move
MOVES = {
    "fincat.enumerate_quotient_objects.self_s": "sites wall_s, job_tail_s; verify wall_s",
    "fincat.enumerate_quotient_objects.calls": "exact count",
    "fincat.congruences": "exact count",
    "fincat.FiniteCategory.self_s": "sites job_p50_s",
    "fincat.RepCongruence.self_s": "sites, verify wall_s",
    "lsc.build_lsc.self_s": "sites wall_s",
    "lsc.build_lsc.calls": "verify wall_s; exact count",
    "lsc.xi_component.self_s": "verify wall_s; sites job_tail_s",
    "normalize.FiniteGroup.self_s": "sites job_p50_s",
    "normalize.subgroups.self_s": "sites, verify wall_s",
    "normalize.normalization_operator.self_s": "sites, verify wall_s",
    "normalize.normalizer_direct.self_s": "sites, verify wall_s",
    "filters.certify_quotient_classifier.self_s": "sites job_tail_s; verify wall_s",
    "filters.filter_generated_by.self_s": "sites job_tail_s; verify wall_s",
    "words.minimize.self_s": "automata wall_s, job_tail_s",
    "words.minimize.states_out": "exact count",
    "words.words_normalization_operator.self_s": "automata wall_s, job_tail_s",
    "words.RightCongruence.self_s": "automata, verify wall_s",
    "words.regex_to_min_dfa.self_s": "automata job_p50_s",
    "words.transition_monoid.self_s": "automata wall_s",
    "words.monoid_order": "exact count",
    "words.orbit_meet_check.self_s": "automata wall_s",
    "words.oracles.self_s": "verify wall_s",
    "io.load.self_s": "sites, automata job_p50_s",
    "reports.lsc_report.self_s": "sites job_p50_s, wall_s",
    "reports.group_report.self_s": "sites job_p50_s, wall_s",
    "reports.words_report.self_s": "automata job_p50_s, wall_s",
    "verify.self_s": "verify wall_s",
}
