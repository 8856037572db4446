"""Per-layer tracing by wrapping the library's public functions.

Every binding of a traced function is wrapped: a name imported with
``from .x import y`` is a separate module attribute, so the tracer finds
each attribute (module or class) that holds the original object and
replaces it, and puts every original back on ``uninstall``.

Spans are aggregated by name rather than stored one by one: calls, total
time, self time (span time minus the time of child spans) and exceptions
by class.  A raised exception is charged to the layer of the innermost
span it leaves.  Leaves called hundreds of thousands of times per run (the
F_q arithmetic and ``Subspace.add``) get a lighter wrapper: nested leaf
calls are only counted, and the outermost leaf call is timed.
"""

from __future__ import annotations

import sys
import time

PACKAGE = "tamestrata"

# (module, attribute or Class.attribute, span name)
SPANS = [
    ("tame", "TameSeries.apply", "tame.apply"),
    ("tame", "TameSeries.natural_level", "tame.natural_level"),
    ("tame", "TameSeries.__mul__", "tame.series_mul"),
    ("tame", "stabilizer_within", "tame.stabilizer_within"),
    ("tame", "trace_norm", "tame.trace_norm"),
    ("tame", "sr_standard_rep", "tame.sr_standard_rep"),
    ("tame", "series_equal", "tame.series_equal"),
    ("minimal", "is_minimal", "minimal.is_minimal"),
    ("minimal", "ge1_check", "minimal.ge1_check"),
    ("minimal", "minimal_over", "minimal.minimal_over"),
    ("strata", "decompose_split_form", "strata.decompose_split_form"),
    ("strata", "k0_closed", "strata.k0_closed"),
    ("strata", "build_defining_sequence", "strata.build_defining_sequence"),
    ("strata", "verify_defining_sequence", "strata.verify_defining_sequence"),
    ("translate", "bk_to_yu", "translate.bk_to_yu"),
    ("translate", "yu_to_bk", "translate.yu_to_bk"),
    ("translate", "table_compare", "translate.table_compare"),
    ("translate", "ledger_indices", "translate.ledger_indices"),
    ("translate", "char_module_valuation", "translate.char_module_valuation"),
    ("translate", "make_bk_datum", "translate.make_bk_datum"),
    ("translate", "h_group_table", "translate.h_group_table"),
    ("translate", "yu_group_table", "translate.yu_group_table"),
    ("translate", "skeletons_agree", "translate.skeletons_agree"),
    ("oracle", "model_build", "oracle.model_build"),
    ("oracle", "MatrixModel.commutant_in_quotient",
     "oracle.commutant_in_quotient"),
    ("oracle", "nullspace", "oracle.nullspace"),
    ("oracle", "oracle_k0", "oracle.oracle_k0"),
    ("oracle", "oracle_char_module_min_ord", "oracle.oracle_char_module_min_ord"),
    ("oracle", "oracle_table_lattice", "oracle.oracle_table_lattice"),
    ("oracle", "oracle_hj", "oracle.oracle_hj"),
    ("oracle", "oracle_index", "oracle.oracle_index"),
    ("corpus", "desk_tower_5", "corpus.towers"),
    ("corpus", "desk_tower_3", "corpus.towers"),
    ("corpus", "desk_tower_2", "corpus.towers"),
    ("corpus", "desk_tower_2b", "corpus.towers"),
    ("corpus", "deep_tower_5", "corpus.towers"),
    ("corpus", "standard_towers", "corpus.towers"),
    ("corpus", "named_tower", "corpus.towers"),
    ("corpus", "datum_corpus", "corpus.datum_corpus"),
    ("corpus", "datum_corpus_for_orders", "corpus.datum_corpus"),
    ("cli", "run", "cli.run"),
    ("cli", "emit_tower", "cli.emit"),
    ("cli", "emit_series", "cli.emit"),
    ("cli", "emit_c_list", "cli.emit"),
    ("cli", "emit_bk", "cli.emit"),
    ("cli", "emit_yu", "cli.emit"),
    ("cli", "emit_table", "cli.emit"),
    ("cli", "parse_tower", "cli.parse"),
    ("cli", "parse_series", "cli.parse"),
    ("cli", "parse_bk", "cli.parse"),
    ("cli", "parse_yu", "cli.parse"),
]

LEAVES = [
    ("ffq", "FqElem.__mul__", "ffq.mul"),
    ("ffq", "FqElem.__pow__", "ffq.pow"),
    ("ffq", "FqElem.frobenius", "ffq.frobenius"),
    ("ffq", "FqElem.__add__", "ffq.add"),
    ("ffq", "FqElem.__sub__", "ffq.sub"),
    ("ffq", "FqElem.__neg__", "ffq.neg"),
    ("ffq", "FqElem.inverse", "ffq.inverse"),
    ("ffq", "FqElem.__eq__", "ffq.elem_eq"),
    ("ffq", "FqField.__eq__", "ffq.field_eq"),
    ("ffq", "FqField.elem", "ffq.elem"),
    ("oracle", "Subspace.add", "oracle.subspace_add"),
]


class Stat:
    __slots__ = ("calls", "total", "self", "raised", "useful", "cells",
                 "hits", "sites", "site_raised")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.raised = 0
        self.useful = 0
        self.cells = 0
        self.hits = 0
        self.sites = {}
        self.site_raised = {}


class Tracer:
    """Installs wrappers at every binding site; aggregates span data."""

    def __init__(self):
        self.stats = {}
        self.exceptions = {}         # (layer, class name) -> count
        self.stack = [[0.0]]         # child time of the open spans
        self.leaf_depth = 0
        self._saved = []             # (namespace, attribute, original)
        self._k0_cache = None

    # -- installation ------------------------------------------------------

    def _namespaces(self):
        out = []
        for name, mod in sorted(sys.modules.items()):
            if mod is None or name.split(".")[0] != PACKAGE:
                continue
            out.append(mod)
            for val in list(vars(mod).values()):
                if isinstance(val, type) and val.__module__ == mod.__name__:
                    out.append(val)
        return out

    def install(self):
        namespaces = self._namespaces()
        strata = sys.modules.get(f"{PACKAGE}.strata")
        self._k0_cache = getattr(strata, "_K0_CACHE", None)
        for table, leaf in ((SPANS, False), (LEAVES, True)):
            for modname, attr, name in table:
                mod = sys.modules[f"{PACKAGE}.{modname}"]
                owner = mod
                parts = attr.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                orig = vars(owner)[parts[-1]]
                stat = self.stats.setdefault(name, Stat())
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is orig:
                            site = f"{_ns_name(ns)}.{key}"
                            wrap = (self._leaf if leaf else self._span)(
                                orig, stat, name, site)
                            self._saved.append((ns, key, orig))
                            setattr(ns, key, wrap)
        return self

    def uninstall(self):
        for ns, key, orig in reversed(self._saved):
            setattr(ns, key, orig)
        restored = all(vars(ns)[key] is orig for ns, key, orig in self._saved)
        self._saved = []
        return restored

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, stat, name, site):
        tracer = self
        layer = name.split(".")[0]
        observe = _OBSERVERS.get(name)
        stack = self.stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            stat.calls += 1
            stat.sites[site] = stat.sites.get(site, 0) + 1
            before = observe(tracer, "before", args, None) if observe else None
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                stat.raised += 1
                stat.site_raised[site] = stat.site_raised.get(site, 0) + 1
                if not getattr(exc, "_perfbench_charged", False):
                    try:
                        exc._perfbench_charged = True
                    except AttributeError:
                        pass
                    key = (layer, type(exc).__name__)
                    tracer.exceptions[key] = tracer.exceptions.get(key, 0) + 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                stat.total += dt
                stat.self += dt - frame[0]
                stack[-1][0] += dt
            if observe:
                observe(tracer, "after", args, (before, result, stat))
            return result

        span.__wrapped__ = fn
        return span

    def _leaf(self, fn, stat, name, site):
        tracer = self
        stack = self.stack
        clock = time.perf_counter
        useful = name == "oracle.subspace_add"

        def leaf(*args, **kwargs):
            stat.calls += 1
            if tracer.leaf_depth:
                return fn(*args, **kwargs)
            tracer.leaf_depth = 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                tracer.leaf_depth = 0
                stat.self += dt
                stack[-1][0] += dt
            if useful and result:
                stat.useful += 1
            return result

        leaf.__wrapped__ = fn
        return leaf

    # -- report ----------------------------------------------------------------

    def snapshot(self):
        """Plain-data view of everything recorded."""
        return {
            "spans": {name: {"calls": s.calls, "total_s": s.total,
                             "self_s": s.self, "raised": s.raised,
                             "useful": s.useful, "cells": s.cells,
                             "hits": s.hits, "sites": dict(s.sites),
                             "site_raised": dict(s.site_raised)}
                      for name, s in sorted(self.stats.items())},
            "exceptions": {f"{layer}.{cls}": n for (layer, cls), n
                           in sorted(self.exceptions.items())},
        }


def _ns_name(ns):
    name = ns.__name__
    if isinstance(ns, type):
        return f"{ns.__module__.rsplit('.', 1)[-1]}.{name}"
    return name.rsplit(".", 1)[-1]


def _observe_k0(tracer, phase, args, data):
    # a hit is a call that returned without growing the memo
    cache = tracer._k0_cache
    if cache is None:
        return None
    if phase == "before":
        return len(cache)
    before, _, stat = data
    if len(cache) == before:
        stat.hits += 1
    return None


def _observe_nullspace(tracer, phase, args, data):
    if phase == "after":
        rows, width = args[0], args[1]
        data[2].cells += len(rows) * width
    return None


_OBSERVERS = {"strata.k0_closed": _observe_k0,
              "oracle.nullspace": _observe_nullspace}


def per_layer_metrics(snap):
    """The per-layer metrics of one traced pass, by name (no units)."""
    spans = snap["spans"]
    exc = snap["exceptions"]

    def sp(name):
        return spans.get(name, {"calls": 0, "self_s": 0.0, "raised": 0,
                                "useful": 0, "cells": 0, "hits": 0})

    out = {}
    for short in ("mul", "pow", "frobenius", "field_eq"):
        out[f"ffq.{short}.calls"] = sp(f"ffq.{short}")["calls"]
    out["ffq.self_s"] = sum(s["self_s"] for n, s in spans.items()
                            if n.startswith("ffq."))
    for name, fields in PER_LAYER_FIELDS:
        for field in fields:
            s = sp(name)
            if field == "calls":
                out[f"{name}.calls"] = s["calls"]
            elif field == "self_s":
                out[f"{name}.self_s"] = s["self_s"]
            elif field == "rejected":
                # candidate splits the search threw away, plus failed calls;
                # the search is the only caller of that strata binding
                out[f"{name}.rejected"] = s["raised"] + sp(
                    "strata.build_defining_sequence").get("site_raised", {}).get(
                    "strata.build_defining_sequence", 0)
            elif field == "hit_ratio":
                out[f"{name}.hit_ratio"] = s["hits"] / s["calls"] if s["calls"] else 0.0
            elif field == "cells":
                out[f"{name}.cells"] = s["cells"]
            elif field == "useful_ratio":
                out[f"{name}.useful_ratio"] = s["useful"] / s["calls"] if s["calls"] else 0.0
    for layer in ("tame", "oracle"):
        out[f"{layer}.precision_exhausted.raised"] = exc.get(
            f"{layer}.PrecisionExhausted", 0)
    return out


# span name -> reported fields (ffq and the exception counts are above)
PER_LAYER_FIELDS = [
    ("tame.apply", ("calls", "self_s")),
    ("tame.natural_level", ("calls",)),
    ("tame.series_mul", ("calls", "self_s")),
    ("tame.stabilizer_within", ("calls", "self_s")),
    ("tame.trace_norm", ("self_s",)),
    ("minimal.is_minimal", ("calls", "self_s")),
    ("minimal.ge1_check", ("calls", "self_s")),
    ("strata.decompose_split_form", ("calls", "self_s", "rejected")),
    ("strata.k0_closed", ("calls", "self_s", "hit_ratio")),
    ("strata.build_defining_sequence", ("calls", "self_s")),
    ("translate.bk_to_yu", ("self_s",)),
    ("translate.yu_to_bk", ("self_s",)),
    ("translate.table_compare", ("calls", "self_s")),
    ("translate.ledger_indices", ("self_s",)),
    ("translate.char_module_valuation", ("calls", "self_s")),
    ("oracle.model_build", ("calls", "self_s")),
    ("oracle.commutant_in_quotient", ("calls", "self_s")),
    ("oracle.nullspace", ("calls", "self_s", "cells")),
    ("oracle.subspace_add", ("calls", "useful_ratio")),
    ("oracle.oracle_k0", ("self_s",)),
    ("oracle.oracle_char_module_min_ord", ("calls", "self_s")),
    ("corpus.towers", ("self_s",)),
    ("corpus.datum_corpus", ("self_s",)),
    ("cli.run", ("calls", "self_s")),
    ("cli.emit", ("self_s",)),
    ("cli.parse", ("self_s",)),
]
