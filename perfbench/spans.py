"""Spans around the public functions of every ``wellcovered`` module.

``Tracer.install`` swaps each traced function for a wrapper in every module
namespace that holds it (``direct_product`` is imported by name into
``claims``, ``kn_partitions`` and ``cli``, for instance), wraps claims by
replacing their ``claims.REGISTRY`` entries, and wraps ``Graph`` through its
``__post_init__``.  ``uninstall`` puts the originals back.

A span records name, start, end, the span that was open when it started,
and its active time.  A call that returns a generator keeps its span open:
each resumption adds to that span's active time, with the span on the stack
so work done inside the generator is counted as its children.  Self time is
active time minus the active time of spans run while it was on top of the
stack, accumulated as they close.  One thread, no queues, so nothing waits.
Spans stay in memory until ``write``.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import sys
import types
from array import array
from time import perf_counter

KERNEL_FNS = (
    "independence_summary",
    "well_covered_size",
    "maximal_independent_sets",
    "count_maximal_independent_sets",
    "direct_product_adj",
)

# module -> public functions traced in it; dotted names are methods
TRACED = {
    "kernel": KERNEL_FNS,
    "graphs": ("Graph", "induced_subgraph", "components"),
    "products": ("direct_product", "product_bounds_check"),
    "independence": (
        "well_covered_report",
        "isolatable_vertices",
        "enumerate_independent_sets",
        "berge_violation",
        "favaron_equivalence_verdict",
    ),
    "kn_partitions": (
        "kn_alpha_i",
        "mis_from_partition",
        "partition_from_mis",
        "WeakPartition.violations",
        "layer_cardinality_check",
        "necessary_condition_check",
    ),
    "families": ("corpus", "corpus_representatives"),
    "formats": ("to_graph6", "from_graph6"),
    "cli": ("analyze", "product", "scan", "generate", "verify", "main"),
}

REPLAY_CAP = 20_000  # kernel inputs kept per function for the backend replay


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.active = array("d")
        self.child = array("d")
        self.stack: list[int] = []
        self.covered = 0.0  # active time of spans that ran with nothing below them
        self.errors: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.replay_inputs: dict[str, list] = {fn: [] for fn in KERNEL_FNS}
        self._undo: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, t: float) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(t)
        self.end.append(t)
        self.active.append(0.0)
        self.child.append(0.0)
        self.stack.append(sid)
        return sid

    def _leave(self, sid: int, t0: float) -> None:
        """Close one active stretch of span ``sid`` that began at ``t0``."""
        t = perf_counter()
        self.stack.pop()
        d = t - t0
        self.active[sid] += d
        self.end[sid] = t
        if self.stack:
            self.child[self.stack[-1]] += d
        else:
            self.covered += d

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, post=None):
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            t0 = perf_counter()
            sid = tracer._open(nid, t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] = tracer.errors.get(name, 0) + 1
                raise
            finally:
                tracer._leave(sid, t0)
            if post is not None:
                post(args, result)
            if isinstance(result, types.GeneratorType):
                return tracer._resume(name, sid, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _resume(self, name: str, sid: int, gen):
        while True:
            t0 = perf_counter()
            self.stack.append(sid)
            try:
                item = next(gen)
            except StopIteration:
                self._leave(sid, t0)
                return
            except BaseException:
                self.errors[name] = self.errors.get(name, 0) + 1
                self._leave(sid, t0)
                raise
            self._leave(sid, t0)
            self._count(name + ".yields")
            yield item

    # --- installing --------------------------------------------------------

    def _set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("wellcovered") or mod_name.endswith(("_mis_fallback", "_mis_core")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self, wc) -> None:
        """Wrap the traced functions of package ``wc`` (an imported wellcovered)."""
        for module, fns in TRACED.items():
            mod = getattr(wc, module)
            for fn_name in fns:
                name = f"{module}.{fn_name}"
                post = self._post(name)
                if module == "cli" and fn_name != "main":
                    original = getattr(mod, "_cmd_" + fn_name)
                    self._replace_everywhere(original, self.wrap(name, original, post))
                elif fn_name == "Graph":
                    self._set(mod.Graph, "__post_init__", self.wrap(name, mod.Graph.__post_init__, post))
                elif "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(mod, cls_name)
                    self._set(cls, meth, self.wrap(name, getattr(cls, meth), post))
                else:
                    original = getattr(mod, fn_name)
                    self._replace_everywhere(original, self.wrap(name, original, post))
        registry = wc.claims.REGISTRY
        for claim_id, claim in list(registry.items()):
            wrapped = dataclasses.replace(claim, check=self.wrap(f"claims.{claim_id}", claim.check, self._verdict))
            self._undo.append((registry, claim_id, claim))
            registry[claim_id] = wrapped

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            if isinstance(obj, dict):
                obj[attr] = value
            else:
                setattr(obj, attr, value)

    def _post(self, name: str):
        if name.startswith("kernel."):
            fn = name.split(".")[1]
            store = self.replay_inputs[fn]

            def kernel_post(args, result):
                n = len(args[0]) * (len(args[1]) if fn == "direct_product_adj" else 1)
                self._count("kernel.n_sum", n)
                if fn == "maximal_independent_sets":
                    self._count("kernel.maximal_independent_sets.sets", len(result))
                if len(store) < REPLAY_CAP:
                    store.append(args)

            return kernel_post
        if name == "kn_partitions.kn_alpha_i":
            def engine_post(args, result):
                if result.engine == "product-enumeration":
                    self._count("kn_partitions.kn_alpha_i.fallbacks")
            return engine_post
        return None

    def _verdict(self, args, verdict) -> None:
        self._count("claims.verdicts")
        if verdict.status == "vacuous":
            self._count("claims.vacuous")

    # --- results -----------------------------------------------------------

    def per_name(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for sid in range(len(self.name)):
            row = out.setdefault(self.names[self.name[sid]], {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += self.active[sid] - self.child[sid]
        return out

    def write(self, path) -> None:
        """Spans as columns, gzip-compressed JSON."""
        data = {
            "names": self.names,
            "columns": ["name", "parent", "start", "end", "active", "self"],
            "name": list(self.name),
            "parent": list(self.parent),
            "start": list(self.start),
            "end": list(self.end),
            "active": list(self.active),
            "self": [a - c for a, c in zip(self.active, self.child)],
            "errors": self.errors,
            "counts": self.counts,
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(data, fh)
