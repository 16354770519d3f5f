"""Outside-in tracing of purecubic: wrappers on public functions, removed afterwards.

Coarse calls become spans (name, trace id, parent, start, end, self time).
Hot leaf calls -- the oracle alone makes about ten million element norms
on a large field -- are aggregated per parent span as call count,
inclusive time and self time, so they never become spans of their own.
Self time is a call's duration minus the time its traced children cover.

A wrapper replaces the function at every purecubic module that binds the
same object (`classgroup.snf` as well as `zlinalg.snf`), or the attribute
of the class for methods.  Nothing in the package's source is touched,
and `uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

MODULES = (
    "cache", "classgroup", "cli", "cubicfield", "eisenstein",
    "galoismodel", "ideals", "symbols", "zlinalg",
)

# (metric prefix, module, class or None, attribute)
SPANS = (
    ("classgroup.class_group", "classgroup", None, "class_group"),
    ("cubicfield.classify", "cubicfield", None, "classify"),
    ("classgroup.build_factor_base", "classgroup", None, "build_factor_base"),
    ("zlinalg.snf", "zlinalg", None, "snf"),
    ("ideals.is_principal_bounded", "ideals", None, "is_principal_bounded"),
    ("ideals.class_inverse_representative", "ideals", None, "class_inverse_representative"),
    ("galoismodel.full_report", "galoismodel", None, "full_report"),
    ("cli.main", "cli", None, "main"),
)
LEAVES = (
    ("cubicfield.element_norm", "cubicfield", "PureCubicField", "element_norm"),
    ("zlinalg.det", "zlinalg", None, "det"),
    ("ideals.mul", "ideals", None, "mul"),
    ("zlinalg.hnf", "zlinalg", None, "hnf"),
    ("ideals.valuation", "ideals", None, "valuation"),
    ("classgroup.relation_row", "classgroup", None, "relation_row"),
    ("zlinalg.lll_reduce", "zlinalg", None, "lll_reduce"),
    ("ideals.primes_above", "ideals", None, "primes_above"),
    ("cubicfield.brute_split", "cubicfield", None, "brute_split"),
    ("eisenstein.split_primaries", "eisenstein", None, "split_primaries"),
    ("symbols.cubic_residue", "symbols", None, "cubic_residue"),
    ("symbols.zeta_norm_test", "symbols", None, "zeta_norm_test"),
    ("galoismodel.enumerate_models", "galoismodel", None, "enumerate_models"),
    ("cache.load", "cache", "ResultCache", "load"),
    ("cache.append", "cache", "ResultCache", "append"),
)

# work counted from a call's arguments and result: prefix -> (counter, f(args, result))
COUNTERS: Dict[str, Tuple[str, Callable[[tuple, Any], int]]] = {
    "classgroup.relation_row": ("classgroup.relation_row.rows", lambda a, r: r is not None),
    "ideals.is_principal_bounded": ("ideals.is_principal_bounded.hits", lambda a, r: r is not None),
    "zlinalg.snf": ("zlinalg.snf.cells", lambda a, r: a[0].rows * a[0].cols),
    "galoismodel.enumerate_models": ("galoismodel.models", lambda a, r: len(r)),
    "classgroup.build_factor_base": ("classgroup.fb_primes", lambda a, r: len(r.primes)),
}

ITEM = "item"
_MARK = "_perfbench_wrapper"


def _package_modules() -> Dict[str, Any]:
    return {m: importlib.import_module(f"purecubic.{m}") for m in MODULES}


def wrappers_left() -> List[str]:
    """Names in the package that are still bound to one of our wrappers."""
    left = []
    for mname, mod in _package_modules().items():
        for attr, obj in vars(mod).items():
            if getattr(obj, _MARK, False):
                left.append(f"{mname}.{attr}")
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                left.extend(
                    f"{mname}.{attr}.{a}" for a, o in vars(obj).items() if getattr(o, _MARK, False)
                )
    return left


class Tracer:
    """Spans and leaf aggregates of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        # (parent span id, prefix) -> [calls, inclusive s, self s, counter]
        self.leaves: Dict[Tuple[Optional[int], str], List[float]] = {}
        self._frames: List[List[float]] = []  # per active traced call: [child seconds]
        self._open: List[Dict[str, Any]] = []  # active spans, innermost last
        self._patches: List[Tuple[Any, str, Any]] = []
        self._trace: Optional[str] = None

    # -- spans ---------------------------------------------------------
    def _begin(self, name: str) -> Tuple[Dict[str, Any], List[float]]:
        span = {
            "id": len(self.spans),
            "name": name,
            "trace": self._trace,
            "parent": self._open[-1]["id"] if self._open else None,
            "count": 0,
        }
        self.spans.append(span)
        self._open.append(span)
        frame = [0.0]
        self._frames.append(frame)
        span["start"] = time.perf_counter()
        return span, frame

    def _end(self, span: Dict[str, Any], frame: List[float]) -> None:
        span["end"] = end = time.perf_counter()
        self._frames.pop()
        self._open.pop()
        dur = end - span["start"]
        span["self_s"] = dur - frame[0]
        if self._frames:
            self._frames[-1][0] += dur

    def item(self, trace: str, fn: Callable[[], Any]) -> Any:
        """Run one benchmark item as the root span of its own trace."""
        self._trace = trace
        span, frame = self._begin(ITEM)
        try:
            return fn()
        finally:
            self._end(span, frame)
            self._trace = None

    def _span_wrapper(self, name: str, orig: Callable) -> Callable:
        counter = COUNTERS.get(name, (None, None))[1]

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span, frame = self._begin(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._end(span, frame)
            if counter is not None:
                span["count"] = counter(args, result)
            return result

        return wrapper

    def _leaf_wrapper(self, name: str, orig: Callable) -> Callable:
        counter = COUNTERS.get(name, (None, None))[1]
        frames, open_spans, leaves = self._frames, self._open, self.leaves
        clock = time.perf_counter

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                dur = clock() - start
                frames.pop()
                if frames:
                    frames[-1][0] += dur
                key = (open_spans[-1]["id"] if open_spans else None, name)
                agg = leaves.get(key)
                if agg is None:
                    agg = leaves[key] = [0, 0.0, 0.0, 0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
            if counter is not None:
                agg[3] += counter(args, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------
    def install(self) -> None:
        mods = _package_modules()
        for targets, make in ((SPANS, self._span_wrapper), (LEAVES, self._leaf_wrapper)):
            for name, mname, cname, attr in targets:
                if cname is not None:
                    owner = getattr(mods[mname], cname)
                    orig = vars(owner)[attr]
                    places = [owner]
                else:
                    orig = getattr(mods[mname], attr)
                    places = [m for m in mods.values() if vars(m).get(attr) is orig]
                wrapper = make(name, orig)
                setattr(wrapper, _MARK, True)
                for place in places:
                    setattr(place, attr, wrapper)
                    self._patches.append((place, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            place, attr, orig = self._patches.pop()
            setattr(place, attr, orig)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        """Per-layer totals over everything traced so far."""
        calls: Dict[str, float] = defaultdict(int)
        incl: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        counts: Dict[str, float] = defaultdict(int)
        for s in self.spans:
            if s["name"] == ITEM:
                continue
            calls[s["name"]] += 1
            incl[s["name"]] += s["end"] - s["start"]
            own[s["name"]] += s["self_s"]
            counts[s["name"]] += s["count"]
        for (_, name), (n, t, st, c) in self.leaves.items():
            calls[name] += n
            incl[name] += t
            own[name] += st
            counts[name] += c

        out: Dict[str, float] = {}
        for name, _, _, _ in SPANS + LEAVES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = incl[name]
            out[f"{name}.self_s"] = own[name]
        for name, (counter, _) in COUNTERS.items():
            out[counter] = counts[name]
        for name, counter in (
            ("classgroup.relation_row", "classgroup.relation_row.rows"),
            ("ideals.is_principal_bounded", "ideals.is_principal_bounded.hits"),
        ):
            out[f"{name}.hit_ratio"] = out[counter] / calls[name] if calls[name] else 0.0
        out.update(self._phases())
        return out

    def _phases(self) -> Dict[str, float]:
        """Relation phase: a field's class_group start to the end of its last
        snf.  Oracle phase: the rest of that class_group, on fields where the
        oracle ran (it calls class_inverse_representative); fields it skipped
        count 0, leaving out the microseconds of bookkeeping after their last
        snf."""
        last_snf: Dict[int, float] = {}
        oracle_ran = set()
        for s in self.spans:
            if s["name"] == "zlinalg.snf":
                last_snf[s["parent"]] = max(last_snf.get(s["parent"], 0.0), s["end"])
            elif s["name"] == "ideals.class_inverse_representative":
                oracle_ran.add(s["parent"])
        relation = oracle = 0.0
        for s in self.spans:
            if s["name"] != "classgroup.class_group":
                continue
            cut = last_snf.get(s["id"], s["start"])
            relation += cut - s["start"]
            if s["id"] in oracle_ran:
                oracle += s["end"] - cut
        return {"classgroup.relation_phase_s": relation, "classgroup.oracle_phase_s": oracle}

    def dump(self) -> Dict[str, Any]:
        """Spans and leaf aggregates as plain JSON data."""
        return {
            "spans": self.spans,
            "leaves": [
                {"parent": pid, "name": name, "calls": n, "s": t, "self_s": st, "count": c}
                for (pid, name), (n, t, st, c) in self.leaves.items()
            ],
        }

