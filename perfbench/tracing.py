"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each rlcc layer where their
callers look them up: the defining module and every rlcc module that
imported the name (``composed.restrict_to_plane`` as well as
``rm.restrict_to_plane``), and the class attribute for methods.  A
spanned call records (name, start, end, parent span) in flat arrays kept
in memory until the run ends; the hottest scalar functions are only
counted, so that the overhead stays readable.

Self time is a span's duration minus the time its direct child spans
cover; calls are properly nested in this single-threaded process, so the
children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, qualified attribute, span name); a dotted attribute is a method
SPANNED = (
    ("gf", "Field.__init__", "gf.Field.init"),
    ("rm", "evaluate", "rm.evaluate"),
    ("rm", "evaluate_many", "rm.evaluate_many"),
    ("rm", "restrict_to_plane", "rm.restrict_to_plane"),
    ("rm", "eval_table", "rm.eval_table"),
    ("geometry", "canonical_plane_key", "geometry.canonical_plane_key"),
    ("ctrw", "walk_sample", "ctrw.walk_sample"),
    ("ctrw", "violation_check_planted", "ctrw.violation_check_planted"),
    ("ctrw", "step_events", "ctrw.step_events"),
    ("ctrw", "PointCorruption.corrupt_mask", "ctrw.PointCorruption.corrupt_mask"),
    ("ctrw", "plane_codes_at", "ctrw.plane_codes_at"),
    ("pcpp", "verify_proximity", "pcpp.verify_proximity"),
    ("pcpp", "correct_proof_symbol", "pcpp.correct_proof_symbol"),
    ("composed", "ComposedLayout.decode", "composed.ComposedLayout.decode"),
    ("composed", "CanonicalOracle.read", "composed.CanonicalOracle.read"),
    ("composed", "Overlay.replacement", "composed.Overlay.replacement"),
    ("composed", "Overlay.apply_to_array", "composed.Overlay.apply_to_array"),
    ("composed", "correct_rm", "composed.correct_rm"),
    ("composed", "correct_proof", "composed.correct_proof"),
    ("composed", "materialize", "composed.materialize"),
    ("prf", "chain_vec", "prf.chain_vec"),
)

# counted, not spanned: (module, qualified attribute, counter name)
COUNTED = (
    ("gf", "Field.add", "gf.scalar"),
    ("gf", "Field.sub", "gf.scalar"),
    ("gf", "Field.mul", "gf.scalar"),
    ("gf", "Field.pow", "gf.scalar"),
    ("gf", "Field.inv", "gf.scalar"),
    ("prf", "chain", "prf.chain"),
    ("geometry", "plane_point_at", "geometry.plane_point_at"),
    ("geometry", "point_code", "geometry.point_code"),
    ("composed", "CanonicalOracle.proof_block", "composed.proof_block"),
)

# span names opened by the benchmark itself around set-up and each unit
BENCH_SPANS = ("harness.setup", "harness.encode", "harness.trial")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = {}
        self.sums = {}
        self.missing = []
        for name in BENCH_SPANS:
            self._id(name)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _add(self, key: str, value):
        self.sums[key] = self.sums.get(key, 0) + value

    # -- spans -----------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.name_of)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _spanned(self, fn, name, before=None, after=None):
        nid = self._id(name)
        opn, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = opn(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(out, args, kwargs)
            return out

        return traced

    def _counted(self, fn, name):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------------

    def install(self):
        """Wrap every target; targets that no longer exist are listed in
        ``missing`` and report zero."""
        hooks = self._hooks()
        for module, attr, name in SPANNED:
            before, after = hooks.get(name, (None, None))
            self._patch(
                module, attr,
                lambda fn, n=name, b=before, a=after: self._spanned(fn, n, b, a),
            )
        for module, attr, name in COUNTED:
            self._patch(module, attr, lambda fn, n=name: self._counted(fn, n))

    def _patch(self, module: str, attr: str, make):
        mod = sys.modules.get(f"rlcc.{module}")
        owner_name, _, fname = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        orig = vars(owner).get(fname) if owner is not None else None
        if orig is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapped = make(orig)
        if owner_name:
            setattr(owner, fname, wrapped)
            return
        for mname, m in list(sys.modules.items()):
            if (mname == "rlcc" or mname.startswith("rlcc.")) and vars(m).get(fname) is orig:
                setattr(m, fname, wrapped)

    def _hooks(self):
        add = self._add

        def points(args, kwargs):
            coords = args[2] if len(args) > 2 else kwargs.get("coords")
            add("rm.evaluate_many.points", int(np.shape(coords)[1]))
            return args, kwargs

        def codes(args, kwargs):
            arr = args[1] if len(args) > 1 else kwargs.get("codes")
            add("ctrw.PointCorruption.corrupt_mask.codes", int(np.size(arr)))
            return args, kwargs

        def elements(args, kwargs):
            arr = args[1] if len(args) > 1 else kwargs.get("last")
            add("prf.chain_vec.elements", int(np.size(arr)))
            return args, kwargs

        from rlcc import composed, pcpp

        def bot_counter(name):
            def after(out, args, kwargs):
                add(f"{name}.aborts", int(out is pcpp.BOT))

            return after

        hooks = {
            "rm.evaluate_many": (points, None),
            "ctrw.PointCorruption.corrupt_mask": (codes, None),
            "prf.chain_vec": (elements, None),
        }

        vp = _query_hooks(add, pcpp.verify_proximity, "pcpp.verify_proximity")
        if vp is not None:
            before, after = vp

            def accepted(out, args, kwargs):
                after(out, args, kwargs)
                add("pcpp.verify_proximity.accepts", int(bool(out)))

            hooks["pcpp.verify_proximity"] = (before, accepted)
        for fn, name in (
            (composed.correct_rm, "composed.correct_rm"),
            (composed.correct_proof, "composed.correct_proof"),
        ):
            q = _query_hooks(add, fn, name)
            bots = bot_counter(name)
            if q is None:
                hooks[name] = (None, bots)
                continue

            def both(out, args, kwargs, q_after=q[1], bots=bots):
                q_after(out, args, kwargs)
                bots(out, args, kwargs)

            hooks[name] = (q[0], both)
        return hooks

    # -- results -------------------------------------------------------------------

    def span_table(self):
        """Per span name: calls, inclusive seconds (all, and inside the
        benchmark's trial spans) and self seconds."""
        name_of = np.frombuffer(self.name_of, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        size = len(dur)
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=size
        )
        own = dur - child
        # the outermost span above each span, found by walking up the
        # parent links one level per pass
        top = np.arange(size)
        while size:
            up = parent[top]
            step = up >= 0
            if not step.any():
                break
            top[step] = up[step]
        in_trial = name_of[top] == self._ids["harness.trial"]
        k = len(self.names)
        calls = np.bincount(name_of, minlength=k)
        total = np.bincount(name_of, weights=dur, minlength=k)
        trial_s = np.bincount(name_of, weights=dur * in_trial, minlength=k)
        self_s = np.bincount(name_of, weights=own, minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "in_trial_s": float(trial_s[i]),
                "self_s": float(self_s[i]),
            }
            for i, name in enumerate(self.names)
        }

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _query_hooks(add, fn, name):
    """Hooks that measure the (word, proof) queries of one call.

    The function's optional ``counter`` argument is filled with a fresh
    QueryCounter when the caller passed none (the function would create
    one itself), and the counter is read before and after the call.
    Returns None when the function has no such parameter.
    """
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    if "counter" not in params:
        return None
    pos = params.index("counter")
    from rlcc.pcpp import QueryCounter

    marks = []

    def before(args, kwargs):
        if len(args) > pos:
            counter = args[pos]
            if counter is None:
                counter = QueryCounter()
                args = args[:pos] + (counter,) + args[pos + 1 :]
        else:
            counter = kwargs.get("counter")
            if counter is None:
                counter = kwargs["counter"] = QueryCounter()
        marks.append((counter, counter.word, counter.proof))
        return args, kwargs

    def after(out, args, kwargs):
        counter, word0, proof0 = marks.pop()
        add(f"{name}.word_queries", counter.word - word0)
        add(f"{name}.proof_queries", counter.proof - proof0)

    return before, after
