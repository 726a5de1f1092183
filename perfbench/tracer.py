"""Span tracing for the benchmark's traced run, applied from outside the
program: public functions are replaced, at run time, by wrappers under
every module attribute that refers to them, so calls made through
``from .x import y`` bindings are caught too. ``uninstall`` puts the
originals back.

A span records its name, start, end, parent span and job id. Aggregates
(calls, inclusive time, self time) are kept for every span; the span rows
themselves are kept in memory up to a cap and written out at the end. A
span's self time is its duration minus the time its child spans cover,
where a child's cover includes the wrapper's own bookkeeping, so tracing
cost is charged to no layer.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter


SPAN_CAP = 200_000  # span rows kept in memory; aggregates cover every span


class Tracer:
    def __init__(self):
        self.on = False
        self.job = -1
        self.stack: list[list] = []
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.counts: dict[str, int] = {}
        self.dyadic_adds = [0]
        self.spans_total = 0
        self._cols = {
            "id": array("q"), "name": array("i"), "start": array("d"),
            "end": array("d"), "parent": array("q"), "job": array("i"),
        }
        self._patched: list[tuple[object, str, object]] = []

    # -- names and counters -------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return nid

    def add(self, counter: str, k: int = 1):
        self.counts[counter] = self.counts.get(counter, 0) + k

    def active(self, nid: int) -> bool:
        return any(frame[0] == nid for frame in self.stack)

    def snapshot(self) -> dict[str, int]:
        """Every integer counter: span call counts and work counters."""
        out = {f"{name}.calls": self.calls[i] for i, name in enumerate(self.names)}
        out.update(self.counts)
        out["weights.dyadic_adds"] = self.dyadic_adds[0]
        return out

    def stat(self, name: str) -> tuple[int, float, float]:
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total_s[nid], self.self_s[nid]

    # -- spans --------------------------------------------------------------

    def span(self, name: str, fn, post=None):
        """Wrap ``fn`` so each call while tracing is on records a span;
        ``post(tracer, result, args, kwargs)`` runs after the span closes."""
        nid = self.intern(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            t_enter = perf_counter()
            stack = tracer.stack
            parent = stack[-1] if stack else None
            sid = tracer.spans_total
            tracer.spans_total = sid + 1
            frame = [nid, sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._close(nid, sid, start, end, frame[2], parent)
            if post is not None:
                post(tracer, result, args, kwargs)
            if parent is not None:
                parent[2] += perf_counter() - t_enter
            return result

        return traced

    def _close(self, nid, sid, start, end, child_s, parent):
        dur = end - start
        self.calls[nid] += 1
        self.total_s[nid] += dur
        self.self_s[nid] += dur - child_s
        if sid < SPAN_CAP:
            c = self._cols
            c["id"].append(sid)
            c["name"].append(nid)
            c["start"].append(start)
            c["end"].append(end)
            c["parent"].append(-1 if parent is None else parent[1])
            c["job"].append(self.job)

    def run_job(self, job_id: int, name: str, fn):
        """Run ``fn`` as the root span of one job."""
        self.job = job_id
        wrapped = self.span(name, fn)
        try:
            return wrapped()
        finally:
            self.job = -1

    def write_spans(self, path: str):
        c = self._cols
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,job\n")
            t0 = c["start"][0] if c["start"] else 0.0
            for i in range(len(c["id"])):
                fh.write(
                    f"{c['id'][i]},{self.names[c['name'][i]]},"
                    f"{c['start'][i] - t0:.9f},{c['end'][i] - t0:.9f},"
                    f"{c['parent'][i]},{c['job'][i]}\n"
                )

    # -- installing wrappers ------------------------------------------------

    def patch(self, owner, attr: str, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap_everywhere(self, package: str, fn, name: str, post=None, overrides=None):
        """Replace ``fn`` under every module attribute of ``package`` that
        refers to it. ``overrides`` maps a module name to the span name used
        for calls looked up through that module."""
        overrides = overrides or {}
        wrappers: dict[str, object] = {}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    span_name = overrides.get(mod_name, name)
                    if span_name not in wrappers:
                        wrappers[span_name] = self.span(span_name, fn, post)
                    self.patch(mod, attr, wrappers[span_name])

    def count_calls(self, cls, attrs: tuple[str, ...], cell: list):
        """Replace methods with counters (no span) that bump ``cell[0]``."""
        tracer = self
        for attr in attrs:
            fn = getattr(cls, attr)

            def counted(a, b, _fn=fn):
                if tracer.on:
                    cell[0] += 1
                return _fn(a, b)

            self.patch(cls, attr, counted)

    def uninstall(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)
