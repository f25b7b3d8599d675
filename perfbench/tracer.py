"""In-memory spans and counters, attached to a program by wrapping functions.

The tracer never edits the program's files.  `wrap_function` and
`wrap_method` replace a function object wherever a module of the traced
package holds a reference to it (a name imported with ``from .x import f``
is a second reference) and remember every replacement, so `uninstall`
restores the originals exactly and an untraced run executes none of the
wrappers.

Spans are kept in flat arrays (name id, start, end, parent id, job id) and
written out once, at the end.  A span's self time is its duration minus the
time its child spans cover; in a single thread children nest inside their
parent and do not overlap, so that is the duration minus the sum of the
children's durations.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_id = array("i")
        self.jobs: List[str] = []
        self.job = -1
        self.counts: Counter = Counter()
        self.maxima: Dict[str, int] = {}
        self.open_names: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job_id.append(self.job)
        self.end.append(0.0)
        self._stack.append(sid)
        self.open_names[name] += 1
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()
        self.open_names[self.names[self.name_id[sid]]] -= 1

    def begin_job(self, name: str) -> None:
        self.job = len(self.jobs)
        self.jobs.append(name)

    def self_times(self) -> List[float]:
        """Self time of every span, indexed by span id."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                out[parent] -= self.end[sid] - self.start[sid]
        return out

    def self_time_by_name(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for sid, t in enumerate(self.self_times()):
            name = self.names[self.name_id[sid]]
            totals[name] = totals.get(name, 0.0) + t
        return totals

    def duration_by_name(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for sid, nid in enumerate(self.name_id):
            name = self.names[nid]
            totals[name] = totals.get(name, 0.0) + self.end[sid] - self.start[sid]
        return totals

    def write(self, path) -> None:
        """Gzipped TSV, one line per span: id, name id, start and end in
        microseconds, parent id (-1 for none), job id.  Header lines starting
        with '#' map the name and job ids to names."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for table, values in (("name", self.names), ("job", self.jobs)):
                fh.writelines(f"# {table} {i} {v}\n" for i, v in enumerate(values))
            fh.write("id\tname\tstart_us\tend_us\tparent\tjob\n")
            t0 = self.start[0] if self.start else 0.0
            fh.writelines(
                f"{sid}\t{nid}\t{(s - t0) * 1e6:.1f}\t{(e - t0) * 1e6:.1f}\t{p}\t{j}\n"
                for sid, (nid, s, e, p, j) in enumerate(
                    zip(self.name_id, self.start, self.end, self.parent, self.job_id)))

    # -- wrappers ---------------------------------------------------------

    def spanned(self, name: str, fn: Callable,
                after: Optional[Callable] = None) -> Callable:
        """`fn` inside a span; `after(args, result)` runs once it returns."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def counted(self, key: str, fn: Callable) -> Callable:
        """`fn` with a call counter and no span, for very frequent calls."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def wrap_method(self, cls: type, attr: str,
                    make: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def wrap_function(self, module, attr: str,
                      make: Callable[[Callable], Callable]) -> None:
        """Replace `module.attr` and every other reference the package holds."""
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in self._package_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def _package_modules(self) -> Iterable:
        prefix = self.package + "."
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == self.package or n.startswith(prefix))]

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)
