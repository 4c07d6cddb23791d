"""In-memory span tracer and the wrappers that install it on convasr.

A span is one call into a wrapped public function: its name, start,
end, parent span and the utterance id current when it opened.  Spans
live in flat arrays while the run lasts and are written out once at
the end.  Wrappers replace a public name in every convasr module that
binds it (the defining module and each module that imported it), so
calls between layers are seen as well as calls from the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from typing import NamedTuple

import numpy as np


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.utt = array("i")
        self.utt_id = -1
        # open spans: (span index, counts of child base names opened so far)
        self._stack: list[tuple[int, Counter]] = []
        # id(LayerParams) -> index in the network whose pass is open
        self.layer_index: dict[int, int] = {}

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.utt.append(self.utt_id)
        self.end.append(np.nan)
        self._stack.append((idx, Counter()))
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        top, _ = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {idx} closed while span {top} is open")

    def current_name(self) -> str | None:
        return self.names[self.name_id[self._stack[-1][0]]] if self._stack else None

    def sibling_count(self, base: str) -> int:
        """How many children named ``base`` the open span has had, then
        counts one more."""
        if not self._stack:
            return 0
        counts = self._stack[-1][1]
        n = counts[base]
        counts[base] = n + 1
        return n

    def arrays(self) -> dict:
        # copies: a numpy view would pin the arrays against growing
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int32),
            "utt": np.array(self.utt, dtype=np.int32),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the time its child spans cover.

    Children of one span never overlap (the program is single-threaded),
    so the covered time is the sum of the child durations.
    """
    start, end = np.asarray(start, float), np.asarray(end, float)
    parent = np.asarray(parent, np.int64)
    dur = end - start
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def summarize(tracer: Tracer) -> dict:
    """Per span name: total self seconds and call count."""
    a = tracer.arrays()
    if np.isnan(a["end"]).any():
        raise RuntimeError("summary taken while spans are still open")
    selfs = self_times(a["start"], a["end"], a["parent"])
    n = len(tracer.names)
    self_s = np.bincount(a["name_id"], weights=selfs, minlength=n)
    calls = np.bincount(a["name_id"], minlength=n)
    return {name: (float(self_s[i]), int(calls[i])) for i, name in enumerate(tracer.names)}


class Target(NamedTuple):
    """One public function to wrap: where it is defined and how its
    span is named.  ``name`` is a string or a callable
    ``(tracer, args, kwargs) -> str`` for names that depend on context."""

    module: str
    attr: str
    name: object


def _wrap(fn, tracer: Tracer, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name(tracer, args, kwargs) if callable(name) else name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return wrapper


def _convasr_modules():
    return [m for k, m in list(sys.modules.items()) if k == "convasr" or k.startswith("convasr.")]


def install(tracer: Tracer, targets):
    """Wrap every target; returns (restore, absent).

    ``restore()`` puts the original functions back.  ``absent`` lists
    the targets whose public name no longer exists.
    """
    patched, absent = [], []
    modules = _convasr_modules()
    for t in targets:
        try:
            original = getattr(importlib.import_module(t.module), t.attr, None)
        except ModuleNotFoundError:
            original = None
        if original is None:
            absent.append(f"{t.module}.{t.attr}")
            continue
        wrapper = _wrap(original, tracer, t.name)
        for m in modules:
            if getattr(m, t.attr, None) is original:
                setattr(m, t.attr, wrapper)
                patched.append((m, t.attr, original))

    def restore():
        for m, attr, original in reversed(patched):
            setattr(m, attr, original)

    return restore, absent
