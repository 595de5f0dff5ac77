"""Spans around the public functions of each fixitylab module, set from outside.

The library has no tracing of its own, so the benchmark replaces the public
functions named in ``PROBES`` with timing wrappers for the length of one
traced run and puts the originals back afterwards.  A name that another
fixitylab module imported (``from .perm import build_bsgs``) is replaced in
that module too, so calls from inside the library are seen.

A span's self time is its duration minus the time its direct child spans
cover.  Spans are aggregated as they close (per name: calls and self time;
per parent -> child pair: calls), which keeps the cost per call small.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    """Nested spans on one thread, aggregated by name as they close."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._open: list[list] = []  # [name, start, time covered by children]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.edges: Counter[tuple[str | None, str]] = Counter()
        self.counts: Counter[str] = Counter()
        self.distinct: defaultdict[str, set] = defaultdict(set)
        self.root_s = 0.0
        self.covered_s = 0.0  # part of the root spans that child spans cover

    def enter(self, name: str) -> None:
        self._open.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, children = self._open.pop()
        dur = self.clock() - start
        self.self_s[name] += dur - children
        self.calls[name] += 1
        if self._open:
            parent = self._open[-1]
            parent[2] += dur
            self.edges[(parent[0], name)] += 1
        else:
            self.edges[(None, name)] += 1
            self.root_s += dur
            self.covered_s += children

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def summary(self) -> dict:
        """Plain-data aggregate, for printing as JSON."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "edges": {f"{p or ''}>{c}": n for (p, c), n in self.edges.items()},
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "root_s": self.root_s,
            "covered_s": self.covered_s,
        }


def _count_lattice(tracer: Tracer, fn, args, kwargs):
    """GroupContext.subgroup_classes: count the classes of each lattice the
    call computes; a call answered from the context's cache adds nothing."""
    fresh = args[0]._subgroup_classes is None
    classes = fn(*args, **kwargs)
    if fresh:
        tracer.counts["enumeration.lattice_classes"] += len(classes)
    return classes


def _count_cosets(tracer: Tracer, fn, args, kwargs):
    """build_coset_action: cosets materialized, and the distinct (group,
    stabilizer) pairs an action was built for."""
    action = fn(*args, **kwargs)
    tracer.counts["cosets.cosets_built"] += action.degree
    tracer.distinct["cosets.stabilizers"].add(
        (tuple(action.group.gen_tables), action.u_set)
    )
    return action


# (span name, module, attribute or Class.method, hook or None).  A hook runs
# inside the span and calls the wrapped function itself.
PROBES = (
    ("zoo.resolve", "fixitylab.zoo", "resolve_group", None),
    ("zoo.resolve", "fixitylab.zoo", "psl2_spec", None),
    ("perm.build_bsgs", "fixitylab.perm", "build_bsgs", None),
    ("perm.contains", "fixitylab.perm", "PermGroup.contains_table", None),
    ("perm.element_tables", "fixitylab.perm", "PermGroup.element_tables", None),
    ("enumeration.context", "fixitylab.enumeration", "as_context", None),
    # classes and bundles are lazy properties; these two methods fill them
    ("enumeration.context", "fixitylab.enumeration", "GroupContext._compute_classes", None),
    ("enumeration.context", "fixitylab.enumeration", "GroupContext._compute_bundles", None),
    ("enumeration.lattice", "fixitylab.enumeration", "GroupContext.subgroup_classes", _count_lattice),
    ("enumeration.subgroup_closure", "fixitylab.enumeration", "subgroup_closure", None),
    ("enumeration.structure_predicates", "fixitylab.enumeration", "structure_predicates", None),
    ("cosets.screen", "fixitylab.cosets", "stabilizer_bundle_fixes", None),
    ("cosets.build_coset_action", "fixitylab.cosets", "build_coset_action", _count_cosets),
    ("cosets.fix_direct", "fixitylab.cosets", "fix_direct", None),
    ("cosets.fixity", "fixitylab.cosets", "fixity", None),
    ("verifier.search", "fixitylab.verifier", "search_fixity_k", None),
    ("verifier.lemmas", "fixitylab.verifier", "check_structural_lemmas", None),
    ("verifier.sylow3", "fixitylab.verifier", "classify_sylow3_orbits", None),
    ("verifier.family", "fixitylab.verifier", "check_psl2_family", None),
    ("verifier.order27", "fixitylab.verifier", "check_order27_lemma", None),
)


def _wrap(tracer: Tracer, name: str, fn, hook):
    enter, exit_ = tracer.enter, tracer.exit
    if hook is None:
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()
    else:
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return hook(tracer, fn, args, kwargs)
            finally:
                exit_()
    return functools.wraps(fn)(wrapper)


def _fixitylab_modules() -> list:
    return [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "fixitylab" or n.startswith("fixitylab."))
    ]


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every probe for the length of the block; restore on exit."""
    patches: list[tuple[object, str, object]] = []
    try:
        for name, modname, attr, hook in PROBES:
            mod = importlib.import_module(modname)
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                cls = getattr(mod, cls_name)
                original = cls.__dict__[fn_name]
                patches.append((cls, fn_name, original))
                setattr(cls, fn_name, _wrap(tracer, name, original, hook))
                continue
            original = getattr(mod, fn_name)
            wrapper = _wrap(tracer, name, original, hook)
            for m in _fixitylab_modules():
                for key, value in list(vars(m).items()):
                    if value is original:
                        patches.append((m, key, original))
                        setattr(m, key, wrapper)
        yield tracer
    finally:
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)
