"""Spans around the program's public functions, for the traced run only.

:func:`install` rebinds every module-level name under which a ``probuchi``
module holds one of the traced functions (so calls between modules are
seen as well as the benchmark's own calls) and returns the function that
puts the originals back.  A span is ``[name, start, end, parent]``; spans
stay in memory until the run ends.  Nothing here imports ``probuchi``: the
caller passes the loaded modules in.
"""

from __future__ import annotations

import functools
import re
import sys
import time
from collections import defaultdict

# (module, attribute) of every traced function; ``Class.method`` patches
# the class attribute.
TRACED = [
    ("core", "validate"),
    ("graphs", "tarjan_sccs"),
    ("markov", "lasso_acceptance"),
    ("markov", "build_lasso_chain"),
    ("markov", "solve_linear"),
    ("markov", "word_matrix"),
    ("markov", "final_passage_matrix"),
    ("construct", "complement_to_fpm"),
    ("construct", "hpba_to_nba"),
    ("decide", "transition_monoid"),
    ("decide", "nba_universality"),
    ("decide", "nba_complement"),
    ("decide", "nba_lasso_member"),
    ("decide", "verify_subset_witness"),
    ("decide", "verify_asymptotic_witness"),
    ("decide", "fpm_positive_empty"),
    ("decide", "fpm_positive_universal"),
    ("decide", "almost_sure_empty"),
    ("decide", "almost_sure_universal"),
    ("decide", "hpba_probable_empty"),
    ("decide", "hpba_probable_universal"),
    ("decide", "containment_refute"),
    ("decide", "pba_positive_nonempty_bounded"),
    ("sim", "mc_lasso_estimate"),
    ("sim", "MonitorSession.feed"),
    ("textio", "parse"),
    ("textio", "serialize"),
    ("cli", "run"),
]

# Checks of a lasso made by a decision procedure: probes and certificates.
CERTIFY = {
    "markov.lasso_acceptance",
    "decide.nba_lasso_member",
    "decide.verify_subset_witness",
    "decide.verify_asymptotic_witness",
}
PROBES = {"markov.lasso_acceptance", "decide.nba_lasso_member"}

_PROFILE_RE = re.compile(r"profile monoid has (\d+) elements")


class Tracer:
    """Collects spans and the counts read from the program's return values."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._open, self.counts
        clock = time.perf_counter
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "decide.nba_universality":
                _chain_progress(kwargs, counts)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "probuchi"):
        """Wrap every traced function; returns a callable that undoes it."""
        undo = []
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        for mod_name, attr in TRACED:
            home = sys.modules[f"{package}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(f"{mod_name}.{attr}", original))
                undo.append((cls, meth, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))

        def restore() -> None:
            for obj, key, original in reversed(undo):
                setattr(obj, key, original)

        return restore

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def _chain_progress(kwargs: dict, counts) -> None:
    user = kwargs.get("progress")

    def progress(message: str) -> None:
        m = _PROFILE_RE.search(message)
        if m:
            counts["decide.profile_elements"] += int(m.group(1))
        if user is not None:
            user(message)

    kwargs["progress"] = progress


def _chain(counts, args, kwargs, chain) -> None:
    counts["markov.chain_nodes"] += len(chain.nodes)
    counts["markov.bsccs_accepting"] += chain.accepting_bsccs
    counts["markov.bsccs_rejecting"] += chain.rejecting_bsccs


def _arg(args, kwargs, i: int, key: str):
    return args[i] if len(args) > i else kwargs[key]


_OBSERVERS = {
    "markov.build_lasso_chain": _chain,
    "markov.solve_linear": lambda c, a, k, r: c.__setitem__(
        "markov.unknowns", c["markov.unknowns"] + len(r)),
    "decide.transition_monoid": lambda c, a, k, r: c.__setitem__(
        "decide.monoid_elements", c["decide.monoid_elements"] + len(r)),
    "decide.nba_complement": lambda c, a, k, r: c.__setitem__(
        "decide.complement_states", c["decide.complement_states"] + len(r.states)),
    "sim.mc_lasso_estimate": lambda c, a, k, r: c.__setitem__(
        "sim.samples", c["sim.samples"] + r.samples),
    "textio.parse": lambda c, a, k, r: c.__setitem__(
        "textio.parse.bytes", c["textio.parse.bytes"] + len(_arg(a, k, 0, "text").encode())),
}


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the time its child spans cover;
    calls are sequential, so children never overlap.  Also returns the
    total time and number of lasso checks made inside decision procedures.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    certify = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    for i, (name, start, end, parent) in enumerate(spans):
        rec = out[name]
        rec["calls"] += 1
        rec["total_s"] += end - start
        rec["self_s"] += end - start - child[i]
        if name in CERTIFY and parent >= 0 and spans[parent][0].startswith("decide."):
            certify["total_s"] += end - start
            if name in PROBES:
                certify["calls"] += 1
    out["decide.certify"] = certify
    return dict(out)
