"""Span tracer that wraps lriga's public functions from outside the package.

Nothing in ``src/lriga`` changes.  A :class:`Tracer` replaces each traced
function by a timing wrapper in *every* ``lriga`` module that holds it,
because several modules import the same function by name
(``from .truncation import truncate_rel`` in ``tpcg``, ``elasticity``, ...)
and the package ``__init__`` rebinds ``lriga.tpcg`` to the function.  A
module-level call such as ``truncation.truncate_rel`` inside
``truncate_dynamic`` or ``tucker.tucker_inner`` inside
``TuckerTensor3.norm`` resolves through the module's globals, so patching
the module attribute reaches it too.

Each call records a span: name, start, end, parent span and optional
attributes (core sizes).  Self time is the span's duration minus the time
covered by its direct children; calls run on one thread, so children never
overlap.
"""

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


def _truncate_rel_attrs(args, out):
    core = args[0].core
    return {"core_in": core.size, "bytes_in": core.nbytes}


def _core_out_attrs(args, out):
    return {"core_out": out.core.size}


#: (module, attribute, span name, attribute recorder).  The attribute may be
#: ``Class.method``.  Two targets may share a span name when they play the
#: same role: the block solver and its dynamic truncation live in
#: ``elasticity`` but are the solver loop and the dynamic truncation of the
#: block problem.
TARGETS = (
    ("lriga.tpcg", "tpcg", "tpcg", None),
    ("lriga.elasticity", "block_tpcg", "tpcg", None),
    ("lriga.fastdiag", "LowRankFD.apply", "fastdiag.apply", _core_out_attrs),
    ("lriga.fastdiag", "build_lowrank_fd", "fastdiag.build", None),
    ("lriga.truncation", "truncate_rel", "truncation.truncate_rel",
     _truncate_rel_attrs),
    ("lriga.truncation", "truncate_dynamic", "truncation.truncate_dynamic",
     None),
    ("lriga.elasticity", "block_truncate_dynamic",
     "truncation.truncate_dynamic", None),
    ("lriga.tucker", "tucker_matvec", "tucker.matvec", _core_out_attrs),
    ("lriga.tucker", "tucker_add", "tucker.add", None),
    ("lriga.tucker", "tucker_inner", "tucker.inner", None),
    ("lriga.assembly", "assemble_system", "assembly.assemble", None),
    ("lriga.elasticity", "assemble_elasticity", "assembly.assemble", None),
    ("lriga.chebfit", "approximate_function", "chebfit.approximate_function",
     None),
    ("lriga.bsplines", "assemble_weighted_matrix", "bsplines.weighted_matrix",
     None),
    ("lriga.eigen", "approx_eigen", "eigen.approx_eigen", None),
    ("lriga.expsum", "build_exp_sum", "expsum.build_exp_sum", None),
)

#: Spans of the solver loop; their metrics count only calls inside a solve.
SOLVE_SPANS = ("tpcg", "fastdiag.apply", "truncation.truncate_rel",
               "truncation.truncate_dynamic", "tucker.matvec", "tucker.add",
               "tucker.inner")


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 for a root
    end: float = None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Installs timing wrappers on :data:`TARGETS` and collects spans.

    Use as a context manager; leaving it restores every patched name.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def _wrap(self, fn, name, recorder):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if recorder is not None:
                span.attrs = recorder(args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def __enter__(self):
        for module_name, attr, name, recorder in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name, recorder))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(orig, name, recorder)
            holders = [m for key, m in list(sys.modules.items())
                       if m is not None
                       and (key == "lriga" or key.startswith("lriga."))]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        self._restore.append((holder, key, orig))
                        setattr(holder, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()
        return False

    def self_times(self):
        """Per-span self time: duration minus the direct children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def roots(self):
        """Index of each span's outermost ancestor."""
        out = []
        for i, s in enumerate(self.spans):
            out.append(i if s.parent < 0 else out[s.parent])
        return out


@dataclass
class LayerStats:
    """Self time, call count and recorded attributes of one span name."""

    self_s: float = 0.0
    calls: int = 0
    attrs: list = field(default_factory=list)
    by_parent: dict = field(default_factory=lambda: defaultdict(int))

    def attr_max(self, key):
        return max((a[key] for a in self.attrs), default=0)

    def attr_sum(self, key):
        return sum(a[key] for a in self.attrs)


def layer_stats(tracer):
    """Aggregate spans by name.

    Loop spans (:data:`SOLVE_SPANS`) count only inside a ``tpcg`` span, so
    setup work that happens to call the same function (the Dirichlet lift
    calls ``tucker_matvec``) stays out of the loop's counts.
    """
    stats = defaultdict(LayerStats)
    selfs = tracer.self_times()
    roots = tracer.roots()
    spans = tracer.spans
    for i, s in enumerate(spans):
        if s.name in SOLVE_SPANS and spans[roots[i]].name != "tpcg":
            continue
        st = stats[s.name]
        st.self_s += selfs[i]
        st.calls += 1
        if s.attrs:
            st.attrs.append(s.attrs)
        st.by_parent[spans[s.parent].name if s.parent >= 0 else None] += 1
    return stats


def solve_span_s(tracer):
    """Total duration of the root ``tpcg`` spans."""
    return sum(s.end - s.start for s in tracer.spans
               if s.parent < 0 and s.name == "tpcg")


def layer_metrics(tracer):
    """Per-layer metrics of one traced repetition.

    Every ``*_s`` value is a self time, so the loop layers' values plus
    ``tpcg.self_s`` add up to the solve span.
    """
    st = layer_stats(tracer)
    rel, dyn = st["truncation.truncate_rel"], st["truncation.truncate_dynamic"]
    attempts = rel.by_parent["truncation.truncate_dynamic"]
    return {
        "fastdiag.apply_s": st["fastdiag.apply"].self_s,
        "fastdiag.apply_calls": st["fastdiag.apply"].calls,
        "fastdiag.apply_core_max": st["fastdiag.apply"].attr_max("core_out"),
        "truncation.truncate_rel_s": rel.self_s,
        "truncation.truncate_rel_calls": rel.calls,
        "truncation.core_in_max": rel.attr_max("core_in"),
        "truncation.core_mb_in": rel.attr_sum("bytes_in") / 1e6,
        "truncation.truncate_dynamic_s": dyn.self_s,
        "truncation.dynamic_attempts": attempts,
        "truncation.dynamic_accept_ratio": dyn.calls / max(attempts, 1),
        "tucker.matvec_s": st["tucker.matvec"].self_s,
        "tucker.matvec_calls": st["tucker.matvec"].calls,
        "tucker.matvec_core_max": st["tucker.matvec"].attr_max("core_out"),
        "tucker.inner_s": st["tucker.inner"].self_s,
        "tucker.inner_calls": st["tucker.inner"].calls,
        "tucker.add_s": st["tucker.add"].self_s,
        "tpcg.self_s": st["tpcg"].self_s,
        "assembly.assemble_s": st["assembly.assemble"].self_s,
        "chebfit.approximate_function_s":
            st["chebfit.approximate_function"].self_s,
        "chebfit.calls": st["chebfit.approximate_function"].calls,
        "bsplines.weighted_matrix_s": st["bsplines.weighted_matrix"].self_s,
        "bsplines.weighted_matrix_calls": st["bsplines.weighted_matrix"].calls,
        "eigen.approx_eigen_s": st["eigen.approx_eigen"].self_s,
        "expsum.build_exp_sum_s": st["expsum.build_exp_sum"].self_s,
        "fastdiag.build_s": st["fastdiag.build"].self_s,
    }


def loop_failures(tracer, iterations, blocks):
    """Check traced call counts against the structure of the TPCG loop.

    For a converged solve of K iterations without breakdown, the loop
    applies the preconditioner K times, calls ``truncate_rel`` directly
    4K - 1 times, ``tucker_matvec`` 2K + 1 times (the last for the final
    residual) and ``truncate_dynamic`` K times.  A block problem of
    ``blocks`` components multiplies the first three by ``blocks``,
    ``blocks`` and ``blocks**2``.  A wrapper that misses a call site
    breaks one of these.
    """
    st = layer_stats(tracer)
    k, b = iterations, blocks
    expected = {
        "fastdiag.apply calls": (st["fastdiag.apply"].calls, b * k),
        "truncate_rel calls from tpcg": (
            st["truncation.truncate_rel"].by_parent["tpcg"], b * (4 * k - 1)),
        "tucker_matvec calls": (st["tucker.matvec"].calls, b * b * (2 * k + 1)),
        "truncate_dynamic calls": (st["truncation.truncate_dynamic"].calls, k),
    }
    return ["%s: traced %d, loop structure gives %d" % (what, got, want)
            for what, (got, want) in expected.items() if got != want]
