"""Per-layer tracing of the `vtl` package from outside it.

`Tracer` replaces the public functions of each `vtl` module, and the
arithmetic methods of `QuadScalar` and `DenseMatrix`, with timing wrappers.
A module that imported a name by value (`from .elements import
element_multiply`) holds its own binding, so every binding in every loaded
`vtl` module that refers to a wrapped function is replaced, and all of them
are put back on exit.  Nothing under `src/` changes.

Spans are aggregated in place rather than stored one by one: the scalar layer
alone makes millions of calls per pass.  For each layer the tracer keeps
`calls`, an exact count of wrapped calls, and `self_s`, the time inside the
layer minus the time of nested traced calls.  The wrappers' own bookkeeping is
kept out of self time and out of the inclusive per-family times: a parent span
subtracts the whole duration of a child wrapper and adds back only the
child's measured inclusive time.  The overhead still shows in wall time,
which `run.py` reports as `trace.overhead_share`.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


class Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Context manager that wraps the vtl layers while it is active."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counters: dict[str, float] = defaultdict(float)
        # One [raw, clean] pair per open span: the wall time of child wrappers,
        # and the inclusive time those children measured themselves.
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._rho_keys: set = set()

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            enter = clock()
            extra = before(args) if before is not None else None
            frame = [0.0, 0.0]
            stack.append(frame)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                incl = end - start - frame[0] + frame[1]
                stat.calls += 1
                stat.self_s += end - start - frame[0]
                if after is not None and returned:
                    after(args, result, extra, incl)
                if stack:
                    parent = stack[-1]
                    parent[0] += clock() - enter
                    parent[1] += incl

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- layer-specific counters --------------------------------------------

    def _after_check(self, args, result, extra, incl):
        self.counters["relations.check_relation.s." + args[0].family] += incl

    def _after_multiply(self, args, result, extra, incl):
        x, y = args[0], args[1]
        self.counters["elements.element_multiply.pairs"] += len(x.terms()) * len(y.terms())
        peak = "elements.element_multiply.terms_out_peak"
        self.counters[peak] = max(self.counters[peak], len(result.terms()))

    def _after_compose(self, args, result, extra, incl):
        self.counters["diagrams.compose.loops"] += result[1]

    def _before_matmul(self, args):
        a, b = args
        col_nnz = [0] * a.cols
        for row in a.entries:
            for k, e in enumerate(row):
                if not e.is_zero:
                    col_nnz[k] += 1
        row_nnz = [sum(1 for e in row if not e.is_zero) for row in b.entries]
        c = self.counters
        c["linalg.matmul.mults"] += sum(p * q for p, q in zip(col_nnz, row_nnz))
        c["linalg.matmul.operand_nonzeros"] += sum(col_nnz) + sum(row_nnz)
        c["linalg.matmul.operand_entries"] += a.rows * a.cols + b.rows * b.cols

    def _after_rho(self, args, result, extra, incl):
        rep, i, params = args
        self._rho_keys.add((rep.kind, rep.n, getattr(rep, "d", None), rep.lam, i, params))

    def _before_scalar(self, args):
        for value in args:
            if getattr(value, "y", 0):
                self.counters["scalars.quadratic_ops"] += 1
                return

    def end_item(self) -> None:
        """Close one top-level operation: rho images are counted distinct per operation."""
        self.counters["reps.rho_image.distinct"] += len(self._rho_keys)
        self._rho_keys.clear()

    # -- patching ------------------------------------------------------------

    def _targets(self):
        import vtl.cli
        import vtl.diagrams
        import vtl.elements
        import vtl.expand
        import vtl.linalg
        import vtl.relations
        import vtl.reps
        import vtl.tensorrep
        import vtl.verify
        import vtl.words
        from vtl.linalg import DenseMatrix
        from vtl.reps import DiagramRep, MatrixRep
        from vtl.scalars import QuadScalar

        functions = [
            ("cli.main", vtl.cli.main, None, None),
            ("verify.run_verify", vtl.verify.run_verify, None, None),
            ("relations.check_relation", vtl.relations.check_relation, None, self._after_check),
            ("relations.relation_instances", vtl.relations.relation_instances, None, None),
            ("reps.evaluate_expr", vtl.reps.evaluate_expr, None, None),
            ("reps.evaluate_word", vtl.reps.evaluate_word, None, None),
            ("reps.rho_image", vtl.reps.rho_image, None, self._after_rho),
            ("elements.element_multiply", vtl.elements.element_multiply, None, self._after_multiply),
            ("elements.element_inverse", vtl.elements.element_inverse, None, None),
            ("elements.closure_trace", vtl.elements.closure_trace, None, None),
            ("diagrams.compose", vtl.diagrams.compose, None, self._after_compose),
            ("linalg.invert", vtl.linalg.invert, None, None),
            ("linalg.rank", vtl.linalg.rank, None, None),
            ("linalg.solve_columns", vtl.linalg.solve_columns, None, None),
            ("tensorrep.matching_matrix", vtl.tensorrep.matching_matrix, None, None),
            ("tensorrep.site_embed", vtl.tensorrep.site_embed, None, None),
            ("expand.braid_matches_registry", vtl.expand.braid_matches_registry, None, None),
            ("words.parse_word", vtl.words.parse_word, None, None),
        ]
        methods = [
            ("reps.invert", DiagramRep, ("invert",), None),
            ("reps.invert", MatrixRep, ("invert",), None),
            ("linalg.matmul", DenseMatrix, ("__mul__",), self._before_matmul),
            ("linalg.elementwise", DenseMatrix, ("__add__", "__sub__", "scale"), None),
            (
                "scalars",
                QuadScalar,
                ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "inv"),
                self._before_scalar,
            ),
        ]
        return functions, methods

    def __enter__(self) -> Tracer:
        functions, methods = self._targets()
        modules = [m for name, m in sys.modules.items() if name == "vtl" or name.startswith("vtl.")]
        for name, fn, before, after in functions:
            wrapper = self._wrap(name, fn, before, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, wrapper)
        for name, cls, attrs, before in methods:
            for attr in attrs:
                fn = vars(cls)[attr]
                self._patch(cls, attr, self._wrap(name, fn, before))
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def table(self) -> dict[str, float]:
        """Every per-layer figure by metric name."""
        out: dict[str, float] = {}
        for name, stat in sorted(self.stats.items()):
            if name == "scalars":
                out["scalars.ops"] = stat.calls
            else:
                out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_s"] = stat.self_s
        c = self.counters
        out["scalars.quadratic_share"] = _share(c["scalars.quadratic_ops"], self.stats["scalars"].calls)
        out["reps.rho_image.distinct_share"] = _share(
            c["reps.rho_image.distinct"], self.stats["reps.rho_image"].calls
        )
        out["linalg.matmul.density"] = _share(
            c["linalg.matmul.operand_nonzeros"], c["linalg.matmul.operand_entries"]
        )
        for key in ("elements.element_multiply.pairs", "elements.element_multiply.terms_out_peak",
                    "diagrams.compose.loops", "linalg.matmul.mults"):
            out[key] = int(c[key])
        from vtl.relations import FAMILIES

        for family in FAMILIES:
            out[f"relations.check_relation.s.{family}"] = c["relations.check_relation.s." + family]
        return out


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
