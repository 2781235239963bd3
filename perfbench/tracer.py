"""Per-layer tracing from outside the program.

The tracer wraps public functions and methods of nilsplit by patching
module and class attributes, so the program itself carries no tracing
code. A wrapped call records a span (name, start, end, parent); spans stay
in memory and are written out when the run ends. A target that no longer
exists is reported as absent instead of failing the run, so later versions
of the program that delete a function can still be traced.

A few counters ride on the same wrappers: matrix sizes and nonzeros fed to
eliminations, distinct matrices per rank call, distinct (algebra, degree)
basis enumerations, term pairs multiplied in Element.__mul__ (counted
without a span, since products are far too frequent to time one by one)
and Pfaffian evaluations that hit a nonzero value.
"""

from __future__ import annotations

import importlib
import sys
import weakref
from collections import Counter
from time import perf_counter

# (metric name, module, attribute path); the layer is the module.
TARGETS = [
    ("cli.main", "cli", "main"),
    ("documents.parse_document", "documents", "parse_document"),
    ("documents.emit_document", "documents", "emit_document"),
    ("reports.render", "reports", "render"),
    ("lie_algebras.validate", "lie_algebras", "validate"),
    ("lie_algebras.ce_model", "lie_algebras", "ce_model"),
    ("exterior.monomials_of_degree", "exterior", "GradedAlgebra.monomials_of_degree"),
    ("exterior.derivation", "exterior", "Derivation.__call__"),
    ("exterior.flatness_witness", "exterior", "FreeDGA.flatness_witness"),
    ("exterior.morphism", "exterior", "AlgebraMorphism.__call__"),
    ("kernels.bareiss_rank", "kernels", "bareiss_rank"),
    ("linalg.rank", "linalg", "rank"),
    ("linalg.rref", "linalg", "rref"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("linalg.solve", "linalg", "solve"),
    ("linalg.clear_row_denominators", "linalg", "clear_row_denominators"),
    ("linalg.ColumnReducer.add", "linalg", "ColumnReducer.add"),
    ("cohomology.DegreeSlice", "cohomology", "DegreeSlice.__init__"),
    ("cohomology.betti", "cohomology", "Cohomology.betti"),
    ("cohomology.basis", "cohomology", "Cohomology.basis"),
    ("cohomology.reduce", "cohomology", "CohomologyBasis.reduce"),
    ("cohomology.cup", "cohomology", "Cohomology.cup"),
    ("cohomology.poincare_check", "cohomology", "poincare_check"),
    ("symplectic.closed_two_form_basis", "symplectic", "closed_two_form_basis"),
    ("symplectic.find_symplectic", "symplectic", "find_symplectic"),
    ("symplectic.pfaffian", "symplectic", "pfaffian"),
    ("symplectic.is_symplectic", "symplectic", "is_symplectic"),
    ("symplectic.hard_lefschetz", "symplectic", "hard_lefschetz"),
    ("bundles.TwistedModel", "bundles", "TwistedModel.__init__"),
    ("bundles.forcing_check", "bundles", "forcing_check"),
    ("bundles.total_betti", "bundles", "total_betti"),
    ("bundles.csplit_compare", "bundles", "csplit_compare"),
    ("bundles.hamiltonian_obstruction", "bundles", "hamiltonian_obstruction"),
]
LAYERS = sorted({module for _, module, _ in TARGETS})
ELIMINATIONS = {"linalg.rank", "linalg.rref", "linalg.nullspace", "linalg.solve"}

# span fields
NAME, START, END, PARENT, HOOK = range(5)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and merged, so
    overlapping or out-of-range children never count twice. Time spent in
    the tracer's own hooks (field HOOK) is not the span's work either.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for idx, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for a, b in sorted(children.get(idx, ())):
            a, b = max(a, reach), min(b, s[END])
            if b > a:
                covered += b - a
                reach = b
        out.append(s[END] - s[START] - covered - s[HOOK])
    return out


def _matrix_stats(rows):
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    nnz = sum(1 for row in rows for x in row if x)
    return nrows * ncols, nnz


class Tracer:
    """Patches nilsplit in place while installed; one instance per traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._rank_keys: set = set()
        self._bases: set = set()
        self._algebra_ids = weakref.WeakKeyDictionary()

    # -- hooks: counters measured where the work happens ----------------------

    def _hook(self, name: str, args) -> None:
        if name in ELIMINATIONS:
            parent = self.spans[self._stack[-1]][NAME] if self._stack else None
            if parent in ELIMINATIONS:
                return  # the outer elimination already counted this matrix
            rows = args[0]
            entries, nnz = _matrix_stats(rows)
            self.counters["linalg.entries_in"] += entries
            self.counters["linalg.nnz_in"] += nnz
            if name == "linalg.rank":
                self._rank_keys.add((len(rows), hash(tuple(map(tuple, rows)))))
        elif name == "exterior.monomials_of_degree":
            alg = args[0]
            serial = self._algebra_ids.setdefault(alg, len(self._algebra_ids))
            self._bases.add((serial, args[1]))

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        hooked = name in ELIMINATIONS or name == "exterior.monomials_of_degree"
        pfaffian = name == "symplectic.pfaffian"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            spans.append(span)
            span[START] = perf_counter()
            if hooked:
                self._hook(name, args)
                span[HOOK] = perf_counter() - span[START]
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if pfaffian and result:
                counters["symplectic.pfaffian_hits"] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_products(self, mul, element_cls):
        counters = self.counters

        def __mul__(a, b):
            if type(b) is element_cls:
                counters["exterior.monomial_products"] += len(a.terms) * len(b.terms)
            return mul(a, b)

        return __mul__

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "nilsplit" or n.startswith("nilsplit.")]
        for name, module_name, path in TARGETS:
            try:
                module = importlib.import_module(f"nilsplit.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = owner.__dict__.get(attr) if owner is not None else None
            if fn is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn)
            if owner_name:
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            # a function may be bound under the same name in other modules
            # (`from .documents import parse_document`): patch every binding
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patches.append((m, key, fn))
                        setattr(m, key, wrapper)
        try:
            element = importlib.import_module("nilsplit.exterior").Element
            mul = element.__dict__["__mul__"]
        except (ImportError, AttributeError, KeyError):
            self.absent.append("exterior.monomial_products")
        else:
            self._patches.append((element, "__mul__", mul))
            element.__mul__ = self._count_products(mul, element)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer and per-function metrics of the spans recorded so far."""
        calls: Counter = Counter()
        busy: Counter = Counter()
        for span, own in zip(self.spans, self_times(self.spans)):
            calls[span[NAME]] += 1
            busy[span[NAME]] += own
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            names = [n for n, m, _ in TARGETS if m == layer]
            out[f"{layer}.self_s"] = (sum(busy[n] for n in names), "s")
            out[f"{layer}.calls"] = (sum(calls[n] for n in names), "count")
        for name, _, _ in TARGETS:
            out[f"{name}.self_s"] = (busy[name], "s")
            out[f"{name}.calls"] = (calls[name], "count")
        c = self.counters
        entries = c["linalg.entries_in"]

        def ratio(a, b):
            return a / b if b else 0.0

        out["linalg.rank.distinct_ratio"] = (ratio(len(self._rank_keys), calls["linalg.rank"]), "ratio")
        out["linalg.entries_in"] = (entries, "count")
        out["linalg.nnz_in"] = (c["linalg.nnz_in"], "count")
        out["linalg.density"] = (ratio(c["linalg.nnz_in"], entries), "ratio")
        out["exterior.basis_distinct_ratio"] = (
            ratio(len(self._bases), calls["exterior.monomials_of_degree"]), "ratio")
        out["exterior.monomial_products"] = (c["exterior.monomial_products"], "count")
        out["cohomology.slices_built"] = (calls["cohomology.DegreeSlice"], "count")
        out["symplectic.trial_hit_ratio"] = (
            ratio(c["symplectic.pfaffian_hits"], calls["symplectic.pfaffian"]), "ratio")
        out["bundles.twisted_models_built"] = (calls["bundles.TwistedModel"], "count")
        out["trace.spans"] = (len(self.spans), "count")
        out["trace.absent"] = (len(self.absent), "count")
        return out

    def subtree_share(self, root: str, target: str) -> tuple[float, float, int]:
        """(time in outermost `target` spans under `root` spans, time in
        outermost `root` spans, number of `target` calls under `root`)."""
        spans = self.spans
        root_time = target_time = 0.0
        count = 0
        for idx, s in enumerate(spans):
            if s[NAME] == root and not _has_ancestor(spans, idx, root):
                root_time += s[END] - s[START]
            elif s[NAME] == target and _has_ancestor(spans, idx, root):
                count += 1
                if not _has_ancestor(spans, idx, target):
                    target_time += s[END] - s[START]
        return target_time, root_time, count


def _has_ancestor(spans, idx: int, name: str) -> bool:
    p = spans[idx][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False
