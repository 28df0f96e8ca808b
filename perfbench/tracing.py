"""Per-layer tracing from outside the program.

`Tracer.install` wraps the public functions and methods of each cliffkit
layer by patching the name in every loaded cliffkit module that holds it
(and on the class, for methods); `uninstall` restores the originals.
Wrappers are inert unless `enabled` is set, which the runner does only
around the timed `cli.main` calls, so set-up and correctness gates stay
out of the numbers.

Each wrapped call pushes a frame; on return its duration is added to the
parent frame, which gives self time (duration minus wrapped children).
A layer's time is counted only for its outermost frame, so nested calls
of one layer (Psi aggregates calling a level) are not counted twice.
Calls at coarse boundaries are also kept as spans (request, id, parent,
name, start, end) in memory and written out by `write_spans`; the hot
per-term calls (Multivector product and construction, partial
derivatives) are only aggregated, which keeps the trace small.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from math import comb
from time import perf_counter


class Tracer:
    def __init__(self):
        self.enabled = False
        self.request = 0
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_s: Counter = Counter()
        self.extra: Counter = Counter()
        self.depth: Counter = Counter()
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._matrices: dict[int, tuple[object, int]] = {}
        self._opmats_seen: set = set()

    # -- bookkeeping --------------------------------------------------------

    def begin_request(self) -> None:
        """Start of one CLI call: new span group and a fresh duplicate-matrix scope."""
        self.request += 1
        self._opmats_seen.clear()

    def timed(self, key, fn, count=1, before=None, after=None, span=True):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            tracer.depth[key] += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.depth[key] -= 1
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                tracer.calls[key] += count
                tracer.self_s[key] += duration - frame[1]
                if not tracer.depth[key]:
                    tracer.total[key] += duration
                if span:
                    tracer.spans.append((tracer.request, frame[0], parent[0] if parent else 0, key, start, end))
            if after is not None:
                after(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.calls[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -------------------------------------------------------------

    def _patch_attr(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def _patch_function(self, fn, wrapper) -> None:
        """Replace `fn` under every name that binds it in a loaded cliffkit module."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "cliffkit" or mod_name.startswith("cliffkit.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch_attr(module, attr, wrapper)

    def install(self, program) -> None:
        algebra, fields, parser, psi = program.algebra, program.fields, program.parser, program.psi
        linalg, solver, verify = program.linalg, program.solver, program.verify
        Multivector, RationalMatrix = algebra.Multivector, linalg.RationalMatrix

        def mul_pairs(a, b, **_):
            if isinstance(b, Multivector):
                self.extra["algebra.mul_pairs"] += len(a) * len(b)

        def parse_chars(text, m, **_):
            self.extra["parser.chars"] += len(text)

        def level_terms(phi, psi_set, k, a, **_):
            self.extra["psi.set_terms"] += comb(phi.m, k) if 0 < k <= phi.m else 0

        def subset_terms(phi, psi_set, subset, a, **_):
            self.extra["psi.set_terms"] += len(set(subset))

        def witness_confirm(*_, **__):
            if self.depth["solver.witness"]:
                self.calls["solver.witness_confirms"] += 1

        def cells(key):
            def before(matrix, *_, **__):
                self.extra[key] += matrix.nrows * matrix.ncols
                self._note_density(matrix)

            return before

        def opmat_built(result, op, space, **_):
            rows = result.matrix.rows
            fingerprint = (op.name, space.m, space.degree, hash(tuple(tuple(row) for row in rows)))
            if fingerprint in self._opmats_seen:
                self.calls["solver.opmat_dup_builds"] += 1
            self._opmats_seen.add(fingerprint)

        def witness_found(result, *_, **__):
            if result is not None:
                self.calls["solver.witness_found"] += 1

        self._patch_attr(Multivector, "__mul__", self.timed("algebra.mul", Multivector.__mul__, before=mul_pairs, span=False))
        self._patch_attr(Multivector, "__init__", self.counted("algebra.construct", Multivector.__init__))
        structural_set = program.structural.StructuralSet
        self._patch_attr(structural_set, "__init__", self.timed("structural.build", structural_set.__init__))
        for fn in (fields.dirac_left, fields.dirac_right):
            self._patch_function(fn, self.timed("fields.dirac", fn))
        self._patch_attr(fields.PolyField, "partial", self.timed("fields.partial", fields.PolyField.partial, span=False))
        self._patch_function(parser.parse_field, self.timed("parser.parse", parser.parse_field, before=parse_chars))
        self._patch_function(parser.format_field, self.timed("parser.format", parser.format_field))
        self._patch_function(psi.apply_psi_k, self.timed("psi.apply", psi.apply_psi_k, before=level_terms))
        self._patch_function(psi.apply_psi_subset1, self.timed("psi.apply", psi.apply_psi_subset1, before=subset_terms))
        for fn in (psi.apply_psi_plus, psi.apply_psi_minus):
            self._patch_function(fn, self.timed("psi.apply", fn, count=0))
        self._patch_function(psi.psi_matrix, self.timed("psi.matrix", psi.psi_matrix))
        classify_fn = program.classify.classify
        self._patch_function(classify_fn, self.timed("classify", classify_fn, before=witness_confirm))
        for method, key in (("rank", "linalg.rank"), ("nullspace", "linalg.nullspace"), ("mat_vec", "linalg.mat_vec")):
            original = getattr(RationalMatrix, method)
            self._patch_attr(RationalMatrix, method, self.timed(key, original, before=cells(key + "_cells")))
        self._patch_function(solver.operator_matrix, self.timed("solver.opmat", solver.operator_matrix, after=opmat_built))
        self._patch_function(solver.class_dimensions, self.timed("solver.dims", solver.class_dimensions))
        self._patch_function(solver.find_region_witness,
                             self.timed("solver.witness", solver.find_region_witness, after=witness_found))
        self._patches.append((verify, "CHECKS", list(verify.CHECKS)))
        verify.CHECKS[:] = [(name, self.timed(f"verify.check.{name}", fn)) for name, fn in verify.CHECKS]
        self._patch_attr(program.cli, "main", self.timed("cli", program.cli.main))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            if name == "CHECKS":
                owner.CHECKS[:] = original
            else:
                setattr(owner, name, original)

    def _note_density(self, matrix) -> None:
        # Keep a reference so the id stays unique while the trace runs.
        if id(matrix) not in self._matrices:
            nnz = sum(1 for row in matrix.rows for x in row if x)
            self._matrices[id(matrix)] = (matrix, nnz)

    # -- results ----------------------------------------------------------------

    def metrics(self, check_names: list[str], scale: float = 1.0) -> dict[str, float]:
        """Per-layer counts, and times multiplied by `scale` (reference seconds per second)."""
        cells = sum(m.nrows * m.ncols for m, _ in self._matrices.values())
        nnz = sum(n for _, n in self._matrices.values())
        c, e = self.calls, self.extra
        t = Counter({key: value * scale for key, value in self.total.items()})
        out = {
            "algebra.mul_calls": c["algebra.mul"],
            "algebra.mul_pairs": e["algebra.mul_pairs"],
            "algebra.mul_s": t["algebra.mul"],
            "algebra.construct_calls": c["algebra.construct"],
            "structural.sets_built": c["structural.build"],
            "structural.build_s": t["structural.build"],
            "fields.dirac_calls": c["fields.dirac"],
            "fields.dirac_s": t["fields.dirac"],
            "fields.partial_calls": c["fields.partial"],
            "fields.partial_s": t["fields.partial"],
            "parser.parse_calls": c["parser.parse"],
            "parser.parse_s": t["parser.parse"],
            "parser.format_s": t["parser.format"],
            "parser.chars": e["parser.chars"],
            "psi.apply_calls": c["psi.apply"],
            "psi.set_terms": e["psi.set_terms"],
            "psi.apply_s": t["psi.apply"],
            "psi.matrix_builds": c["psi.matrix"],
            "psi.matrix_s": t["psi.matrix"],
            "classify.calls": c["classify"],
            "classify.s": t["classify"],
            "linalg.rank_calls": c["linalg.rank"],
            "linalg.rank_s": t["linalg.rank"],
            "linalg.rank_cells": e["linalg.rank_cells"],
            "linalg.nullspace_calls": c["linalg.nullspace"],
            "linalg.nullspace_self_s": self.self_s["linalg.nullspace"] * scale,
            "linalg.mat_vec_calls": c["linalg.mat_vec"],
            "linalg.mat_vec_s": t["linalg.mat_vec"],
            "linalg.mat_vec_cells": e["linalg.mat_vec_cells"],
            "linalg.density": nnz / cells if cells else 0.0,
            "solver.opmat_builds": c["solver.opmat"],
            "solver.opmat_dup_builds": c["solver.opmat_dup_builds"],
            "solver.opmat_s": t["solver.opmat"],
            "solver.dims_s": t["solver.dims"],
            "solver.witness_s": t["solver.witness"],
            "solver.witness_confirms": c["solver.witness_confirms"],
            "solver.witness_found": c["solver.witness_found"],
            "solver.witness_searches": c["solver.witness"],
            "cli.overhead_s": self.self_s["cli"] * scale,
        }
        for name in check_names:
            out[f"verify.check.{name}_s"] = t[f"verify.check.{name}"]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for request, span_id, parent, key, start, end in self.spans:
                fh.write(json.dumps({"request": request, "id": span_id, "parent": parent,
                                     "name": key, "start": start, "end": end}) + "\n")
