"""Outside-in tracer for the coneforge layers.

``Tracer.install`` replaces public functions and methods with timing
wrappers, in every ``coneforge`` module namespace that bound them (so
``analysis.poly_product``, bound by ``from .cubic import poly_product``,
is wrapped along with ``cubic.poly_product``).  ``uninstall`` puts the
originals back.  Untraced runs never construct a Tracer.

Each wrapped call is a frame on one stack.  Its duration counts toward
the busy time of its key when no frame of the same key encloses it, and
its self time (duration minus the time of wrapped calls inside it)
toward its layer.  Frames of hot keys (scalar and polynomial arithmetic,
``Algebra.multiply``, ``numpy.einsum``) are only counted; every other
frame is also kept as a span (id, key, start, end, parent id, job) in
memory and written out by ``dump``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy

from coneforge import algebra, analysis, catalog, cli, cubic, document, numeric, polynomials
from coneforge import exactlinalg as xl
from coneforge.scalars import Scalar

# (owner, attribute, key, layer, hot)
TARGETS = (
    (Scalar, "__add__", "scalars.add", "scalars", True),
    (Scalar, "__sub__", "scalars.add", "scalars", True),
    (Scalar, "__rsub__", "scalars.add", "scalars", True),
    (Scalar, "__mul__", "scalars.mul", "scalars", True),
    (Scalar, "__truediv__", "scalars.div", "scalars", True),
    (Scalar, "__rtruediv__", "scalars.div", "scalars", True),
    (polynomials.Polynomial, "__mul__", "polynomials.mul", "polynomials", True),
    (polynomials, "divide_exact", "polynomials.divide", "polynomials", False),
    (cubic, "poly_product", "cubic.poly_product", "cubic", False),
    (cubic, "poly_pairing", "cubic.poly_pairing", "cubic", False),
    (xl, "mat_mul", "exactlinalg.mat_mul", "exactlinalg", False),
    (xl, "rref", "exactlinalg.rref", "exactlinalg", False),
    (xl, "ldl", "exactlinalg.ldl", "exactlinalg", False),
    (xl, "inverse", "exactlinalg.inverse", "exactlinalg", False),
    (xl, "determinant", "exactlinalg.determinant", "exactlinalg", False),
    (algebra.Algebra, "multiply", "algebra.multiply", "algebra", True),
    (algebra, "check_metrized", "algebra.check_metrized", "algebra", False),
    (algebra, "killing_form", "algebra.killing_form", "algebra", False),
    (algebra, "multilinearize", "algebra.multilinearize", "algebra", False),
    (analysis, "radial_hsiang_check", "analysis.radial", "analysis", False),
    (analysis, "nonradial_hsiang_check", "analysis.nonradial", "analysis", False),
    (analysis, "quasicomposition_check", "analysis.quasicomposition", "analysis", False),
    (analysis, "verify_polar", "analysis.polar", "analysis", False),
    (analysis, "killing_metrized_check", "analysis.killing", "analysis", False),
    (analysis, "pseudocomposition_check", "analysis.pseudocomposition", "analysis", False),
    (analysis, "degeneracy_check", "analysis.degeneracy", "analysis", False),
    (analysis, "full_report", "analysis.full_report", "analysis", False),
    (numeric, "orthonormal_frame", "numeric.orthonormal_frame", "numeric", False),
    (numeric, "structure_tensor", "numeric.structure_tensor", "numeric", False),
    (numeric, "find_idempotent", "numeric.find_idempotent", "numeric", False),
    (numeric, "peirce", "numeric.peirce", "numeric", False),
    (numpy, "einsum", "numpy.einsum", "numpy", True),
    (document, "load_algebra", "document.load", "document", False),
    (document, "from_document", "document.load", "document", False),
    (document, "dump_algebra", "document.dump", "document", False),
    (document, "to_document", "document.dump", "document", False),
    (catalog, "construct", "catalog.construct", "catalog", False),
    (catalog, "triple", "catalog.triple", "catalog", False),
    (cli, "main", "cli.main", "cli", False),
)


def _is_rational(value) -> bool:
    return not value.b if isinstance(value, Scalar) else isinstance(value, int)


class Tracer:
    """Counts, busy time, self time and spans of the wrapped calls."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.layer_busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.scalar_ops = 0
        self.rational_ops = 0
        self.terms_out = 0
        self.spans: list[tuple] = []
        self.job = None
        self._depth: dict[str, int] = defaultdict(int)
        self._stack: list[list] = [[0.0, None]]  # [child time, span id of the nearest kept frame]
        self._next_id = 0
        self._patches: list[tuple] = []
        self._origin = time.perf_counter()

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, key: str, layer: str, hot: bool):
        tracer = self
        perf = time.perf_counter
        calls, busy, layer_busy, self_time = self.calls, self.busy, self.layer_busy, self.self_time
        depth, stack, spans = self._depth, self._stack, self.spans
        scalar = layer == "scalars"
        poly_mul = key == "polynomials.mul"

        def traced(*args, **kwargs):
            calls[key] += 1
            if scalar:
                tracer.scalar_ops += 1
                if len(args) == 2 and _is_rational(args[0]) and _is_rational(args[1]):
                    tracer.rational_ops += 1
            parent = stack[-1]
            if hot:
                frame = [0.0, parent[1]]
            else:
                tracer._next_id += 1
                frame = [0.0, tracer._next_id]
            outer_key = depth[key] == 0
            outer_layer = depth[layer] == 0
            depth[key] += 1
            depth[layer] += 1
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                depth[key] -= 1
                depth[layer] -= 1
                elapsed = end - start
                if outer_key:
                    busy[key] += elapsed
                if outer_layer:
                    layer_busy[layer] += elapsed
                self_time[layer] += elapsed - frame[0]
                parent[0] += elapsed
                if not hot:
                    spans.append((frame[1], key, start, end, parent[1], tracer.job))
            if poly_mul and isinstance(result, polynomials.Polynomial):
                tracer.terms_out += len(result.terms)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "coneforge" or name.startswith("coneforge.")]
        for owner, attr, key, layer, hot in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, key, layer, hot)
            holders = [owner] if isinstance(owner, type) else [owner, *modules]
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, name, original))
                        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patches):
            setattr(holder, name, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        c, b = self.calls, self.busy
        ops = self.scalar_ops
        return {
            "scalars.mul_calls": c["scalars.mul"],
            "scalars.add_calls": c["scalars.add"],
            "scalars.div_calls": c["scalars.div"],
            "scalars.rational_frac": self.rational_ops / ops if ops else 0.0,
            "scalars.busy_s": self.layer_busy["scalars"],
            "polynomials.mul_calls": c["polynomials.mul"],
            "polynomials.mul_s": b["polynomials.mul"],
            "polynomials.terms_out": self.terms_out,
            "polynomials.divide_s": b["polynomials.divide"],
            "cubic.poly_product_calls": c["cubic.poly_product"],
            "cubic.poly_product_s": b["cubic.poly_product"],
            "cubic.poly_pairing_s": b["cubic.poly_pairing"],
            "exactlinalg.mat_mul_calls": c["exactlinalg.mat_mul"],
            "exactlinalg.mat_mul_s": b["exactlinalg.mat_mul"],
            "exactlinalg.rref_s": b["exactlinalg.rref"],
            "exactlinalg.ldl_s": b["exactlinalg.ldl"],
            "exactlinalg.inverse_s": b["exactlinalg.inverse"],
            "exactlinalg.determinant_s": b["exactlinalg.determinant"],
            "algebra.multiply_calls": c["algebra.multiply"],
            "algebra.multiply_s": b["algebra.multiply"],
            "algebra.check_metrized_calls": c["algebra.check_metrized"],
            "algebra.check_metrized_s": b["algebra.check_metrized"],
            "algebra.killing_form_s": b["algebra.killing_form"],
            "algebra.multilinearize_calls": c["algebra.multilinearize"],
            "algebra.multilinearize_s": b["algebra.multilinearize"],
            "analysis.radial_s": b["analysis.radial"],
            "analysis.nonradial_s": b["analysis.nonradial"],
            "analysis.quasicomposition_s": b["analysis.quasicomposition"],
            "analysis.polar_s": b["analysis.polar"],
            "analysis.killing_s": b["analysis.killing"],
            "analysis.pseudocomposition_s": b["analysis.pseudocomposition"],
            "analysis.degeneracy_s": b["analysis.degeneracy"],
            "analysis.full_report_s": b["analysis.full_report"],
            "analysis.self_s": self.self_time["analysis"],
            "numeric.orthonormal_frame_calls": c["numeric.orthonormal_frame"],
            "numeric.structure_tensor_calls": c["numeric.structure_tensor"],
            "numeric.structure_tensor_s": b["numeric.structure_tensor"],
            "numeric.find_idempotent_s": b["numeric.find_idempotent"],
            "numeric.peirce_s": b["numeric.peirce"],
            "numeric.einsum_calls": c["numpy.einsum"],
            "numeric.self_s": self.self_time["numeric"],
            "document.load_s": b["document.load"],
            "document.dump_s": b["document.dump"],
            "catalog.construct_s": b["catalog.construct"],
            "catalog.triple_s": b["catalog.triple"],
            "cli.self_s": self.self_time["cli"],
        }

    def dump(self, path: str) -> None:
        """Write the kept spans, times relative to the tracer's creation."""
        t0 = self._origin
        rows = [[sid, key, start - t0, end - t0, parent, job] for sid, key, start, end, parent, job in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["id", "name", "start_s", "end_s", "parent", "job"], "spans": rows}, handle)
