"""Span tracing of triqent's layers from outside the package.

``Tracer.install()`` replaces each layer's public functions at the
module bindings their callers use (``measures.eig_hermitian``,
``linalg.jacobi_eigh``, ...) with wrappers that record one span per
call: name, start, end, parent and the tag of the benchmark call it
belongs to.  ``uninstall()`` puts the originals back.  Nothing under
``src/`` changes, and a binding that no longer exists is skipped, so
the tracer keeps working when a layer is removed.

Spans are kept in flat arrays and reduced to per-layer metrics only
when the traced pass is over.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter

import numpy as np

#: span name -> the "module.attribute" bindings it wraps
SPANS = {
    "cli.main": ["cli.main"],
    "cli.load_state_file": ["cli.load_state_file"],
    "families.sweep": ["cli.sweep"],
    "families.make_state": ["families.make_state"],
    "families.oracle": ["families.oracle"],
    "classify.classify_pure": ["cli.classify_pure", "families.classify_pure"],
    "classify.classify_mixed": ["cli.classify_mixed", "families.classify_mixed"],
    "measures.measure_set": ["cli.measure_set", "classify.measure_set", "families.measure_set"],
    "measures.negativity": ["measures.negativity"],
    "measures.concurrence_2q": ["measures.concurrence_2q"],
    "measures.von_neumann_entropy": ["measures.von_neumann_entropy"],
    "gsd.gsd": ["gsd.gsd", "cli.gsd"],
    "gsd.classify_gsd_pattern": ["gsd.classify_gsd_pattern", "cli.classify_gsd_pattern"],
    "states.PureState": ["states.PureState.__post_init__"],
    "states.DensityMatrix": ["states.DensityMatrix.__post_init__"],
    "states.to_density": ["measures.to_density", "classify.to_density", "families.to_density"],
    "states.partial_trace": ["measures.partial_trace", "classify.partial_trace"],
    "states.partial_transpose": ["measures.partial_transpose"],
    "states.sample_haar_pure": ["cli.sample_haar_pure"],
    "linalg.sqrt_psd": ["measures.sqrt_psd"],
    "linalg.svd_2x2": ["gsd.svd_2x2"],
    # the two below get a ".d<n>" suffix from the matrix size
    "linalg.eig_hermitian": [
        "linalg.eig_hermitian", "states.eig_hermitian", "measures.eig_hermitian", "gsd.eig_hermitian",
    ],
    "kernels.jacobi_eigh": ["linalg.jacobi_eigh"],
}
SIZED = ("linalg.eig_hermitian", "kernels.jacobi_eigh")
VALIDATIONS = ("states.PureState", "states.DensityMatrix")
REDUCTIONS = ("states.partial_trace", "states.partial_transpose")
DERIVING = ("states.partial_trace", "states.to_density")
DIMS = (2, 4, 8)


def _resolve(binding: str):
    """(owner, attribute) of a "module.attr" or "module.Class.attr" binding."""
    module, *path, attr = binding.split(".")
    owner = importlib.import_module(f"triqent.{module}")
    for name in path:
        owner = getattr(owner, name, None)
    return owner, attr


class Tracer:
    """Records spans while installed; ``tag`` names the benchmark call in progress."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.tag = array("i")
        self.start = array("d")
        self.end = array("d")
        self.sweeps: Counter = Counter()  # jacobi sweeps by matrix size
        self._stack = [-1]
        self._tag = -1
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.tag.append(self._tag)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def call(self, tag: str, fn, *args):
        """Run one benchmark call under a root ``bench.call`` span tagged ``tag``."""
        self._tag = self._id(tag)
        idx = self.open("bench.call")
        try:
            return fn(*args)
        finally:
            self.close(idx)

    def _wrap(self, span: str, fn):
        sized = span in SIZED
        is_kernel = span == "kernels.jacobi_eigh"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = span
            if sized:
                a = args[0] if args else kwargs["a"]
                name = f"{span}.d{np.shape(a)[-1]}"
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if is_kernel:
                self.sweeps[np.shape(args[0])[-1]] += int(result[2])
            return result

        return wrapper

    def install(self) -> None:
        for span, bindings in SPANS.items():
            for binding in bindings:
                owner, attr = _resolve(binding)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    continue
                setattr(owner, attr, self._wrap(span, original))
                self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def metrics(self, units: float, units_by_tag: Counter) -> tuple[dict, dict]:
        """Per-layer metrics, and eigensolves per unit of work by call tag.

        Counts and the ``*.self_ms`` times are per unit of work (state, grid
        point or call); a time named after a function (``eig_us``,
        ``form_us``, ``load_state_file_ms``, ...) is per call of that
        function; ``jacobi_sweeps`` is per solve; shares are of the traced
        calls' time.
        """
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        tag = np.frombuffer(self.tag, dtype=np.int32)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        parent_name = np.where(has_parent, name[parent], -1)
        layer = np.array([s.split(".")[0] for s in self.names])[name]

        def ids(*spans):
            return [self._ids[s] for s in spans if s in self._ids]

        def mask(*spans, of=name):
            return np.isin(of, ids(*spans))

        def mean_us(m):
            return float(dur[m].mean() * 1e6) if m.any() else 0.0

        # an eigensolve is validation work if any ancestor validates a state;
        # parents are recorded before their children, so one forward pass does
        is_validation = mask(*VALIDATIONS)
        validating = is_validation.copy()
        for i in np.flatnonzero(has_parent):
            validating[i] |= validating[parent[i]]

        wall = dur[mask("bench.call")].sum()
        eig_by_dim = {d: mask(f"linalg.eig_hermitian.d{d}") for d in DIMS}
        eig = np.logical_or.reduce(list(eig_by_dim.values()))
        reductions = mask(*REDUCTIONS)
        forms = mask("gsd.gsd")
        per = 1.0 / units
        out = {}
        for d in DIMS:
            solves = mask(f"kernels.jacobi_eigh.d{d}").sum()
            out[f"kernels.jacobi_sweeps.d{d}"] = self.sweeps[d] / solves if solves else 0.0
        for d in DIMS:
            out[f"linalg.eig_calls.d{d}"] = eig_by_dim[d].sum() * per
        for d in DIMS:
            out[f"linalg.eig_us.d{d}"] = mean_us(eig_by_dim[d])
        out["linalg.eig_share"] = dur[eig].sum() / wall
        out["linalg.eig_validation_frac"] = validating[eig].mean() if eig.any() else 0.0
        out["states.validations"] = is_validation.sum() * per
        out["states.derived_validations"] = (is_validation & mask(*DERIVING, of=parent_name)).sum() * per
        out["states.validate_share"] = dur[is_validation].sum() / wall
        out["states.reductions"] = reductions.sum() * per
        out["states.reduction_share"] = self_time[reductions].sum() / wall
        out["measures.measure_set_calls"] = mask("measures.measure_set").sum() * per
        out["measures.negativity_calls"] = mask("measures.negativity").sum() * per
        out["measures.concurrence_calls"] = mask("measures.concurrence_2q").sum() * per
        out["measures.entropy_calls"] = mask("measures.von_neumann_entropy").sum() * per
        out["measures.self_ms"] = self_time[layer == "measures"].sum() * 1e3 * per
        out["classify.self_ms"] = self_time[layer == "classify"].sum() * 1e3 * per
        out["gsd.form_us"] = mean_us(forms)
        out["gsd.pattern_us"] = mean_us(mask("gsd.classify_gsd_pattern"))
        svd_in_gsd = mask("linalg.svd_2x2") & mask("gsd.gsd", of=parent_name)
        out["gsd.svd_per_form"] = svd_in_gsd.sum() / forms.sum() if forms.any() else 0.0
        out["families.make_state_us"] = mean_us(mask("families.make_state"))
        out["families.oracle_us"] = mean_us(mask("families.oracle"))
        out["cli.load_state_file_ms"] = mean_us(mask("cli.load_state_file")) / 1e3
        out["cli.self_share"] = self_time[layer == "cli"].sum() / wall

        by_tag = {
            t: [(eig_by_dim[d] & (tag == self._ids[t])).sum() / n_units for d in DIMS]
            for t, n_units in units_by_tag.items()
        }
        return {k: float(v) for k, v in out.items()}, by_tag
