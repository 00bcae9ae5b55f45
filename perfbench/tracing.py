"""Outside-in span tracing of the sparsecones layers.

A :class:`Tracer` replaces each traced library function with a wrapper that
records one span per call: name, start, end, parent span and instance id.
Spans are kept in flat arrays in memory and written out when the run ends.
The wrappers are installed on every binding of the function: a function
imported by name into another module (``from .linalg import eig_sym``) is a
separate binding, so patching the defining module alone would miss those
calls.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

# (public name, defining module, attribute path).  A ``ConstraintSet``
# subclass is traced through its ``project`` method and named after its
# ``kind``, as in ``solvers.project.affine``.
TARGETS = (
    ("linalg.eig_sym", "linalg", "eig_sym"),
    ("linalg.check_symmetric", "linalg", "check_symmetric"),
    ("linalg.symmetrize", "linalg", "symmetrize"),
    ("linalg.null_intersection_basis", "linalg", "null_intersection_basis"),
    ("linalg.lp_cone_point", "linalg", "lp_cone_point"),
    ("vector_sets.top_s_nonneg", "vector_sets", "top_s_nonneg"),
    ("matrix_sets.project_psd_low_rank", "matrix_sets", "project_psd_low_rank"),
    ("matrix_sets.normal_cone_contains", "matrix_sets", "normal_cone_contains"),
    ("edm.HouseholderMap.apply", "edm", "HouseholderMap.apply"),
    ("edm.project_embedding_rank_core", "edm", "project_embedding_rank_core"),
    ("edm.generate_instance", "edm", "generate_instance"),
    ("edm.validate_completion_point", "edm", "validate_completion_point"),
    ("edm.is_edm", "edm", "is_edm"),
    ("edm.recover_points", "edm", "recover_points"),
    ("solvers.solve_dr", "solvers", "solve_dr"),
    ("solvers.complete_edm", "solvers", "complete_edm"),
    ("solvers.plant_sparse_instance", "solvers", "plant_sparse_instance"),
    ("solvers.project.mask-nonneg", "solvers", "FixedEntriesNonnegSet.project"),
    ("solvers.project.embedding-rank", "solvers", "EmbeddingRankSet.project"),
    ("solvers.project.affine", "solvers", "AffineSet.project"),
    ("solvers.project.nonneg-sparse", "solvers", "NonnegSparseSet.project"),
    ("regularity.certify_edm_completion", "regularity", "certify_edm_completion"),
    ("regularity.certify_affine_sparse", "regularity", "certify_affine_sparse"),
)

PACKAGE = "sparsecones"


def _resolve(module: str, path: str):
    """(owner, attribute, function) for a target, or None if the library
    no longer defines it."""
    owner = sys.modules.get(f"{PACKAGE}.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    # a method must be defined by the class itself, so that restoring it
    # does not leave a copy of an inherited one behind
    fn = vars(owner).get(attr) if owner is not None else None
    return None if fn is None else (owner, attr, fn)


def _module_bindings(fn):
    """Every (module, attribute) of the package bound to ``fn``."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                yield mod, attr


class Tracer:
    """Span recorder for one traced pass.  Use as a context manager: the
    wrappers are installed on entry and every original binding is restored
    on exit, also when the pass raises."""

    def __init__(self):
        self.names: list = [name for name, _, _ in TARGETS]
        self.missing: list = []
        self.instance = -1
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.inst = array("i")
        self._stack: list = []
        self._sites: list = []  # (owner, attribute, original)

    def _wrap(self, nid: int, fn):
        name_id, start, end = self.name_id, self.start, self.end
        parent, inst, stack = self.parent, self.inst, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            inst.append(self.instance)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return wrapper

    def __enter__(self):
        try:
            for nid, (name, module, path) in enumerate(TARGETS):
                found = _resolve(module, path)
                if found is None:
                    self.missing.append(name)
                    continue
                owner, attr, fn = found
                wrapper = self._wrap(nid, fn)
                sites = [(owner, attr)]
                if not isinstance(owner, type):
                    sites = list(_module_bindings(fn))
                for site_owner, site_attr in sites:
                    self._sites.append((site_owner, site_attr, fn))
                    setattr(site_owner, site_attr, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._sites):
            setattr(owner, attr, fn)

    def restored(self) -> bool:
        """Whether every binding the tracer patched holds its original."""
        return all(getattr(owner, attr) is fn for owner, attr, fn in self._sites)

    def __len__(self) -> int:
        return len(self.start)

    def aggregate(self) -> dict:
        """Per name: ``calls``, ``self_s`` (span time minus the time its
        child spans cover), ``span_s`` and ``calls_in_dr`` (calls made
        inside ``solvers.solve_dr``).

        Spans are stored in start order, so a parent always precedes its
        children and one forward pass settles every ancestor question.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        in_dr = [False] * n
        dr_id = self.names.index("solvers.solve_dr")
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                in_dr[i] = in_dr[p] or self.name_id[p] == dr_id
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        span_s = [0.0] * len(self.names)
        calls_in_dr = [0] * len(self.names)
        for i in range(n):
            nid = self.name_id[i]
            calls[nid] += 1
            self_s[nid] += dur[i] - child[i]
            span_s[nid] += dur[i]
            calls_in_dr[nid] += in_dr[i]
        return {
            "calls": dict(zip(self.names, calls)),
            "self_s": dict(zip(self.names, self_s)),
            "span_s": dict(zip(self.names, span_s)),
            "calls_in_dr": dict(zip(self.names, calls_in_dr)),
        }

    def save(self, path) -> None:
        """Write the spans as a compressed ``.npz``: ``names`` and the
        per-span arrays ``name_id``, ``start``, ``end``, ``parent`` (-1 for a
        root) and ``instance``."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            instance=np.frombuffer(self.inst, dtype=np.int32),
        )
