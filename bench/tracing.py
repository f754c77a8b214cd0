"""Layer spans recorded from outside the package.

`Tracer.install()` replaces each traced entry point of the waverep modules
with a wrapper that records a span (name, start, end, parent span, report
id) and the entry point's work counters.  Modules bind each other's
functions with ``from ... import``, so a function is replaced in every
waverep namespace that holds it, not only in its home module.  Spans stay
in memory until the run ends.

Time spent in code that has no wrapper (LaurentPoly arithmetic, private
helpers) counts toward the self time of the nearest traced caller.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "serialize", "fixtures", "laurent", "filterbank", "cuntz", "cascade",
          "wold", "permutative", "dilation", "index")

# Entry points beyond the public module-level functions: (module,
# qualified name, layer).  Evaluation and cycle enumeration are methods,
# the Wold grid solve is private, and reading an input file is decoding
# the wire format, so it belongs to serialize.
EXTRA_ENTRY_POINTS = (
    ("laurent", "LaurentPoly._evaluate_unchecked", "laurent"),
    ("laurent", "CircleGrid.cycles", "laurent"),
    ("wold", "_grid_eigendata", "wold"),
    ("dilation", "CoisometryFamily.__init__", "dilation"),
    ("cli", "_load_json", "serialize"),
)

# Not traced: the console entry point (it exits the process) and a type
# test cheaper than the wrapper around it.
SKIPPED = {("cli", "main"), ("filterbank", "filter_kind")}


def _window_modes(args, kwargs, out):
    window = args[1] if len(args) > 1 else kwargs.get("window", 64)
    if isinstance(window, tuple):
        return {"permutative.window_modes": window[1] - window[0] + 1}
    return {"permutative.window_modes": 2 * abs(window) + 1}


def _product_points(args, kwargs, out):
    depth = args[3] if len(args) > 3 else kwargs["depth"]
    return {"cascade.product_points": out.size * depth}


# Work counters, keyed by entry point; each returns increments.
COUNTERS = {
    "laurent.LaurentPoly._evaluate_unchecked":
        lambda a, k, out: {"laurent.eval_points": getattr(a[1], "size", 1)},
    "laurent.CircleGrid.cycles": lambda a, k, out: {"laurent.cycle_points": a[0].M},
    "filterbank.values_on_coset":
        lambda a, k, out: {"filterbank.coset_calls": 1, "filterbank.coset_points": a[1] * a[2].M},
    "cuntz.apply_filter_adjoint": lambda a, k, out: {"cuntz.adjoint_calls": 1},
    "cuntz.apply_grid_adjoint": lambda a, k, out: {"cuntz.adjoint_calls": 1},
    "cascade.truncated_product": _product_points,
    "wold._grid_eigendata": lambda a, k, out: {"wold.grid_points": a[1].M},
    "permutative.solve_coboundary": lambda a, k, out: {"permutative.coboundary_points": a[0].grid.M},
    "permutative.decompose_monomial": _window_modes,
    "dilation.gram_matrix": lambda a, k, out: {"dilation.gram_words": out.n_words},
    "dilation.fock_embedding": lambda a, k, out: {"dilation.fock_entries": out.fock_dim * a[0].dim},
    "index.combined_isometry_apply": lambda a, k, out: {"index.apply_calls": 1},
    "index.spectral_solutions":
        lambda a, k, out: {"index.window_dim": 2 * out.window + 1, "index.solutions": len(out.solutions)},
    "cli._load_json": lambda a, k, out: {"serialize.bytes_in": os.path.getsize(a[0])},
}

# The workload on which each entry point must record spans; a wrapper that
# the program bypasses then fails the traced run instead of reading zero.
HOME = {
    "banks": (
        "cli.run", "cli.cmd_check", "cli.cmd_complete", "cli.cmd_cascade", "cli.cmd_wold",
        "cli.cmd_fixtures", "cli._load_json", "serialize.bank_from_dict",
        "serialize.filter_from_dict", "serialize.bank_to_dict", "fixtures.fixture_bank",
        "fixtures.haar", "fixtures.db4", "fixtures.shannon", "laurent.LaurentPoly._evaluate_unchecked",
        "filterbank.check_bank", "filterbank.values_on_coset", "filterbank.complete_filterbank",
        "filterbank.unitarity_residual", "cascade.scaling_hat", "cascade.truncated_product",
        "cascade.per_residual", "cascade.mother_hat", "wold.wavelet_shift_check",
        "wold.wold_analysis"),
    "grid-data": (
        "cli.run", "cli.cmd_equiv", "cli.cmd_wold", "cli.cmd_decompose", "cli._load_json",
        "serialize.gridfunction_from_dict", "serialize.gridfunction_to_dict",
        "serialize.filter_from_dict", "laurent.CircleGrid.cycles", "permutative.solve_coboundary",
        "permutative.equivalence_check", "permutative.decompose_monomial", "wold.wold_analysis",
        "wold._grid_eigendata", "wold.isometry_residual"),
    "spectral": (
        "cli.run", "cli.cmd_index", "cli.cmd_dilate", "cli.cmd_wold", "cli._load_json",
        "serialize.family_from_dict", "serialize.bank_from_dict", "serialize.poly_to_dict",
        "fixtures.fixture_bank", "index.spectral_solutions", "index.combined_isometry_apply",
        "index.pairing", "dilation.gram_matrix", "dilation.fock_embedding",
        "dilation.purity_diagnostics", "dilation.CoisometryFamily.__init__",
        "cuntz.apply_filter_adjoint", "wold.range_projection_norms",
        "laurent.LaurentPoly._evaluate_unchecked"),
}


def entry_points() -> list:
    """(module, qualified name, layer) of every traced entry point."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"waverep.{layer}"]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__ and (layer, name) not in SKIPPED):
                out.append((layer, name, layer))
    out.extend(EXTRA_ENTRY_POINTS)
    return out


class Tracer:
    def __init__(self):
        self.names: list = []
        self.layers: list = []
        self.spans: list = []  # [name id, start, end, parent span, report id]
        self.counts: defaultdict = defaultdict(int)
        self.stack: list = []
        self.report = None
        self.missing: list = []  # entry points the package no longer has
        self._restore: list = []

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name_id: int, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            rec = [name_id, 0.0, 0.0, stack[-1] if stack else -1, tracer.report]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counter is not None:
                for key, inc in counter(args, kwargs, out).items():
                    tracer.counts[key] += inc
            return out

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "waverep" or k.startswith("waverep."))]
        for module, qualname, layer in entry_points():
            name = f"{module}.{qualname}"
            owner = sys.modules[f"waverep.{module}"]
            cls_name, _, attr = qualname.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            self.names.append(name)
            self.layers.append(layer)
            wrapper = self._wrap(original, len(self.names) - 1, COUNTERS.get(name))
            if cls_name:
                setattr(owner, attr, wrapper)
                self._restore.append((owner, attr, original))
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- summaries -------------------------------------------------------------

    def unhit(self, workload: str) -> list:
        """Home entry points of a workload that recorded no span."""
        hit = {self.names[s[0]] for s in self.spans}
        return [name for name in HOME[workload] if name not in hit]

    def layer_metrics(self, passes: int, report_bytes: int) -> dict:
        """Per-layer metrics, each per pass of the workload's mix."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        entries = defaultdict(int)
        for i, s in enumerate(self.spans):
            name, layer = self.names[s[0]], self.layers[s[0]]
            dur = s[2] - s[1]
            self_s[layer] += dur - child[i]
            total_s[name] += dur
            if s[3] < 0 or self.layers[self.spans[s[3]][0]] != layer:
                entries[layer] += 1
        c = self.counts
        apply_calls = c["index.apply_calls"]
        window_dim = c["index.window_dim"]
        solutions = c["index.solutions"]
        candidates = apply_calls - window_dim - solutions
        raw = {
            "laurent.eval_s": total_s["laurent.LaurentPoly._evaluate_unchecked"],
            "laurent.eval_points": c["laurent.eval_points"],
            "laurent.cycles_s": total_s["laurent.CircleGrid.cycles"],
            "laurent.cycle_points": c["laurent.cycle_points"],
            "filterbank.self_s": self_s["filterbank"],
            "filterbank.coset_calls": c["filterbank.coset_calls"],
            "filterbank.coset_points": c["filterbank.coset_points"],
            "cuntz.self_s": self_s["cuntz"],
            "cuntz.adjoint_calls": c["cuntz.adjoint_calls"],
            "cascade.self_s": self_s["cascade"],
            "cascade.product_points": c["cascade.product_points"],
            "wold.self_s": self_s["wold"],
            "wold.grid_points": c["wold.grid_points"],
            "permutative.self_s": self_s["permutative"],
            "permutative.coboundary_points": c["permutative.coboundary_points"],
            "permutative.window_modes": c["permutative.window_modes"],
            "dilation.gram_s": total_s["dilation.gram_matrix"],
            "dilation.gram_words": c["dilation.gram_words"],
            "dilation.fock_s": total_s["dilation.fock_embedding"],
            "dilation.fock_entries": c["dilation.fock_entries"],
            "dilation.purity_s": total_s["dilation.purity_diagnostics"],
            "index.self_s": self_s["index"],
            "index.window_dim": window_dim,
            "index.apply_calls": apply_calls,
            "index.solutions": solutions,
            "serialize.self_s": self_s["serialize"],
            "serialize.calls": entries["serialize"],
            "serialize.bytes_in": c["serialize.bytes_in"],
            "cli.self_s": self_s["cli"],
            "cli.report_bytes": report_bytes,
            "fixtures.self_s": self_s["fixtures"],
            "fixtures.builds": entries["fixtures"],
        }
        out = {k: v / passes for k, v in raw.items()}
        # a ratio, not a per-pass amount
        out["index.validated_frac"] = solutions / candidates if candidates > 0 else 0.0
        return out

    def dump(self) -> dict:
        return {"names": self.names, "layers": self.layers,
                "span_fields": ["name", "start", "end", "parent", "report"], "spans": self.spans}
