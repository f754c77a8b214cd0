"""JSON encodings for the package's value types and reports.

Wire formats (stable):

* LaurentPoly        {"min_degree": int, "coeffs": [[re, im], ...]}
* GridFunction       {"M": int, "values": [[re, im], ...]}
* FilterBank         {"scale": N, "kind": "poly"|"grid", "filters": [...]}
* CoisometryFamily   {"N": int, "dim": int, "V": [matrix, ...], "Omega": vector}
  with matrices as nested [[ [re, im], ... ], ...] rows and vectors as
  [[re, im], ...].

Callable-kind banks have no sample-free encoding; exporting one samples it
onto a grid (size divisible by the scale) and marks kind "grid".
"""

from __future__ import annotations

import numpy as np

from .dilation import CoisometryFamily
from .filterbank import FilterBank, default_check_grid
from .laurent import CircleGrid, GridFunction, LaurentPoly


class InputError(ValueError):
    """Input outside the wire formats or the command contract: exit code 2."""


def _c2pair(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _pair2c(p) -> complex:
    return complex(p[0], p[1])


def _cvec(values) -> list:
    return [_c2pair(z) for z in np.asarray(values).ravel()]


def _vec_c(pairs) -> np.ndarray:
    return np.array([_pair2c(p) for p in pairs], dtype=np.complex128)


def poly_to_dict(p: LaurentPoly) -> dict:
    return {"min_degree": int(p.min_degree), "coeffs": _cvec(p.coeffs)}


def poly_from_dict(d: dict) -> LaurentPoly:
    return LaurentPoly(_vec_c(d["coeffs"]), min_degree=int(d["min_degree"]))


def gridfunction_to_dict(g: GridFunction) -> dict:
    return {"M": int(g.grid.M), "values": _cvec(g.values)}


def gridfunction_from_dict(d: dict) -> GridFunction:
    return GridFunction(CircleGrid(int(d["M"])), _vec_c(d["values"]))


def bank_to_dict(fb: FilterBank, export_grid_points: int = 4096) -> dict:
    kind = fb.kind
    if kind == "callable":
        grid = default_check_grid(fb.scale, export_grid_points)
        theta = grid.angles()
        filters = [
            gridfunction_to_dict(GridFunction(grid, f.values_at_t(-theta)))
            for f in fb.filters
        ]
        return {"scale": fb.scale, "kind": "grid", "filters": filters}
    if kind == "poly":
        return {"scale": fb.scale, "kind": "poly",
                "filters": [poly_to_dict(f) for f in fb.filters]}
    return {"scale": fb.scale, "kind": "grid",
            "filters": [gridfunction_to_dict(f) for f in fb.filters]}


def bank_from_dict(d: dict) -> FilterBank:
    kind = d["kind"]
    if kind == "poly":
        filters = tuple(poly_from_dict(f) for f in d["filters"])
    elif kind == "grid":
        filters = tuple(gridfunction_from_dict(f) for f in d["filters"])
    else:
        raise ValueError(f"unknown bank kind {kind!r}")
    return FilterBank(int(d["scale"]), filters)


def family_to_dict(fam: CoisometryFamily) -> dict:
    return {
        "N": fam.n_ops,
        "dim": fam.dim,
        "V": [[_cvec(row) for row in v] for v in fam.v],
        "Omega": _cvec(fam.omega),
    }


def family_from_dict(d: dict) -> CoisometryFamily:
    n, dim = int(d["N"]), int(d["dim"])
    v = np.zeros((n, dim, dim), dtype=np.complex128)
    for i, mat in enumerate(d["V"]):
        for r, row in enumerate(mat):
            v[i, r] = _vec_c(row)
    return CoisometryFamily(v, _vec_c(d["Omega"]))


def filter_to_dict(f) -> dict:
    """Encode a single filter, tagged by kind."""
    if isinstance(f, LaurentPoly):
        return {"kind": "poly", **poly_to_dict(f)}
    if isinstance(f, GridFunction):
        return {"kind": "grid", **gridfunction_to_dict(f)}
    raise TypeError("only polynomial and grid filters are serializable")


def filter_from_dict(d: dict):
    """Decode a single filter; an untagged one is read by its keys."""
    if not isinstance(d, dict):
        raise InputError(f"a filter is a JSON object, got {type(d).__name__}")
    kind = d.get("kind")
    if kind is None:
        kind = "poly" if "coeffs" in d else "grid" if "values" in d else None
    if kind == "poly":
        return poly_from_dict(d)
    if kind == "grid":
        return gridfunction_from_dict(d)
    raise InputError(f"a filter needs \"coeffs\" (polynomial) or \"values\" (grid samples), "
                     f"or a kind tag; got keys {sorted(d)}")
