"""JSON encodings for the package's value types and reports.

Wire formats (stable):

* LaurentPoly        {"min_degree": int, "coeffs": [[re, im], ...]}
* GridFunction       {"M": int, "values": [[re, im], ...]}
* FilterBank         {"scale": N, "kind": "poly"|"grid", "filters": [...]}
* CoisometryFamily   {"N": int, "dim": int, "V": [matrix, ...], "Omega": vector}
  with matrices as nested [[ [re, im], ... ], ...] rows and vectors as
  [[re, im], ...].

Complex values, here and in the CLI's run reports, are [re, im] pairs of
floats, encoded and decoded bit-exactly by one codec (_cvec / _vec_c).
Decoding raises laurent.InputError for input outside these formats: a
missing key, a value of the wrong type (an integer field given as a string,
a boolean or a fraction, or a boolean inside a pair, for example), pairs of
the wrong shape, or a value that is not finite (JSON readers accept NaN and
Infinity); the constructors it calls raise it for a grid size M < 1 or a
bank's scale, count or grids.

Callable-kind banks have no sample-free encoding; exporting one samples it
onto a grid (size divisible by the scale) and marks kind "grid".

The CLI writes run reports and --out-bank files with the stdlib's C encoder,
json.dumps(obj, sort_keys=True, check_circular=False): compact text on one
line, keys in sorted order, float.__repr__ number text and NaN / Infinity for
non-finite residuals.  Each is an acyclic tree built for its call, so the
encoder keeps no cycle markers, and each is encoded whole before its file or
stdout gets a byte.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .dilation import DIM_MAX, CoisometryFamily
from .filterbank import FilterBank, default_check_grid, values_on_coset
from .laurent import CircleGrid, GridFunction, InputError, LaurentPoly, require_degrees


def _cvec(values) -> list:
    """Complex scalar or array of any shape -> nested lists ending in [re, im]."""
    v = np.asarray(values, dtype=np.complex128)
    return np.stack([v.real, v.imag], -1).tolist()


def _vec_c(pairs, shape: tuple | None = None) -> np.ndarray:
    """[re, im] pairs nested to `shape` (default: a list of any length) -> complex array."""
    try:
        a = np.asarray(pairs)
    except ValueError as e:  # ragged nesting
        raise InputError(f"complex values must be [re, im] pairs: {e}") from None
    if a.shape == (0,):  # [], e.g. the zero polynomial's coefficients
        a = a.reshape(0, 2)
    want = a.shape[:1] if shape is None else tuple(shape)
    if a.dtype.kind not in "iuf" or a.shape != want + (2,):
        raise InputError(f"expected [re, im] pairs of shape {want}, got {a.dtype} {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InputError("complex values must be finite (no NaN or Infinity)")
    # a JSON true or false among numbers reads as 1 or 0, so only an array
    # holding one of those values can hide a boolean: then scan the entries' types
    if ((a == 0) | (a == 1)).any():
        flat = pairs
        for _ in range(a.ndim - 1):
            flat = itertools.chain.from_iterable(flat)
        if bool in set(map(type, flat)):
            raise InputError("complex values must be numbers, not booleans")
    return np.ascontiguousarray(a, dtype=np.float64).view(np.complex128)[..., 0]


def _decoder(fn):
    """Make a non-object, a missing key or a value of the wrong type an InputError."""
    what = fn.__name__.removesuffix("_from_dict")

    @functools.wraps(fn)
    def decode(d):
        if not isinstance(d, dict):
            raise InputError(f"a {what} is a JSON object, got {type(d).__name__}")
        try:
            return fn(d)
        except KeyError as e:
            raise InputError(f"a {what} needs the key {e}") from None
        except TypeError as e:
            raise InputError(f"malformed {what}: {e}") from None
    return decode


def _int(d: dict, key: str) -> int:
    """The wire integer d[key]: a JSON integer, or a float with an integral value."""
    value = d[key]
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int:
        raise InputError(f"\"{key}\" must be an integer, got {value!r}")
    return value


def poly_to_dict(p: LaurentPoly) -> dict:
    return {"min_degree": int(p.min_degree), "coeffs": _cvec(p.coeffs)}


@_decoder
def poly_from_dict(d: dict) -> LaurentPoly:
    coeffs, lo = _vec_c(d["coeffs"]), _int(d, "min_degree")
    require_degrees(lo, lo + max(len(coeffs) - 1, 0))
    return LaurentPoly(coeffs, min_degree=lo)


def gridfunction_to_dict(g: GridFunction) -> dict:
    return {"M": int(g.grid.M), "values": _cvec(g.values)}


@_decoder
def gridfunction_from_dict(d: dict) -> GridFunction:
    m = _int(d, "M")
    return GridFunction(CircleGrid(m), _vec_c(d["values"], (m,)))


def bank_to_dict(fb: FilterBank) -> dict:
    if fb.kind == "poly":
        return {"scale": fb.scale, "kind": "poly",
                "filters": [poly_to_dict(f) for f in fb.filters]}
    filters = fb.filters
    if fb.kind == "callable":
        grid = default_check_grid(fb.scale)
        filters = [GridFunction(grid, values_on_coset(f, 1, grid)[0]) for f in filters]
    return {"scale": fb.scale, "kind": "grid", "filters": [gridfunction_to_dict(f) for f in filters]}


@_decoder
def bank_from_dict(d: dict) -> FilterBank:
    kind = d["kind"]
    if kind == "poly":
        filters = tuple(poly_from_dict(f) for f in d["filters"])
    elif kind == "grid":
        filters = tuple(gridfunction_from_dict(f) for f in d["filters"])
    else:
        raise InputError(f"unknown bank kind {kind!r}")
    return FilterBank(_int(d, "scale"), filters)


def family_to_dict(fam: CoisometryFamily) -> dict:
    return {
        "N": fam.n_ops,
        "dim": fam.dim,
        "V": _cvec(fam.v),
        "Omega": _cvec(fam.omega),
    }


@_decoder
def family_from_dict(d: dict) -> CoisometryFamily:
    """A family; a dim above dilation.DIM_MAX is refused before the pairs are read."""
    n, dim = _int(d, "N"), _int(d, "dim")
    if dim > DIM_MAX:
        raise InputError(f"a family of dim {dim} exceeds the cap {DIM_MAX}")
    return CoisometryFamily(_vec_c(d["V"], (n, dim, dim)), _vec_c(d["Omega"], (dim,)))


def filter_to_dict(f) -> dict:
    """Encode a single filter, tagged by kind."""
    if isinstance(f, LaurentPoly):
        return {"kind": "poly", **poly_to_dict(f)}
    if isinstance(f, GridFunction):
        return {"kind": "grid", **gridfunction_to_dict(f)}
    raise TypeError("only polynomial and grid filters are serializable")


@_decoder
def filter_from_dict(d: dict):
    """Decode a single filter; an untagged one is read by its keys."""
    kind = d.get("kind")
    if kind is None:
        kind = "poly" if "coeffs" in d else "grid" if "values" in d else None
    if kind == "poly":
        return poly_from_dict(d)
    if kind == "grid":
        return gridfunction_from_dict(d)
    raise InputError(f"a filter needs \"coeffs\" (polynomial) or \"values\" (grid samples), "
                     f"or a kind tag; got keys {sorted(d)}")
