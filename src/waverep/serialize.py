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
a boolean or a fraction, for example), pairs of the wrong shape, or a value
that is not finite (JSON readers accept NaN and Infinity); the constructors
it calls raise it for a grid size M < 1 or a bank's scale, count or grids.

Callable-kind banks have no sample-free encoding; exporting one samples it
onto a grid (size divisible by the scale) and marks kind "grid".

Every run report and every written bank goes through one writer,
pieces(obj, default), whose pieces joined (dumps) equal json.dumps(obj,
indent=2, sort_keys=True, default=default) byte for byte: the stdlib's key
order and key coercion, float.__repr__ and int.__repr__ number text, NaN and
Infinity, and `default` applied to what JSON cannot encode and then to what
it returns.  The stdlib writes indented JSON with a pure-Python encoder that
yields through one generator per nesting level; pieces walks the object in
one recursive function instead, in 0.5 to 0.6 of its time.  Each _Block of at
least SLOT_NUMBERS numbers (the nested lists of one numeric array, such as
the [re, im] pairs that _cvec returns) is laid out by _layout: the C encoder
writes it with the item separator "\x01", and that flat text is laid out at
the block's depth with one str.replace per nesting level.  Number text is
the same in both encoders, and a block is a regular array of numbers, so
its flat text holds "\x01" and brackets only as structure.  A block is
laid out at most CHUNK_ROWS outer rows at a time, each chunk one piece
after its "," and indent, and no text of the whole block is formed: laying
out a chunk holds several texts of it at once (the flat text, its body and
the replaced copies), so the writer's peak is one report text plus about
three chunks' (1.2 times a
report holding one 65535-pair block, against 3.5 times when it was laid
out whole).  A laid-out block costs a fixed amount, about what writing 10
numbers inline costs: in a small report holding one block of n [re, im]
pairs, laying the block out cost 4.5 us more than writing it inline at
n = 1, 0.6 us less at n = 5 and 3.5 us less at n = 8.  So a block of fewer
numbers, such as one eigenvalue's pair, is written inline.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from .dilation import DIM_MAX, CoisometryFamily
from .filterbank import FilterBank, default_check_grid, values_on_coset
from .laurent import CircleGrid, GridFunction, InputError, LaurentPoly


class _Block(list):
    """The nested lists of one numeric array; pieces writes one of at least
    SLOT_NUMBERS numbers in one piece."""


def _cvec(values) -> list:
    """Complex scalar or array of any shape -> nested lists ending in [re, im]."""
    v = np.asarray(values, dtype=np.complex128)
    return _Block(np.stack([v.real, v.imag], -1).tolist())


def _vec_c(pairs, shape: tuple | None = None) -> np.ndarray:
    """[re, im] pairs nested to `shape` (default: a list of any length) -> complex array."""
    try:
        a = np.asarray(pairs)
    except ValueError as e:  # ragged nesting
        raise InputError(f"complex values must be [re, im] pairs: {e}") from None
    if a.shape == (0,):  # [], e.g. the zero polynomial's coefficients
        a = a.reshape(0, 2)
    want = a.shape[:1] if shape is None else tuple(shape)
    if a.dtype.kind not in "biuf" or a.shape != want + (2,):
        raise InputError(f"expected [re, im] pairs of shape {want}, got {a.dtype} {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InputError("complex values must be finite (no NaN or Infinity)")
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
    return LaurentPoly(_vec_c(d["coeffs"]), min_degree=_int(d, "min_degree"))


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


# ---------------------------------------------------------------------------
# the report writer


# a _Block of fewer numbers is written inline, number by number
SLOT_NUMBERS = 10
# a longer _Block is laid out this many outer rows at a time (4096 [re, im]
# pairs are about 330 KB of text)
CHUNK_ROWS = 4096
# the C encoder of every block of at least SLOT_NUMBERS numbers (item separator "\x01")
_FLAT = json.JSONEncoder(separators=("\x01", ":"))
_ESCAPE = json.encoder.encode_basestring_ascii
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(x: float) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


# the text of a value of exactly one of these types; other values take the
# stdlib's isinstance tests in its order
_SCALARS = {str: _ESCAPE, float: _float, int: int.__repr__,
            bool: lambda x: "true" if x else "false", type(None): lambda x: "null"}


def _key(key) -> str:
    """The stdlib's text for a non-string dict key."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float(key)
    if key is True or key is False or key is None:
        return _SCALARS[type(key)](key)
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _shape(block: list) -> tuple:
    """Shape of a regular block; () when it holds no number, so it is written inline."""
    shape = []
    while isinstance(block, list):
        if not block:
            return ()
        shape.append(len(block))
        block = block[0]
    return tuple(shape)


def _layout(block: list, depth: int) -> str:
    """The rows of json.dumps(block, indent=2) for a block that opens at indent
    level `depth`: its text without the outer brackets and the line breaks
    next to them."""
    rank = len(_shape(block))
    flat = _FLAT.encode(block)
    nl = ["\n" + "  " * k for k in range(depth + rank + 1)]
    opens = ["[" + nl[depth + m + 1] for m in range(rank)]
    closes = [nl[depth + m] + "]" for m in range(rank)]
    body = flat[rank:-rank]
    # between two items of level m, levels m+1..rank-1 close and open again
    for m in range(rank - 1):
        inner = rank - 1 - m
        body = body.replace("]" * inner + "\x01" + "[" * inner,
                            "".join(closes[rank - 1:m:-1]) + "," + nl[depth + m + 1]
                            + "".join(opens[m + 1:]))
    body = body.replace("\x01", "," + nl[depth + rank])
    return "".join(opens[1:]) + body + "".join(reversed(closes[1:]))


def _write(x, head: str, nl: str, append, default) -> None:
    """Append the text of x, which follows `head` on a line; nl is "\\n" and the
    line's indent, two spaces a level."""
    scalar = _SCALARS.get(type(x))
    if scalar is not None:
        append(head + scalar(x))
    elif isinstance(x, str):
        append(head + _ESCAPE(x))
    elif isinstance(x, int):
        append(head + int.__repr__(x))
    elif isinstance(x, float):
        append(head + _float(x))
    elif isinstance(x, (list, tuple)):
        if not x:
            append(head + "[]")
        elif isinstance(x, _Block) and math.prod(_shape(x)) >= SLOT_NUMBERS:
            # one piece per chunk of rows: no text of the whole block is formed
            depth = len(nl) // 2
            inner = nl + "  "
            head += "[" + inner
            for start in range(0, len(x), CHUNK_ROWS):
                append(head)
                append(_layout(x[start:start + CHUNK_ROWS], depth))
                head = "," + inner
            append(nl + "]")
        else:
            inner = nl + "  "
            head += "[" + inner
            for item in x:
                _write(item, head, inner, append, default)
                head = "," + inner
            append(nl + "]")
    elif isinstance(x, dict):
        if not x:
            append(head + "{}")
            return
        inner = nl + "  "
        head += "{" + inner
        for key, item in sorted(x.items()):
            if type(key) is not str:
                key = _key(key)
            _write(item, head + _ESCAPE(key) + ": ", inner, append, default)
            head = "," + inner
        append(nl + "}")
    elif default is None:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    else:
        _write(default(x), head, nl, append, default)


def pieces(obj, default=None) -> list:
    """The text of dumps(obj, default) as a list of strings, in order.

    Nothing is returned when `default` raises or a value cannot be encoded,
    so a caller that writes the pieces writes all of a report or none of it.
    """
    out = []
    _write(obj, "", "\n", out.append, default)
    return out


def dumps(obj, default=None) -> str:
    """json.dumps(obj, indent=2, sort_keys=True, default=default), byte for byte."""
    return "".join(pieces(obj, default))
