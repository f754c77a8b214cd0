import gc
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from waverep import cli, fixtures, serialize as ser
from waverep.dilation import DIM_MAX, random_coisometry
from waverep.filterbank import unitarity_residual
from waverep.laurent import CircleGrid, GridFunction, LaurentPoly, sample


def test_poly_round_trip(rng):
    c = rng.normal(size=7) + 1j * rng.normal(size=7)
    p = LaurentPoly(c, min_degree=-3)
    q = ser.poly_from_dict(json.loads(json.dumps(ser.poly_to_dict(p))))
    assert q == p


def test_gridfunction_round_trip(rng):
    g = CircleGrid(16)
    f = GridFunction(g, rng.normal(size=16) + 1j * rng.normal(size=16))
    h = ser.gridfunction_from_dict(json.loads(json.dumps(ser.gridfunction_to_dict(f))))
    assert h.grid == g and np.array_equal(h.values, f.values)


@pytest.mark.parametrize("name", ["haar2", "haar3", "db4", "monomial(0,1)"])
def test_poly_bank_round_trip(name):
    bank = fixtures.fixture_bank(name)
    d = json.loads(json.dumps(ser.bank_to_dict(bank)))
    assert d["kind"] == "poly"
    restored = ser.bank_from_dict(d)
    assert restored.scale == bank.scale
    for a, b in zip(restored.filters, bank.filters):
        assert a == b


def test_grid_bank_round_trip():
    g = CircleGrid(16)
    bank_src = fixtures.haar(2)
    from waverep.filterbank import FilterBank

    bank = FilterBank(2, tuple(sample(f, g) for f in bank_src.filters))
    restored = ser.bank_from_dict(json.loads(json.dumps(ser.bank_to_dict(bank))))
    assert restored.kind == "grid"
    for a, b in zip(restored.filters, bank.filters):
        assert np.array_equal(a.values, b.values)


def test_callable_bank_exports_as_grid_samples():
    d = ser.bank_to_dict(fixtures.shannon())
    assert d["kind"] == "grid" and d["filters"][0]["M"] == 4096
    restored = ser.bank_from_dict(d)
    # sampling preserved unitarity exactly (complementary indicators)
    assert unitarity_residual(restored) < 1e-13


def test_family_round_trip():
    fam = random_coisometry(2, 3, np.random.default_rng(4))
    d = json.loads(json.dumps(ser.family_to_dict(fam)))
    restored = ser.family_from_dict(d)
    assert restored.n_ops == 2 and restored.dim == 3
    assert np.allclose(restored.v, fam.v)
    assert np.allclose(restored.omega, fam.omega)


def test_single_filter_round_trip():
    p = LaurentPoly([1.0, -2.0j], min_degree=-1)
    out = ser.filter_from_dict(json.loads(json.dumps(ser.filter_to_dict(p))))
    assert out == p
    g = GridFunction(CircleGrid(8), np.arange(8, dtype=complex))
    out = ser.filter_from_dict(json.loads(json.dumps(ser.filter_to_dict(g))))
    assert np.array_equal(out.values, g.values)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        ser.bank_from_dict({"scale": 2, "kind": "mystery", "filters": []})


def test_filter_kind_inferred_from_keys(rng):
    p = LaurentPoly(rng.normal(size=3), min_degree=-1)
    g = GridFunction(CircleGrid(8), rng.normal(size=8) + 1j * rng.normal(size=8))
    assert ser.filter_from_dict(ser.poly_to_dict(p)) == p
    h = ser.filter_from_dict(ser.gridfunction_to_dict(g))
    assert isinstance(h, GridFunction) and np.array_equal(h.values, g.values)
    # an explicit tag still decides
    assert ser.filter_from_dict(ser.filter_to_dict(g)).grid == g.grid
    for bad in ({"M": 8}, {}, {"kind": "spline", "coeffs": [[1.0, 0.0]]}, [[1.0, 0.0]]):
        with pytest.raises(ser.InputError):
            ser.filter_from_dict(bad)


# ---------------------------------------------------------------------------
# the complex codec: bit-exact through JSON text

_finite = st.floats(allow_nan=False, allow_infinity=False)  # draws -0.0 and subnormals too
_complexes = st.builds(complex, _finite, _finite)
_EDGES = np.array([complex(-0.0, 0.0), complex(0.0, -0.0), complex(5e-324, -5e-324),
                   complex(-2.2250738585072014e-308, 1e-310), complex(1e308, -1e-308)])


def _through_json(values, shape=None):
    return ser._vec_c(json.loads(json.dumps(ser._cvec(values))), shape)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.complex128, st.integers(0, 40), elements=_complexes))
@example(_EDGES)
@example(np.zeros(0, dtype=np.complex128))
def test_codec_round_trips_vectors_bit_exactly(a):
    assert _same_bits(_through_json(a), a)
    assert _same_bits(_through_json(a, a.shape), a)


@settings(max_examples=40, deadline=None)
@given(hnp.arrays(np.complex128, st.tuples(st.integers(1, 3), st.integers(1, 4)).map(
    lambda t: (t[0], t[1], t[1])), elements=_complexes))
@example(_EDGES[:4].reshape(1, 2, 2))
def test_codec_round_trips_matrix_stacks_bit_exactly(a):
    assert _same_bits(_through_json(a, a.shape), a)
    with pytest.raises(ser.InputError):
        _through_json(a)  # a matrix stack is not a flat list of pairs


def test_zero_polynomial_round_trips():
    d = json.loads(json.dumps(ser.poly_to_dict(LaurentPoly.zero())))
    assert d["coeffs"] == []
    assert ser.poly_from_dict(d).is_zero()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ops=st.integers(2, 3), dim=st.integers(1, 4))
def test_family_round_trips_bit_exactly(seed, ops, dim):
    fam = random_coisometry(ops, dim, np.random.default_rng(seed))
    restored = ser.family_from_dict(json.loads(json.dumps(ser.family_to_dict(fam))))
    assert _same_bits(np.ascontiguousarray(restored.v), fam.v)
    assert _same_bits(np.ascontiguousarray(restored.omega), fam.omega)


@pytest.mark.parametrize("pairs,shape", [
    ([[1.0], [2.0, 3.0]], None),         # ragged: a pair with one number
    ([[1.0], [2.0]], None),              # pairs of one number
    ([[1.0, 2.0, 3.0]], None),           # a triple
    ([[1.0, 0.0]] * 3, (4,)),            # wrong length
    ([[None, 0.0]], None),               # not a number
    ([["1", "0"]], None),                # strings
    ([1.0, 0.0], None),                  # one bare pair, not a list of pairs
    ({"re": 1.0}, None),                 # not a list
])
def test_codec_rejects_malformed_pairs(pairs, shape):
    with pytest.raises(ser.InputError):
        ser._vec_c(pairs, shape)


@pytest.mark.parametrize("decode,d", [
    (ser.bank_from_dict, {"scale": 2, "filters": []}),
    (ser.bank_from_dict, {"scale": 2, "kind": "poly", "filters": [[[1.0, 0.0]]]}),
    (ser.gridfunction_from_dict, {"values": [[1.0, 0.0]]}),
    (ser.gridfunction_from_dict, {"M": [4], "values": [[1.0, 0.0]] * 4}),
    (ser.poly_from_dict, {"coeffs": [[1.0, 0.0]]}),
    (ser.family_from_dict, {"N": 2, "dim": 1, "V": [[[[1.0, 0.0]]], [[[0.0, 0.0]]]]}),
    (ser.family_from_dict, "not an object"),
])
def test_missing_keys_and_wrong_types_are_input_errors(decode, d):
    with pytest.raises(ser.InputError):
        decode(d)


# ---------------------------------------------------------------------------
# the report writer: byte for byte the stdlib's indent-2 layout

_any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_any_complex = st.builds(complex, _any_float, _any_float)
# the placeholder and its JSON text from an earlier writer that spliced
# blocks into the skeleton's text, kept as adversarial strings
_PLACEHOLDER = "\x00pairs\x00"
_PLACEHOLDER_TEXT = json.dumps(_PLACEHOLDER)
_TRICKY = ["", "\x00", "[", "]", "[[", "]\x01[", "\x01", ",", ":", "\"", "\\",
           _PLACEHOLDER, "\"" + _PLACEHOLDER, _PLACEHOLDER + "\"",
           "\\" + _PLACEHOLDER, _PLACEHOLDER + ":", _PLACEHOLDER_TEXT, _PLACEHOLDER * 2]
_strings = st.one_of(st.sampled_from(_TRICKY), st.text(max_size=8),
                     st.lists(st.sampled_from(_TRICKY), max_size=3).map("".join))
_dims = st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple)
_complex_arrays = hnp.arrays(np.complex128, _dims, elements=_any_complex)
_leaves = st.one_of(
    _complex_arrays,                                         # through the default hook
    _complex_arrays.map(ser._cvec),                          # already pairs
    _any_complex, _any_complex.map(np.complex128),
    hnp.arrays(np.int64, _dims, elements=st.integers(-2**40, 2**40)),
    hnp.arrays(st.sampled_from([np.float64, np.float32, np.uint8, np.bool_]),
               st.one_of(st.just(()), _dims)),       # other numeric arrays, 0-d too
    _any_float, _any_float.map(np.float64), st.integers(-2**70, 2**70),
    st.integers(-5, 5).map(np.int64), st.booleans(), st.none(), _strings,
)
_reports = st.dictionaries(_strings, st.recursive(
    _leaves, lambda inner: st.one_of(st.lists(inner, max_size=4),
                                     st.dictionaries(_strings, inner, max_size=4)),
    max_leaves=12), max_size=6)


def _stdlib(obj):
    return json.dumps(obj, indent=2, sort_keys=True, default=cli._json_default)


@settings(max_examples=300, deadline=None)
@given(_reports)
@example({"pairs": ser._cvec(np.array([-0.0, 5e-324j, complex(np.nan, -np.inf)])),
          _PLACEHOLDER: _PLACEHOLDER, "s": ["\"" + _PLACEHOLDER, "\x01[]"]})
@example({"empty": np.zeros((2, 0, 3), dtype=np.complex128), "one": np.ones((1, 1, 1)) * 1j,
          "scalar": np.complex128(-0.0 - 1j), "ints": np.arange(-3, 3)})
def test_dumps_matches_the_stdlib_layout(report):
    pieces = ser.pieces(report, default=cli._json_default)
    assert all(type(p) is str for p in pieces)
    assert "".join(pieces) == ser.dumps(report, default=cli._json_default) == _stdlib(report)


@pytest.mark.parametrize("obj", [
    ser._cvec(np.array([[1 + 2j, 3j]])), ser._cvec(1j), [ser._cvec(np.ones(2))],
    _PLACEHOLDER, [_PLACEHOLDER, ser._cvec(2j)], {}, [], ser._cvec(np.zeros(0)),
])
def test_dumps_matches_the_stdlib_layout_at_the_top_level(obj):
    assert ser.dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_dumps_refuses_what_json_cannot_encode():
    for default in (None, cli._json_default):
        with pytest.raises(TypeError):
            ser.dumps({"poly": LaurentPoly.one()}, default=default)
    with pytest.raises(TypeError):
        ser.dumps({"z": 1j})
    for obj in ({1: "a", "b": 2}, {(1, 2): 0}, {"k": {object(): 1}}):  # unsortable, bad keys
        with pytest.raises(TypeError):
            json.dumps(obj, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            ser.dumps(obj)


class _Int(int):
    def __repr__(self):
        return "not the number"


class _Float(float):
    def __repr__(self):
        return "not the number"


@pytest.mark.parametrize("obj", [
    {1: "int", -7: None, 2**70: True},
    {0.5: 1, -0.0: 2, 1e300: 3, float("nan"): 4, float("inf"): 5, float("-inf"): 6},
    {True: 1, False: [1, 2]},
    {None: {}},
    {_Int(3): _Int(4), _Int(-2): [_Int(-1), _Float(float("nan"))]},
    {_Float(2.5): _Float(0.1), _Float(-1e-300): _Float(float("-inf"))},
    {"t": (1, (2.5, "x"), ()), "nested": ((), [], {}, [{}], [[]])},
    (), [], {}, "", 0, -0.0, float("nan"), True, None, (1, {"a": ()}),
    {"x": np.float64(0.1), "y": [np.float64("-inf"), np.float64(1e-320)], "z": np.float64(-0.0)},
    {"\u00e9\n\x7f": "\ud800", "\x00": ["\"", "\\"]},
])
def test_dumps_matches_the_stdlib_on_keys_scalars_and_containers(obj):
    assert ser.dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_default_is_applied_to_what_it_returns():
    class Box:
        def __init__(self, depth):
            self.depth = depth

    def unbox(x):
        if not isinstance(x, Box):
            raise TypeError(type(x).__name__)
        return [x.depth, Box(x.depth - 1)] if x.depth else (np.float64(0.5), ())

    obj = {"b": Box(3), "l": [Box(0), {"c": Box(1)}]}
    want = json.dumps(obj, indent=2, sort_keys=True, default=unbox)
    assert ser.dumps(obj, default=unbox) == want


def test_nothing_is_written_when_default_raises_part_way(tmp_path, capsys, monkeypatch):
    # the index report's complex eigenvalues and pairing matrix come after
    # "artifacts", "command" and "elapsed" have been encoded
    def refuse(x):
        raise TypeError("refused part-way")

    argv = ["index", "--fixture", "haar2"]
    monkeypatch.setattr(cli, "_json_default", refuse)
    out = tmp_path / "report.json"
    for route in (argv, ["--out", str(out), *argv]):
        with pytest.raises(TypeError, match="refused part-way"):
            cli.run(route)
        assert capsys.readouterr().out == ""
    assert not out.exists()


def test_pieces_leave_no_reference_cycle():
    # a cycle would keep a bank's laid-out blocks alive until the next collection
    report = {"bank": ser.bank_to_dict(fixtures.haar(4)), "z": np.ones(3) * 1j, "k": [{}, ()]}
    gc.collect()
    gc.disable()
    try:
        ser.pieces(report, default=cli._json_default)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_no_bank_file_is_written_when_the_bank_cannot_be_encoded(tmp_path, capsys, monkeypatch):
    encode = ser.bank_to_dict
    monkeypatch.setattr(ser, "bank_to_dict",
                        lambda bank: {**encode(bank), "zz_unencodable": LaurentPoly.one()})
    out = tmp_path / "bank.json"
    code = cli.run(["fixtures", "haar4", "--out-bank", str(out)])
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["artifacts"] == [] and "not JSON serializable" in report["info"]["error"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [["fixtures", "haar16"], ["fixtures", "shannon"],
                                  ["complete", "--lowpass", None, "--scale", "3"]])
def test_a_bank_written_through_writelines_equals_dumps(argv, tmp_path, capsys):
    low = tmp_path / "low.json"
    low.write_text(json.dumps(ser.filter_to_dict(fixtures.haar(3).filters[0])))
    argv = [str(low) if a is None else a for a in argv]  # None: the low-pass file
    out = tmp_path / "bank.json"
    assert cli.run([*argv, "--out-bank", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    bank = ser.bank_from_dict(json.loads(text))
    assert text == ser.dumps(ser.bank_to_dict(bank)) == json.dumps(json.loads(text), indent=2,
                                                                   sort_keys=True)


def _shapes(size):
    """Every shape of rank 1 to 3 holding `size` numbers."""
    out = [(size,)]
    for a in range(1, size + 1):
        if size % a == 0:
            out.append((a, size // a))
            out += [(a, b, size // a // b) for b in range(1, size // a + 1) if size // a % b == 0]
    return out


@pytest.mark.parametrize("size", range(1, 41))
def test_dumps_matches_the_stdlib_on_both_sides_of_the_slot_threshold(size, monkeypatch):
    laid_out = []
    layout = ser._layout

    def counting(block, depth):
        laid_out.append(len(block))
        return layout(block, depth)

    monkeypatch.setattr(ser, "_layout", counting)
    numbers = np.resize([-0.0, 5e-324, 1e308, -1.5, 7.0, float("nan"), float("-inf")], size)
    for shape in _shapes(size):
        block = ser._Block(numbers.reshape(shape).tolist())
        ints = ser._Block(np.arange(size).reshape(shape).tolist())
        for obj, blocks in ((block, 1), ({"b": block}, 1),
                            ({"x": [1, {"b": block, "c": ints}], "y": "\x00"}, 2)):
            laid_out.clear()
            assert ser.dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)
            # a block of fewer than SLOT_NUMBERS numbers is written inline
            assert laid_out == ([shape[0]] * blocks if size >= ser.SLOT_NUMBERS else [])


def _at_depths(block):
    """The block at indent levels 0 to 3, beside inline values."""
    return [block, {"b": block, "c": 1}, {"a": {"b": block}, "z": [0.5]},
            {"a": [{"b": block, "n": None}], "y": "\x00"}]


@pytest.mark.parametrize("rows", [10, 11, 12, 23])
@pytest.mark.parametrize("tail", [(), (2,), (3, 2)])
def test_dumps_matches_the_stdlib_chunk_by_chunk(rows, tail, monkeypatch):
    # with chunks of 11 rows: blocks of chunk - 1, chunk, chunk + 1 and 2 chunk + 1 rows
    monkeypatch.setattr(ser, "CHUNK_ROWS", 11)
    laid_out = []
    layout = ser._layout

    def counting(block, depth):
        laid_out.append(len(block))
        return layout(block, depth)

    monkeypatch.setattr(ser, "_layout", counting)
    shape = (rows, *tail)
    size = math.prod(shape)
    numbers = np.resize([-0.0, 5e-324, 1e308, -1.5, 7.0, float("nan"), float("-inf"),
                         float("inf")], size)
    blocks = [numbers.reshape(shape).tolist(), np.arange(-size, size, 2).reshape(shape).tolist(),
              (np.arange(size) % 3 == 0).reshape(shape).tolist(), ser._cvec(numbers.reshape(shape))]
    for block in blocks:
        block = ser._Block(block)
        for obj in _at_depths(block):
            laid_out.clear()
            assert ser.dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)
            # one piece per chunk of rows, none of the whole block
            assert laid_out == [min(11, rows - k) for k in range(0, rows, 11)]


def test_a_family_block_is_laid_out_chunk_by_chunk(monkeypatch):
    fam = ser.family_to_dict(random_coisometry(3, 4, np.random.default_rng(1)))  # V is rank 3
    report = {"family": fam, "eig": ser._cvec(np.arange(25) * (1 + 1j))}
    want = json.dumps(report, indent=2, sort_keys=True)
    for rows in (1, 2, 3, ser.CHUNK_ROWS):
        monkeypatch.setattr(ser, "CHUNK_ROWS", rows)
        assert ser.dumps(report) == want


@pytest.mark.parametrize("rows", [ser.CHUNK_ROWS - 1, ser.CHUNK_ROWS, ser.CHUNK_ROWS + 1,
                                  2 * ser.CHUNK_ROWS + 1])
def test_dumps_matches_the_stdlib_around_the_chunk_size(rows):
    values = np.random.default_rng(rows).standard_normal(rows) * np.exp(1j * np.arange(rows))
    report = {"info": {"values": values}, "M": rows}
    assert ser.dumps(report, default=cli._json_default) == _stdlib(report)


def test_the_writer_holds_little_more_than_the_report():
    # one 65535-pair block, as an equiv or wold --filter report of a dynamics grid holds
    values = np.random.default_rng(0).standard_normal(65535) * np.exp(1j * np.arange(65535))
    report = {"command": "equiv", "info": {"coboundary": ser._cvec(values)}, "residuals": {}}
    tracemalloc.start()
    try:
        text = ser.pieces(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(map(len, text))
    assert size > 4_000_000
    # laid out whole, the block held 3.5 times the report's size
    assert peak <= 1.5 * size


def test_family_decoder_caps_the_dim():
    at_cap = ser.family_to_dict(random_coisometry(2, DIM_MAX, np.random.default_rng(0)))
    assert ser.family_from_dict(at_cap).dim == DIM_MAX
    above = ser.family_to_dict(random_coisometry(2, DIM_MAX + 1, np.random.default_rng(0)))
    with pytest.raises(ser.InputError, match=f"exceeds the cap {DIM_MAX}"):
        ser.family_from_dict(above)
    # the cap is read before the pairs: a family too big to build is refused unread
    with pytest.raises(ser.InputError, match="exceeds the cap"):
        ser.family_from_dict({"N": 2, "dim": 10 ** 6, "V": None, "Omega": None})
