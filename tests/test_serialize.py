import json
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
    ([[1.0, True]], None),               # a boolean beside a number, read as 1
    ([[True, False]], None),             # booleans only
    ([[0.5, 0.0], [0.0, False]], None),  # a boolean that reads as an exact 0
    ([[[[1.0, 0.0], [0.0, True]]]], (1, 1, 2)),  # in a matrix stack
])
def test_codec_rejects_malformed_pairs(pairs, shape):
    with pytest.raises(ser.InputError):
        ser._vec_c(pairs, shape)


def test_exact_zeros_and_ones_decode_as_numbers():
    # the entries a boolean scan looks at, given as JSON numbers, decode as before
    pairs = json.loads("[[1.0, 0.0], [0, 1], [-0.0, 1e-300], [0.5, 1.0]]")
    assert _same_bits(ser._vec_c(pairs), np.array([1, 1j, complex(-0.0, 1e-300), 0.5 + 1j]))
    stack = json.loads("[[[[1, 0], [0.0, 1.0]]], [[[0, 0], [1, 1]]]]")
    assert _same_bits(ser._vec_c(stack, (2, 1, 2)), np.array([[[1, 1j]], [[0, 1 + 1j]]]))


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
# reports and bank files: the stdlib's compact text


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


def test_no_bank_file_is_written_when_the_bank_cannot_be_encoded(tmp_path, capsys, monkeypatch):
    encode = ser.bank_to_dict
    monkeypatch.setattr(ser, "bank_to_dict",
                        lambda bank: {**encode(bank), "zz_unencodable": LaurentPoly.one()})
    out = tmp_path / "bank.json"
    # a bank the encoder refuses is a defect of the program, not a failed check: it propagates
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli.run(["fixtures", "haar4", "--out-bank", str(out)])
    assert capsys.readouterr().out == ""
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
    # one line, no trailing newline
    assert text == json.dumps(ser.bank_to_dict(bank), sort_keys=True) == json.dumps(
        json.loads(text), sort_keys=True)
    assert "\n" not in text


def test_the_writer_holds_little_more_than_the_report():
    # one 65535-pair block, as an equiv or wold --filter report of a dynamics grid holds
    values = np.random.default_rng(0).standard_normal(65535) * np.exp(1j * np.arange(65535))
    report = {"command": "equiv", "info": {"coboundary": ser._cvec(values)}, "residuals": {}}
    # 1.5 times the indent-2 text of the report, not of the shorter compact one
    bound = 1.5 * len(json.dumps(report, indent=2, sort_keys=True))
    tracemalloc.start()
    try:
        text = json.dumps(report, sort_keys=True, default=cli._json_default) + "\n"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 2_500_000
    assert peak <= bound


def test_family_decoder_caps_the_dim():
    at_cap = ser.family_to_dict(random_coisometry(2, DIM_MAX, np.random.default_rng(0)))
    assert ser.family_from_dict(at_cap).dim == DIM_MAX
    above = ser.family_to_dict(random_coisometry(2, DIM_MAX + 1, np.random.default_rng(0)))
    with pytest.raises(ser.InputError, match=f"exceeds the cap {DIM_MAX}"):
        ser.family_from_dict(above)
    # the cap is read before the pairs: a family too big to build is refused unread
    with pytest.raises(ser.InputError, match="exceeds the cap"):
        ser.family_from_dict({"N": 2, "dim": 10 ** 6, "V": None, "Omega": None})
