import csv
import functools
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krylovexact.fileio import (
    FormatError,
    _Tokens,
    read_matrix,
    read_problem,
    write_matrix,
    write_matrix_summary_csv,
    write_metric_csv,
    write_problem,
    write_reports_csv,
    write_vector_csv,
)
from krylovexact.fp import BINARY32, BINARY64, bitwise_equal
from krylovexact.harness import MetricSeries, _deficient_instance, exactness_check
from krylovexact.problems import STRUCTURES, random_structure, random_structured_problem


def _roundtrip_matrix(T):
    buf = io.StringIO()
    write_matrix(buf, T)
    buf.seek(0)
    return read_matrix(buf)


def test_jacobi_roundtrip_bitwise():
    T = random_structure("jacobi", 7, 3)
    alpha = T.alpha.copy()
    alpha[2] = -0.0
    T = type(T)(alpha, T.beta)
    T2 = _roundtrip_matrix(T)
    assert bitwise_equal(T2.alpha, T.alpha)
    assert bitwise_equal(T2.beta, T.beta)


def test_hessenberg_roundtrip_bitwise():
    T = random_structure("hessenberg", 6, 1)
    T2 = _roundtrip_matrix(T)
    assert bitwise_equal(T2.entries, T.entries)


def test_nonsym_roundtrip_bitwise():
    T = random_structure("nonsymtridiag", 6, 2, positive_beta=False)
    T2 = _roundtrip_matrix(T)
    assert bitwise_equal(T2.alpha, T.alpha)
    assert bitwise_equal(T2.beta, T.beta)
    assert bitwise_equal(T2.gamma, T.gamma)


def test_lower_bidiagonal_roundtrip_bitwise():
    T = random_structure("lowerbidiag", 5, 4)
    T2 = _roundtrip_matrix(T)
    assert bitwise_equal(T2.gamma, T.gamma)
    assert bitwise_equal(T2.delta, T.delta)


def test_dense_and_vector_roundtrip():
    g = np.random.Generator(np.random.Philox(key=9))
    A = g.uniform(-1, 1, (4, 3))
    A[0, 0] = -0.0
    assert bitwise_equal(_roundtrip_matrix(A), A)
    v = g.uniform(-1, 1, 5)
    assert bitwise_equal(_roundtrip_matrix(v), v)


@pytest.mark.parametrize("kind", ["jacobi", "hessenberg", "nonsymtridiag", "lowerbidiag", "blocktridiag"])
def test_problem_roundtrip_bitwise(kind):
    """write -> read gives the same arrays and scalars, bit for bit, in both
    precisions, and writing what was read gives the same bytes."""
    p = 2 if kind == "blocktridiag" else 1
    for precision in (BINARY64, BINARY32):
        prob = random_structured_problem(kind, 6, 4, precision, p=p)
        buf = io.StringIO()
        write_problem(buf, prob)
        buf.seek(0)
        prob2 = read_problem(buf)
        for name in ("A", "v", "w", "U1", "beta1", "gamma1"):
            got, want = getattr(prob2, name), getattr(prob, name)
            assert (got is None) == (want is None), name
            if want is not None:
                assert bitwise_equal(np.asarray(got), np.asarray(want)), name
        assert (prob2.kind, prob2.d) == (prob.kind, prob.d)
        again = io.StringIO()
        write_problem(again, prob2)
        assert again.getvalue() == buf.getvalue()


def test_a_grade_deficient_extension_is_not_written():
    """An extension has no problem-file record: writing one raises and writes
    nothing, where a lone leading record would read back as the d x d problem.
    With nothing to extend (n = 1) the problem is written and reads back."""
    buf = io.StringIO()
    with pytest.raises(ValueError, match="grade-deficient extension"):
        write_problem(buf, _deficient_instance(6, 0))
    assert buf.getvalue() == ""
    prob = _deficient_instance(1, 0)
    write_problem(buf, prob)
    buf.seek(0)
    assert bitwise_equal(read_problem(buf).A, prob.A)


def test_binary32_roundtrip():
    prob = random_structured_problem("jacobi", 5, 0, precision=BINARY32)
    buf = io.StringIO()
    write_problem(buf, prob)
    assert buf.getvalue().startswith("precision binary32")
    buf.seek(0)
    prob2 = read_problem(buf)
    assert prob2.A.dtype == np.float32
    assert bitwise_equal(prob2.A, prob.A)


def test_format_errors():
    with pytest.raises(FormatError):
        read_matrix(io.StringIO("gibberish 3\n1 2 3\n"))
    with pytest.raises(FormatError):
        read_matrix(io.StringIO("jacobi 3\n0x1p0 0x1p0\n"))
    prob = random_structured_problem("jacobi", 4, 0)
    buf = io.StringIO()
    write_matrix(buf, prob.T)
    buf.write("signedperm 4\n0 1\n1 1\n2 1\n3 1\n")
    buf.seek(0)
    with pytest.raises(FormatError):
        read_problem(buf)


def test_csv_writers_smoke():
    s = MetricSeries("demo")
    s.add(1, "loss", 0.5)
    out = io.StringIO()
    write_metric_csv(out, s)
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "experiment,k,metric,value,value_hex"
    assert lines[1] == "demo,1,loss,0.5," + np.float64(0.5).hex()

    rep = exactness_check("lanczos", 4, seed=0)
    out = io.StringIO()
    write_reports_csv(out, [rep])
    assert "lanczos,4,0" in out.getvalue()

    out = io.StringIO()
    write_matrix_summary_csv(out, random_structure("jacobi", 3, 0))
    assert out.getvalue().splitlines()[0] == "kind,dims,index,value,value_hex"

    out = io.StringIO()
    write_vector_csv(out, [("v", np.array([1.5, -0.0]))])
    body = out.getvalue()
    assert "-0.0,-0x0.0p+0" in body


@pytest.mark.parametrize("literal", ["nan", "inf", "-inf", "0x1p200"])
def test_non_finite_literals_are_rejected(literal):
    header = "precision binary32\n" if literal == "0x1p200" else ""  # 2^200 overflows binary32
    with pytest.raises(FormatError, match="non-finite"):
        read_matrix(io.StringIO(f"{header}dense 1 2\n{literal} 0x1p0\n"))


@pytest.mark.parametrize("literals, bad", [("0x1.000001p0 0x1p-1074", "0x1.000001p0"), ("0x1p0 0x1p-1074", "0x1p-1074"), ("0x1p-150 0x1p0", "0x1p-150")])
def test_a_literal_the_precision_cannot_hold_is_rejected(literals, bad):
    with pytest.raises(FormatError, match=f"literal '{bad}' is not representable in binary32"):
        read_matrix(io.StringIO(f"precision binary32\nvector 2\n{literals}\n"))
    v = read_matrix(io.StringIO("precision binary32\nvector 3\n0x1.fffffep127 0x1p-149 -0x0p+0\n"))
    assert v.tolist() == [float.fromhex("0x1.fffffep127"), 2.0**-149, 0.0] and np.signbit(v[2])


def test_tokens_after_the_record_are_rejected():
    with pytest.raises(FormatError, match="after the record"):
        read_matrix(io.StringIO("vector 2\n0x1p0 0x1p0 0x1p0 0x1p0\n"))
    prob = random_structured_problem("nonsymtridiag", 4, 0)
    buf = io.StringIO()
    write_problem(buf, prob)
    buf.write("0x1p0\n")
    buf.seek(0)
    with pytest.raises(FormatError, match="after the record"):
        read_problem(buf)


def _written(prob) -> str:
    buf = io.StringIO()
    write_problem(buf, prob)
    return buf.getvalue()


@st.composite
def structured_problems(draw):
    kind = draw(st.sampled_from(list(STRUCTURES)))
    p = draw(st.integers(1, 3)) if kind == "blocktridiag" else 1
    n = p * draw(st.integers(1, 5))
    precision = draw(st.sampled_from([BINARY64, BINARY32]))
    return random_structured_problem(kind, n, draw(st.integers(0, 2**32 - 1)), precision, p=p, spd=draw(st.booleans()))


@settings(max_examples=80, deadline=None)
@given(structured_problems())
def test_problem_roundtrip_property(prob):
    """write -> read gives bitwise the same T, P and scalars for every kind,
    precision and size, and a second write gives the same bytes."""
    text = _written(prob)
    prob2 = read_problem(io.StringIO(text))
    assert (type(prob2.T), type(prob2.P), prob2.kind, prob2.d) == (type(prob.T), type(prob.P), prob.kind, prob.d)
    assert bitwise_equal(prob2.T.to_dense(), prob.T.to_dense())
    assert np.array_equal(prob2.P.to_dense(), prob.P.to_dense())
    for name in ("A", "v", "w", "U1", "beta1", "gamma1"):
        got, want = getattr(prob2, name), getattr(prob, name)
        assert (got is None) == (want is None), name
        if want is not None:
            assert bitwise_equal(np.asarray(got), np.asarray(want)), name
    assert _written(prob2) == text


def _respaced(text) -> str:
    """text's tokens, separated in turn by a space, a tab, CRLF, a blank line
    and mixed runs, so that every record is split across lines."""
    seps = [" ", "\t", "\r\n", "\n\n", " \t\r\n  ", "\n\t\n"]
    return "".join(tok + seps[i % len(seps)] for i, tok in enumerate(text.split()))


@pytest.mark.parametrize("precision", [BINARY64, BINARY32], ids=lambda p: p.name)
@pytest.mark.parametrize("kind", list(STRUCTURES))
def test_any_whitespace_between_tokens_reads_the_same_bits(kind, precision):
    prob = random_structured_problem(kind, 4, 1, precision, p=2)
    text = _written(prob)
    again = read_problem(io.StringIO("\r\n" + _respaced(text)))
    assert _written(again) == text
    for name in ("A", "v", "w", "U1"):
        assert (getattr(again, name) is None) == (getattr(prob, name) is None)
        if getattr(prob, name) is not None:
            assert bitwise_equal(getattr(again, name), getattr(prob, name)), name
    for T in (prob.T, prob.A, prob.v):
        buf = io.StringIO()
        write_matrix(buf, T)
        got = read_matrix(io.StringIO(_respaced(buf.getvalue())))
        assert bitwise_equal(got if isinstance(got, np.ndarray) else got.to_dense(), T if isinstance(T, np.ndarray) else T.to_dense())


@functools.cache
def _problem_file(kind, precision) -> str:
    return _written(random_structured_problem(kind, 4, 1, precision, p=2))


def _read_or_value_error(text):
    """read_problem returns or raises a ValueError subclass; anything else propagates."""
    try:
        read_problem(io.StringIO(text))
    except ValueError:
        pass


# tokens a mutation can put in place of another: sizes, edge floats, record names
_REPLACEMENTS = ["", "0", "1", "-1", "2", "3", "100000000000", "x", "-0x0.0p+0", "0x1p2000", "0x1p-1074", "nan", "inf"]
_REPLACEMENTS += ["precision", "binary16", "binary32", "signedperm", "signedblockperm", "beta1", "gamma1", "dense", "vector", *STRUCTURES]


@pytest.mark.parametrize("precision", [BINARY64, BINARY32], ids=lambda p: p.name)
@pytest.mark.parametrize("kind", list(STRUCTURES))
def test_truncated_or_mutated_problem_files_read_or_raise_a_value_error(kind, precision):
    """Every prefix, and every replacement (or, with "", deletion) of one
    token by a listed token or another token of the file."""
    text = _problem_file(kind, precision)
    for end in range(len(text)):
        _read_or_value_error(text[:end])
    tokens = text.split()
    for i in range(len(tokens)):
        for tok in _REPLACEMENTS + tokens:
            _read_or_value_error(" ".join(tokens[:i] + [tok] + tokens[i + 1 :]))


@pytest.mark.parametrize("text", ["vector -3\n", "vector 0\n", "dense 2 -1\n", "hessenberg 0\n", "blocktridiag 0 2\n"])
def test_record_sizes_must_be_positive(text):
    with pytest.raises(FormatError, match="is not positive"):
        read_matrix(io.StringIO(text))


def test_a_huge_size_allocates_nothing_before_its_entries():
    with pytest.raises(FormatError, match="end of file"):
        read_matrix(io.StringIO("hessenberg 10000000000\n0x1p0\n"))


# ---------------------------------------------------------------------------
# The CSV writers and the token reader against the row-by-row code they replace


def _csv_writer_bytes(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _finite_values(dtype):
    """Finite values from random bit patterns, with ±0, subnormals and ±max drawn often."""
    info = np.finfo(dtype)
    uint = np.dtype(f"u{info.dtype.itemsize}")
    edges = [0.0, -0.0, info.smallest_subnormal, -info.smallest_subnormal, info.smallest_normal - info.smallest_subnormal, info.smallest_normal, info.max, -info.max]
    bits = st.integers(0, np.iinfo(uint).max).map(lambda b: np.array(b, dtype=uint).view(dtype)[()])
    return st.one_of(st.sampled_from([dtype(x) for x in edges]), bits.filter(np.isfinite))


@st.composite
def _arrays(draw):
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    shape = draw(st.tuples(st.integers(1, 12)) | st.tuples(st.integers(1, 3), st.integers(1, 4)))
    return np.array(draw(st.lists(_finite_values(dtype), min_size=math.prod(shape), max_size=math.prod(shape))), dtype=dtype).reshape(shape)


# names with every character that csv quotes, and the empty name
_names = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "x"]) | st.characters(), max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_names, _arrays()), max_size=3), _names, st.lists(st.tuples(_names, _finite_values(np.float64)), max_size=8), _arrays())
def test_csv_writers_give_the_bytes_of_csv_writer(pairs, experiment, metric_rows, T):
    out = io.StringIO()
    write_vector_csv(out, pairs)
    rows = ([name, i, repr(v), v.hex()] for name, x in pairs for i, v in enumerate(np.asarray(x, dtype=np.float64).ravel().tolist()))
    assert out.getvalue() == _csv_writer_bytes(["name", "index", "value", "value_hex"], rows)

    series = MetricSeries(experiment)
    for k, (name, value) in enumerate(metric_rows):
        series.add(k, name, value)
    out = io.StringIO()
    write_metric_csv(out, series)
    rows = ([series.experiment, k, name, repr(value), hx] for k, name, value, hx in series.rows)
    assert out.getvalue() == _csv_writer_bytes(["experiment", "k", "metric", "value", "value_hex"], rows)

    out = io.StringIO()
    write_matrix_summary_csv(out, T)
    kind, dims = ("vector", f"{T.size}") if T.ndim == 1 else ("dense", "x".join(map(str, T.shape)))
    rows = ([kind, dims, i, repr(v), v.hex()] for i, v in enumerate(T.ravel().tolist()))
    assert out.getvalue() == _csv_writer_bytes(["kind", "dims", "index", "value", "value_hex"], rows)


def _floats_token_by_token(toks, dt):
    """The reading of a float slice one token at a time: every literal parsed
    (a finite one with its 0x prefix), then the first non-finite one, then the
    first one dt cannot hold is named."""
    exact = []
    for tok in toks:
        try:
            x = float.fromhex(tok)
        except (ValueError, OverflowError):
            raise FormatError(f"bad float literal {tok!r}") from None
        if math.isfinite(x) and tok.lstrip("+-")[:2] not in ("0x", "0X"):
            raise FormatError(f"bad float literal {tok!r}")
        exact.append(x)
    exact = np.array(exact)  # a Python float would be compared in dt
    with np.errstate(over="ignore"):
        a = exact.astype(dt)
    for tok, x in zip(toks, a):
        if not np.isfinite(x):
            raise FormatError(f"non-finite literal {tok!r}")
    for tok, e, x in zip(toks, exact, a):
        if x != e:
            raise FormatError(f"literal {tok!r} is not representable in {np.dtype(dt).name.replace('float', 'binary')}")
    return a


def _ints_token_by_token(toks):
    """Each token is an optional "-" and one or more ASCII digits."""
    out = []
    for tok in toks:
        digits = tok[1:] if tok.startswith("-") else tok
        if not digits or digits.strip("0123456789"):
            raise FormatError(f"expected an integer, got {tok!r}")
        out.append(int(tok))
    return out


# bad float tokens by the rank of their error: a bad literal is named before a
# non-finite one, which is named before one the precision cannot hold
_BAD_FLOATS = {
    np.float64: [["0xg", "zz", "0x", "--0x1p0", "0x1p2000", "-0x1p99999", "10", "1.5", "-3", "+0", "1e5", "1p3"], ["nan", "inf", "-inf", "Infinity"], []],
    np.float32: [["0xg", "zz", "0x1p2000", "10", "1.5", "0"], ["nan", "-inf", "0x1p200", "0x1p128", "-0x1.fffffffp127"], ["0x1.000001p0", "0x1p-150", "0x1p-1074"]],
}


def _valid_floats(dt):
    written = _finite_values(dt).map(lambda x: float(x).hex())
    return written | st.sampled_from(["0X1.8P1", "+0x1p0", "-0x0p+0", "0x.8p1", "0x1P-3"])


@st.composite
def _float_slices(draw):
    """A slice of valid literals with zero, one or two bad ones put in; the token that must be named."""
    dt = draw(st.sampled_from([np.float64, np.float32]))
    toks = draw(st.lists(_valid_floats(dt), max_size=12))
    bad = []
    for _ in range(draw(st.integers(0, 2))):
        rank = draw(st.sampled_from([r for r, lst in enumerate(_BAD_FLOATS[dt]) if lst]))
        tok = draw(st.sampled_from(_BAD_FLOATS[dt][rank]))
        pos = draw(st.integers(0, len(toks)))
        bad = [(r, p + (p >= pos), t) for r, p, t in bad] + [(rank, pos, tok)]
        toks.insert(pos, tok)
    return dt, toks, min(bad)[2] if bad else None


@settings(max_examples=300, deadline=None)
@given(_float_slices())
def test_a_float_slice_read_in_one_map_names_the_token_the_loop_names(case):
    dt, toks, named = case
    tk = _Tokens(io.StringIO(" ".join(toks)))
    if named is None:
        assert bitwise_equal(tk.floats(len(toks), dt), _floats_token_by_token(toks, dt))
        return
    with pytest.raises(FormatError) as want:
        _floats_token_by_token(toks, dt)
    with pytest.raises(FormatError) as got:
        tk.floats(len(toks), dt)
    assert str(got.value) == str(want.value)
    assert repr(named) in str(got.value)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-(10**20), 10**20).map(str), max_size=12), st.lists(st.tuples(st.sampled_from(["x", "1.5", "0x10", "1e3", "--1", "0x1p0", "٣x", "+1", "1_0", "٢", "-"]), st.integers(0, 12)), max_size=2))
def test_an_int_slice_read_in_one_map_names_the_token_the_loop_names(toks, bad):
    for tok, pos in bad:
        toks.insert(min(pos, len(toks)), tok)
    tk = _Tokens(io.StringIO(" ".join(toks)))
    if not bad:
        assert tk.ints(len(toks)) == _ints_token_by_token(toks)
        return
    with pytest.raises(FormatError) as want:
        _ints_token_by_token(toks)
    with pytest.raises(FormatError) as got:
        tk.ints(len(toks))
    assert str(got.value) == str(want.value)
    assert repr(next(t for t in toks if t in dict(bad))) in str(got.value)
