import functools
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krylovexact.fileio import (
    FormatError,
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
from krylovexact.harness import MetricSeries, exactness_check
from krylovexact.problems import STRUCTURES, random_jacobi, random_structure, random_structured_problem


def _roundtrip_matrix(T):
    buf = io.StringIO()
    write_matrix(buf, T)
    buf.seek(0)
    return read_matrix(buf)


def test_jacobi_roundtrip_bitwise():
    T = random_jacobi(7, 3)
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
    write_matrix_summary_csv(out, random_jacobi(3, 0))
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
