import io

import numpy as np
import pytest

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
from krylovexact.problems import (
    random_hessenberg,
    random_jacobi,
    random_lower_bidiagonal,
    random_nonsym_tridiagonal,
    random_structured_problem,
)


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
    T = random_hessenberg(6, 1)
    T2 = _roundtrip_matrix(T)
    assert bitwise_equal(T2.entries, T.entries)


def test_nonsym_roundtrip_bitwise():
    T = random_nonsym_tridiagonal(6, 2, positive_beta=False)
    T2 = _roundtrip_matrix(T)
    assert bitwise_equal(T2.alpha, T.alpha)
    assert bitwise_equal(T2.beta, T.beta)
    assert bitwise_equal(T2.gamma, T.gamma)


def test_lower_bidiagonal_roundtrip_bitwise():
    T = random_lower_bidiagonal(5, 4)
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
    write_vector_csv(out, "v", np.array([1.5, -0.0]))
    body = out.getvalue()
    assert "-0.0,-0x0.0p+0" in body


@pytest.mark.parametrize("literal", ["nan", "inf", "-inf", "0x1p200"])
def test_non_finite_literals_are_rejected(literal):
    header = "precision binary32\n" if literal == "0x1p200" else ""  # 2^200 overflows binary32
    with pytest.raises(FormatError, match="non-finite"):
        read_matrix(io.StringIO(f"{header}dense 1 2\n{literal} 0x1p0\n"))


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
