"""Bit-exact text serialization.

Matrix files are plain text: a header line naming the structure and its size,
then whitespace-separated hexadecimal float literals (float.hex format), which
round-trip losslessly.  Entry order is diagonals first, then off-diagonals.
A banded record (jacobi, nonsymtridiag, lowerbidiag) stores its type's
dataclass fields in field order, by the band rule of problems' banded base
(the first field n entries long, each later one n-1):

    jacobi <n>           alpha (n), beta (n-1)
    hessenberg <n>       main diagonal (n), subdiagonal (n-1),
                         strict upper triangle row-major
    nonsymtridiag <n>    alpha (n), superdiagonal beta (n-1), subdiagonal gamma (n-1)
    lowerbidiag <n>      diagonal gamma (n), subdiagonal delta (n-1)
    blocktridiag <m> <p> diagonal blocks M_1..M_m row-major, then B_2..B_m
    dense <rows> <cols>  row-major
    vector <n>           n entries

Every size is at least 1.  Sizes and permutation entries are ASCII decimal
integers (`-?[0-9]+`).  Problem files start with one of the five structure
records and append `signedperm <n>` (or `signedblockperm <m> <p>`) with
index/sign pairs per column, a `beta1` record, and `gamma1` for nonsymmetric
problems.  An optional leading `precision <name>` record selects binary32;
binary64 is the default.  A finite literal needs its `0x` prefix (float.fromhex
reads `10` as 16.0).  CSV output prints each value twice, as the shortest
round-trip decimal and as a hex literal, in the bytes of the csv module's default
dialect: `\r\n` line ends, a cell quoted only when it holds `,`, `"` or a line break.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import re
from dataclasses import fields

import numpy as np

from .fp import BINARY64, Precision, precision_named, precision_of
from .problems import (
    BlockTridiagonal,
    HessenbergMatrix,
    STRUCTURES,
    SignedBlockPermutation,
    SignedPermutation,
    StructuredProblem,
    _Banded,
    assemble,
)


class FormatError(ValueError):
    pass


def _fromhex(tok: str) -> float:
    try:
        x = float.fromhex(tok)
    except (ValueError, OverflowError):  # OverflowError: beyond the binary64 range
        x = None
    if x is None or (math.isfinite(x) and "x" not in tok.lower()):  # nan and inf are the caller's to reject
        raise FormatError(f"bad float literal {tok!r}")
    return x


def _matrix_payload(T) -> tuple[str, np.ndarray]:
    """Header and stored entries, in file order and in T's own dtype."""
    if isinstance(T, _Banded):
        return f"{T.kind} {T.n}", np.concatenate([getattr(T, f.name) for f in fields(T)])
    if isinstance(T, HessenbergMatrix):
        H = T.entries
        return f"{T.kind} {T.n}", np.concatenate([np.diagonal(H), np.diagonal(H, -1), H[np.triu_indices(T.n, 1)]])
    if isinstance(T, BlockTridiagonal):
        return f"{T.kind} {T.m} {T.p}", np.concatenate([M.ravel() for M in T.M] + [B.ravel() for B in T.B])
    if isinstance(T, np.ndarray):
        if T.ndim == 1:
            return f"vector {len(T)}", T
        if T.ndim == 2:
            return f"dense {T.shape[0]} {T.shape[1]}", T.ravel()
    raise TypeError(f"cannot serialize {type(T).__name__}")


def write_matrix(out, T):
    """Write T's record, after a `precision` record unless T is binary64."""
    header, vals = _matrix_payload(T)
    precision = precision_of(vals)
    if precision is not BINARY64:
        out.write(f"precision {precision.name}\n")
    hexes = list(map(float.hex, vals.tolist()))
    out.write(header + "\n" + "".join(" ".join(hexes[i : i + 6]) + "\n" for i in range(0, len(hexes), 6)))


# k integer tokens joined by single spaces, each ASCII -?[0-9]+; int() alone
# would also take "+1", "1_0" and the decimal digits of other scripts ("٢")
_INTS = re.compile(r"(?:-?[0-9]+(?: -?[0-9]+)*)?")


class _Tokens:
    """The whitespace-separated tokens of a text file, read once, and the
    index of the next one."""

    def __init__(self, f):
        self._toks = f.read().split()
        self._i = 0

    def take(self, k: int) -> list[str]:
        toks = self._toks[self._i : self._i + k]
        if len(toks) < k:
            raise FormatError("unexpected end of file")
        self._i += k
        return toks

    def next(self) -> str:
        return self.take(1)[0]

    def end(self):
        tok = self.peek()
        if tok is not None:
            raise FormatError(f"unexpected token {tok!r} after the record")

    def peek(self) -> str | None:
        return self._toks[self._i] if self._i < len(self._toks) else None

    def ints(self, k: int) -> list[int]:
        toks = self.take(k)
        if _INTS.fullmatch(" ".join(toks)):
            return list(map(int, toks))
        bad = next(tok for tok in toks if not _INTS.fullmatch(tok))  # the first bad token
        raise FormatError(f"expected an integer, got {bad!r}")

    def sizes(self, k: int) -> list[int]:
        """k record sizes, each at least 1."""
        out = self.ints(k)
        if min(out) < 1:
            raise FormatError(f"record size {min(out)} is not positive")
        return out

    def floats(self, k: int, dt) -> np.ndarray:
        """k literals, each exactly representable in dt and finite there."""
        toks = self.take(k)
        exact = None
        if "".join(toks).lower().count("x") == k:  # float.fromhex allows an x only in a 0x prefix
            with contextlib.suppress(ValueError, OverflowError):
                exact = list(map(float.fromhex, toks))
        if exact is None:  # name the first bad token
            exact = [_fromhex(tok) for tok in toks]
        exact = np.array(exact)
        with np.errstate(over="ignore"):  # a binary32 overflow is reported below
            a = exact.astype(dt)
        bad = np.flatnonzero(~np.isfinite(a))
        if bad.size:
            raise FormatError(f"non-finite literal {toks[bad[0]]!r}")
        bad = np.flatnonzero(a != exact)
        if bad.size:
            raise FormatError(f"literal {toks[bad[0]]!r} is not representable in {precision_of(a).name}")
        return a


def _read_structure(tk: _Tokens, precision: Precision):
    dt = precision.dtype
    kind = tk.next()
    cls = STRUCTURES.get(kind)
    if cls and issubclass(cls, _Banded):
        (n,) = tk.sizes(1)
        return cls(*[tk.floats(n - (i > 0), dt) for i, _ in enumerate(fields(cls))])
    if kind == "hessenberg":
        (n,) = tk.sizes(1)
        diag, sub, upper = tk.floats(n, dt), tk.floats(n - 1, dt), tk.floats(n * (n - 1) // 2, dt)
        H = np.zeros((n, n), dtype=dt)  # allocated once the entries are read, whatever size the header claims
        H[np.diag_indices(n)] = diag
        H[np.arange(1, n), np.arange(n - 1)] = sub
        H[np.triu_indices(n, 1)] = upper
        return HessenbergMatrix(H)
    if kind == "blocktridiag":
        m, p = tk.sizes(2)
        M = tuple(tk.floats(p * p, dt).reshape(p, p) for _ in range(m))
        B = tuple(tk.floats(p * p, dt).reshape(p, p) for _ in range(m - 1))
        return BlockTridiagonal(M, B)
    if kind == "dense":
        r, c = tk.sizes(2)
        return tk.floats(r * c, dt).reshape(r, c)
    if kind == "vector":
        (n,) = tk.sizes(1)
        return tk.floats(n, dt)
    raise FormatError(f"unknown structure kind {kind!r}")


def _read_precision(tk: _Tokens) -> Precision:
    """The optional leading `precision` record; binary64 without one."""
    if tk.peek() != "precision":
        return BINARY64
    tk.next()
    return precision_named(tk.next())


def read_matrix(f):
    tk = _Tokens(f)
    T = _read_structure(tk, _read_precision(tk))
    tk.end()
    return T


def _read_signedperm(tk: _Tokens):
    def signed_permutation(n):  # n (row, sign) pairs
        pairs = tk.ints(2 * n)
        return SignedPermutation(np.array(pairs[0::2]), np.array(pairs[1::2]))

    kind = tk.next()
    if kind == "signedperm":
        (n,) = tk.sizes(1)
        return signed_permutation(n)
    if kind == "signedblockperm":
        m, p = tk.sizes(2)
        block_perm = np.array(tk.ints(m))
        return SignedBlockPermutation(block_perm, tuple(signed_permutation(p) for _ in range(m)))
    raise FormatError(f"expected a signed permutation record, got {kind!r}")


def write_problem(out, prob: StructuredProblem):
    if len(prob.v) != prob.T.n:  # checked before any write: the records hold the leading d x d problem only
        raise ValueError("a grade-deficient extension has no problem-file record")
    write_matrix(out, prob.T)
    P = prob.P
    if isinstance(P, SignedBlockPermutation):
        out.write(f"signedblockperm {P.m} {P.p}\n")
        out.write(" ".join(str(i) for i in P.block_perm) + "\n")
        for blk in P.blocks:
            out.write(" ".join(f"{r} {s}" for r, s in zip(blk.perm, blk.signs)) + "\n")
    else:
        out.write(f"signedperm {P.n}\n" + "".join(f"{r} {s}\n" for r, s in zip(P.perm.tolist(), P.signs.tolist())))
    out.write(f"beta1 {float(prob.beta1).hex()}\n")
    if prob.gamma1 is not None:
        out.write(f"gamma1 {float(prob.gamma1).hex()}\n")


def read_problem(f) -> StructuredProblem:
    tk = _Tokens(f)
    precision = _read_precision(tk)
    if tk.peek() in ("dense", "vector"):
        raise FormatError(f"a problem needs a structure record, not {tk.peek()}")
    T = _read_structure(tk, precision)
    P = _read_signedperm(tk)
    if tk.next() != "beta1":
        raise FormatError("expected a beta1 record")
    (beta1,) = tk.floats(1, precision.dtype)
    gamma1 = None
    if tk.peek() == "gamma1":
        tk.next()
        (gamma1,) = tk.floats(1, precision.dtype)
    tk.end()
    return assemble(T, P, beta1, gamma1=gamma1)


# ---------------------------------------------------------------------------
# CSV


def _csv_cells(*cells) -> str:
    """`cells` as csv.writer writes them inside a longer row (a lone empty cell would be `""`)."""
    buf = io.StringIO()
    csv.writer(buf).writerow([*cells, ""])
    return buf.getvalue()[:-3]  # the last `,` and the line end


def _value_lines(lead: str, keyed) -> str:
    """A CSV line `lead,key,value,value_hex` per (key, value) of `keyed`, value a Python float
    and lead and key CSV text.  A float repr or hex literal needs no quoting."""
    return "".join(f"{lead},{key},{v!r},{v.hex()}\r\n" for key, v in keyed)


def write_metric_csv(out, series):
    rows = ((f"{k},{_csv_cells(name)}", value) for k, name, value, _ in series.rows)
    out.write("experiment,k,metric,value,value_hex\r\n" + _value_lines(_csv_cells(series.experiment), rows))


def write_reports_csv(out, reports):
    # csv.writer quotes the mismatch cell, whose text holds commas (`V[3,5]`).
    w = csv.writer(out)
    w.writerow(["algorithm", "n", "seed", "precision", "projected_match", "basis_match", "breakdown_match", "mismatch"])
    for r in reports:
        w.writerow([r.algorithm, r.n, r.seed, r.precision, int(r.projected_match), int(r.basis_match), int(r.breakdown_match), r.mismatch or ""])


def write_matrix_summary_csv(out, T):
    """CSV summary of a structure: one row per stored entry."""
    header, vals = _matrix_payload(T)
    kind, *dims = header.split()
    out.write("kind,dims,index,value,value_hex\r\n" + _value_lines(_csv_cells(kind, "x".join(dims)), enumerate(vals.tolist())))


def write_vector_csv(out, pairs):
    """One row per entry of each (name, array) pair, the array raveled row-major."""
    lines = (_value_lines(_csv_cells(name), enumerate(np.asarray(x, dtype=np.float64).ravel().tolist())) for name, x in pairs)
    out.write("name,index,value,value_hex\r\n" + "".join(lines))
