"""Bit-exact text serialization.

Matrix files are plain text: a header line naming the structure and its size,
then whitespace-separated hexadecimal float literals (float.hex format), which
round-trip losslessly.  Entry order is diagonals first, then off-diagonals:

    jacobi <n>           alpha (n), beta (n-1)
    hessenberg <n>       main diagonal (n), subdiagonal (n-1),
                         strict upper triangle row-major
    nonsymtridiag <n>    alpha (n), superdiagonal beta (n-1), subdiagonal gamma (n-1)
    lowerbidiag <n>      diagonal gamma (n), subdiagonal delta (n-1)
    blocktridiag <m> <p> diagonal blocks M_1..M_m row-major, then B_2..B_m
    dense <rows> <cols>  row-major
    vector <n>           n entries

Every size is at least 1.  Problem files start with one of the five structure
records and append `signedperm <n>` (or `signedblockperm <m> <p>`) with
index/sign pairs per column, a `beta1` record, and `gamma1` for nonsymmetric
problems.  An optional leading `precision <name>` record selects binary32;
binary64 is the default.  CSV output prints each value twice, as the shortest
round-trip decimal and as a hex literal.
"""

from __future__ import annotations

import csv

import numpy as np

from .fp import BINARY64, Precision, precision_named, precision_of
from .problems import (
    BlockTridiagonal,
    HessenbergMatrix,
    JacobiMatrix,
    LowerBidiagonal,
    NonsymTridiagonal,
    SignedBlockPermutation,
    SignedPermutation,
    StructuredProblem,
    assemble,
)


class FormatError(ValueError):
    pass


def _hex(x) -> str:
    return float(x).hex()


def _fromhex(tok: str) -> float:
    try:
        return float.fromhex(tok)
    except (ValueError, OverflowError) as e:  # OverflowError: beyond the binary64 range
        raise FormatError(f"bad float literal {tok!r}") from e


def _matrix_payload(T) -> tuple[str, np.ndarray]:
    """Header and stored entries, in file order and in T's own dtype."""
    if isinstance(T, JacobiMatrix):
        return f"{T.kind} {T.n}", np.concatenate([T.alpha, T.beta])
    if isinstance(T, HessenbergMatrix):
        H = T.entries
        return f"{T.kind} {T.n}", np.concatenate([np.diagonal(H), np.diagonal(H, -1), H[np.triu_indices(T.n, 1)]])
    if isinstance(T, NonsymTridiagonal):
        return f"{T.kind} {T.n}", np.concatenate([T.alpha, T.beta, T.gamma])
    if isinstance(T, LowerBidiagonal):
        return f"{T.kind} {T.n}", np.concatenate([T.gamma, T.delta])
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
    if precision.name != "binary64":
        out.write(f"precision {precision.name}\n")
    out.write(header + "\n")
    vals = vals.tolist()
    for start in range(0, len(vals), 6):
        out.write(" ".join(_hex(v) for v in vals[start : start + 6]) + "\n")


class _Tokens:
    """Whitespace token stream over a text file."""

    def __init__(self, f):
        self._it = iter(tok for line in f for tok in line.split())
        self._push = []

    def next(self) -> str:
        if self._push:
            return self._push.pop()
        try:
            return next(self._it)
        except StopIteration:
            raise FormatError("unexpected end of file") from None

    def end(self):
        tok = self.peek()
        if tok is not None:
            raise FormatError(f"unexpected token {tok!r} after the record")

    def peek(self) -> str | None:
        if not self._push:
            try:
                self._push.append(next(self._it))
            except StopIteration:
                return None
        return self._push[-1]

    def ints(self, k: int) -> list[int]:
        out = []
        for _ in range(k):
            tok = self.next()
            try:
                out.append(int(tok))
            except ValueError:
                raise FormatError(f"expected an integer, got {tok!r}") from None
        return out

    def sizes(self, k: int) -> list[int]:
        """k record sizes, each at least 1."""
        out = self.ints(k)
        if min(out) < 1:
            raise FormatError(f"record size {min(out)} is not positive")
        return out

    def floats(self, k: int, dt) -> np.ndarray:
        """k literals, each exactly representable in dt and finite there."""
        toks = [self.next() for _ in range(k)]
        exact = np.array([_fromhex(tok) for tok in toks])
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
    if kind == "jacobi":
        (n,) = tk.sizes(1)
        return JacobiMatrix(tk.floats(n, dt), tk.floats(n - 1, dt))
    if kind == "hessenberg":
        (n,) = tk.sizes(1)
        diag, sub, upper = tk.floats(n, dt), tk.floats(n - 1, dt), tk.floats(n * (n - 1) // 2, dt)
        H = np.zeros((n, n), dtype=dt)  # allocated once the entries are read, whatever size the header claims
        H[np.diag_indices(n)] = diag
        H[np.arange(1, n), np.arange(n - 1)] = sub
        H[np.triu_indices(n, 1)] = upper
        return HessenbergMatrix(H)
    if kind == "nonsymtridiag":
        (n,) = tk.sizes(1)
        return NonsymTridiagonal(tk.floats(n, dt), tk.floats(n - 1, dt), tk.floats(n - 1, dt))
    if kind == "lowerbidiag":
        (n,) = tk.sizes(1)
        return LowerBidiagonal(tk.floats(n, dt), tk.floats(n - 1, dt))
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
    kind = tk.next()
    if kind == "signedperm":
        (n,) = tk.sizes(1)
        pairs = tk.ints(2 * n)
        return SignedPermutation(np.array(pairs[0::2]), np.array(pairs[1::2]))
    if kind == "signedblockperm":
        m, p = tk.sizes(2)
        block_perm = np.array(tk.ints(m))
        blocks = []
        for _ in range(m):
            pairs = tk.ints(2 * p)
            blocks.append(SignedPermutation(np.array(pairs[0::2]), np.array(pairs[1::2])))
        return SignedBlockPermutation(block_perm, tuple(blocks))
    raise FormatError(f"expected a signed permutation record, got {kind!r}")


def write_problem(out, prob: StructuredProblem):
    write_matrix(out, prob.T)
    P = prob.P
    if isinstance(P, SignedBlockPermutation):
        out.write(f"signedblockperm {P.m} {P.p}\n")
        out.write(" ".join(str(i) for i in P.block_perm) + "\n")
        for blk in P.blocks:
            out.write(" ".join(f"{r} {s}" for r, s in zip(blk.perm, blk.signs)) + "\n")
    else:
        out.write(f"signedperm {P.n}\n")
        for r, s in zip(P.perm, P.signs):
            out.write(f"{r} {s}\n")
    out.write(f"beta1 {_hex(prob.beta1)}\n")
    if prob.gamma1 is not None:
        out.write(f"gamma1 {_hex(prob.gamma1)}\n")


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


def _decimal(x) -> str:
    return repr(float(x))


def write_metric_csv(out, series):
    w = csv.writer(out)
    w.writerow(["experiment", "k", "metric", "value", "value_hex"])
    for k, name, value, hx in series.rows:
        w.writerow([series.experiment, k, name, _decimal(value), hx])


def write_reports_csv(out, reports):
    w = csv.writer(out)
    w.writerow(["algorithm", "n", "seed", "precision", "projected_match", "basis_match", "breakdown_match", "mismatch"])
    for r in reports:
        w.writerow([r.algorithm, r.n, r.seed, r.precision, int(r.projected_match), int(r.basis_match), int(r.breakdown_match), r.mismatch or ""])


def write_matrix_summary_csv(out, T):
    """CSV summary of a structure: one row per stored entry."""
    header, vals = _matrix_payload(T)
    parts = header.split()
    w = csv.writer(out)
    w.writerow(["kind", "dims", "index", "value", "value_hex"])
    dims = "x".join(parts[1:])
    for i, v in enumerate(vals):
        w.writerow([parts[0], dims, i, _decimal(v), _hex(v)])


def write_vector_csv(out, pairs):
    """One row per entry of each (name, array) pair, the array raveled row-major."""
    w = csv.writer(out)
    w.writerow(["name", "index", "value", "value_hex"])
    for name, x in pairs:
        w.writerows([name, i, repr(v), v.hex()] for i, v in enumerate(np.asarray(x, dtype=np.float64).ravel().tolist()))
