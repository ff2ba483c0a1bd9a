"""Bit-identity gate: every output of every algorithm entry, on a fixed grid
of general (unstructured) inputs in both precisions, hashed over its raw bits
and compared with tests/golden_bits.json.

A refactor that keeps the evaluation order keeps every digest.  A change that
moves one bit anywhere in the grid changes the digest of the entry and
precision it moved in.  To record the file again (only for a change that is
meant to move bits, with the reason in CHANGES.md):

    PYTHONPATH=src python tests/test_golden_bits.py --record
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from krylovexact.fp import precision_of
from krylovexact.harness import ALGORITHMS, RunInputs, a_orthogonality_loss, loss_of_orthogonality, sqrt_square_violations
from krylovexact.lanczos import REORTH, VARIANTS
from krylovexact.problems import make_rng

GOLDEN = Path(__file__).with_name("golden_bits.json")
DTYPES = (np.float64, np.float32)
SIZES = (1, 2, 5, 12)
SEEDS = (0, 1)
FLAVORS = ("plain", "subnormal", "huge")


def _feed(h, obj):
    """Raw bits of arrays and scalars, with their dtype and shape; the
    structure of lists, tuples and dataclasses around them."""
    if isinstance(obj, np.ndarray):
        a = np.ascontiguousarray(obj)
        h.update(f"nd{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    elif isinstance(obj, np.generic):
        h.update(f"np{obj.dtype.str}".encode())
        h.update(obj.tobytes())
    elif isinstance(obj, bool) or obj is None:
        h.update(repr(obj).encode())
    elif isinstance(obj, int):
        h.update(f"i{obj}".encode())
    elif isinstance(obj, float):
        h.update(f"f{obj.hex()}".encode())
    elif isinstance(obj, str):
        h.update(f"s{len(obj)}:{obj}".encode())
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _feed(h, f.name)
            _feed(h, getattr(obj, f.name))
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def _outcome(f, *args):
    """f's result, or the type name of what it raised."""
    try:
        return f(*args)
    except Exception as e:
        return f"raised {type(e).__name__}"


def _entries(g, shape, dtype, flavor):
    """Full-mantissa entries of magnitude 2^-4 .. 2^6 drawn as integers and
    scaled by ldexp (no libm); a quarter of them are +0 or -0.  'subnormal'
    makes another quarter subnormal in the dtype, 'huge' one entry near its
    overflow threshold."""
    size = int(np.prod(shape))
    mant = g.integers(2**52, 2**53, size).astype(np.float64) * (2 * g.integers(0, 2, size) - 1)
    x = np.ldexp(mant, g.integers(-56, -46, size))
    x[g.integers(0, size, size // 4)] = np.where(g.integers(0, 2, size // 4) == 1, -0.0, 0.0)
    x = x.astype(dtype)
    info = np.finfo(dtype)
    if flavor == "subnormal":
        count = (size + 3) // 4
        x[g.integers(0, size, count)] = g.integers(1, 2**10, count).astype(dtype) * info.smallest_subnormal
    elif flavor == "huge":
        x[g.integers(0, size)] = np.ldexp(dtype(1.5), info.maxexp - 2)
    return x.reshape(shape)


def _inputs(dtype, n, seed, flavor):
    """Nonsymmetric A, bitwise symmetric indefinite and SPD matrices, two
    start vectors and (n even) an n x 2 starting block."""
    g = make_rng(1000 * seed + 100 * n + FLAVORS.index(flavor) + (10 if dtype == np.float32 else 0))
    A = _entries(g, (n, n), dtype, flavor)
    B = _entries(g, (n, n), dtype, flavor)
    sym = np.triu(B) + np.triu(B, 1).T
    spd = sym.copy()
    spd[np.arange(n), np.arange(n)] = np.abs(np.diagonal(sym)) + dtype(2.0**10)  # dominates rows of n <= 12 entries below 2^6
    v = _entries(g, (n,), dtype, flavor)
    w = _entries(g, (n,), dtype, flavor)
    U1 = _entries(g, (n, 2), dtype, flavor) if n % 2 == 0 else None
    return {"nonsym": A, "sym": sym, "spd": spd}, v, w, U1


def _runs():
    """(entry label, operand kind, RunInputs keyword choices) for every
    variant of every ALGORITHMS entry."""
    for name in ALGORITHMS:
        if name in ("lanczos", "deficient"):
            for variant in VARIANTS:
                for reorth in REORTH:
                    for kind in ("sym", "spd"):
                        yield f"{name}[{variant},{reorth}]", kind, {"variant": variant, "reorth": reorth}
        elif name == "blocklanczos":
            for qr in VARIANTS:
                for kind in ("nonsym", "sym"):
                    yield f"{name}[{qr}]", kind, {"qr_variant": qr}
        elif name in ("cg-hs", "cglanczos"):
            for kind in ("sym", "spd"):
                yield name, kind, {}
        else:
            yield name, "nonsym", {}


def compute() -> dict:
    """{label/precision: digest} over the whole grid."""
    hashes = {}

    def h(label, dtype):
        key = f"{label}/{'binary64' if dtype == np.float64 else 'binary32'}"
        return hashes.setdefault(key, hashlib.sha256())

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for dtype in DTYPES:
            for n in SIZES:
                for seed in SEEDS:
                    for flavor in FLAVORS:
                        mats, v, w, U1 = _inputs(dtype, n, seed, flavor)
                        for label, kind, opts in _runs():
                            if label.startswith("blocklanczos") and U1 is None:
                                continue
                            x = RunInputs(mats[kind], v, w, U1, **opts)
                            full = ALGORITHMS[label.split("[")[0]].steps(x)
                            for k in (full, full // 2):
                                res = _outcome(ALGORITHMS[label.split("[")[0]].run, x, k)
                                _feed(h(label, dtype), (n, seed, flavor, kind, k, res))
                                if label.startswith(("lanczos", "arnoldi")) and not isinstance(res, str):
                                    _feed(h("loss_of_orthogonality", dtype), _outcome(loss_of_orthogonality, res.V))
                                if label.startswith("cg") and kind == "spd" and not isinstance(res, str):
                                    dirs = [p for p in res.p if np.any(p != 0)]
                                    if dirs:
                                        _feed(h("a_orthogonality_loss", dtype), _outcome(a_orthogonality_loss, np.column_stack(dirs), x.A))
            for seed in SEEDS:
                _feed(h("sqrt_square_violations", dtype), sqrt_square_violations(64, precision_of(np.zeros(1, dtype)), seed))
    return {key: hashes[key].hexdigest() for key in sorted(hashes)}


def test_golden_bits():
    want = json.loads(GOLDEN.read_text())
    got = compute()
    assert sorted(got) == sorted(want)
    moved = [key for key in want if got[key] != want[key]]
    assert not moved, f"bits moved in {moved}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps(compute(), indent=1) + "\n")
