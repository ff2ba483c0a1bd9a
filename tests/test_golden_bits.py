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

import ctypes
import dataclasses
import hashlib
import json
import platform
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

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
    start vectors, and {p: n x p starting block} for p = 2 and 3 where p
    divides n.  The 3-column block is drawn last: with two columns CGS and
    MGS block QR perform the same operations, with three they differ."""
    g = make_rng(1000 * seed + 100 * n + FLAVORS.index(flavor) + (10 if dtype == np.float32 else 0))
    A = _entries(g, (n, n), dtype, flavor)
    B = _entries(g, (n, n), dtype, flavor)
    sym = np.triu(B) + np.triu(B, 1).T
    spd = sym.copy()
    spd[np.arange(n), np.arange(n)] = np.abs(np.diagonal(sym)) + dtype(2.0**10)  # dominates rows of n <= 12 entries below 2^6
    v = _entries(g, (n,), dtype, flavor)
    w = _entries(g, (n,), dtype, flavor)
    blocks = {p: _entries(g, (n, p), dtype, flavor) for p in (2, 3) if n % p == 0}
    return {"nonsym": A, "sym": sym, "spd": spd}, v, w, blocks


def _runs():
    """(entry label, operand kind, RunInputs keyword choices, block size or
    None) for every variant of every ALGORITHMS entry."""
    for name in ALGORITHMS:
        if name == "lanczos":
            for variant in VARIANTS:
                for reorth in REORTH:
                    for kind in ("sym", "spd"):
                        yield f"{name}[{variant},{reorth}]", kind, {"variant": variant, "reorth": reorth}, None
        elif name == "blocklanczos":
            for qr in VARIANTS:
                for kind in ("nonsym", "sym"):
                    yield f"{name}[{qr}]", kind, {"qr_variant": qr}, 2
                    yield f"{name}[{qr},p=3]", kind, {"qr_variant": qr}, 3
        elif name in ("cg-hs", "cglanczos"):
            for kind in ("sym", "spd"):
                yield name, kind, {}, None
        else:
            yield name, "nonsym", {}, None


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
                        mats, v, w, blocks = _inputs(dtype, n, seed, flavor)
                        for label, kind, opts, p in _runs():
                            if p is not None and p not in blocks:
                                continue
                            x = RunInputs(mats[kind], v, w, blocks.get(p), **opts)
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


def environment_faults() -> list:
    """The attributes of the floating-point environment that the digests
    assume and this process lacks: round-to-nearest-even in each format (1 +
    3/4 ulp rounds up, 1 + 1/4 ulp and -1 - 1/4 ulp round back to +-1), and
    gradual underflow.  Half the smallest normal must keep nonzero bits (read
    as bits: with denormals-are-zero, a float compare reads it as 0), and the
    smallest subnormal times 2^nmant must give the smallest normal, a normal
    result that flush-to-zero leaves alone."""
    faults = []
    for dtype, name in zip(DTYPES, ("binary64", "binary32")):
        info, one = np.finfo(dtype), dtype(1)
        if not (one + info.eps * dtype(0.75) == one + info.eps and one + info.eps * dtype(0.25) == one and -one - info.eps * dtype(0.25) == -one):
            faults.append(f"{name} round-to-nearest-even")
        if not np.array([info.smallest_normal / dtype(2)]).view(f"u{info.bits // 8}")[0]:
            faults.append(f"{name} gradual underflow (flush-to-zero is set)")
        if info.smallest_subnormal * dtype(1 << info.nmant) != info.smallest_normal:  # not 2.0**nmant: libm's pow rounds under a directed mode
            faults.append(f"{name} subnormal operands (denormals-are-zero is set)")
    return faults


def require_default_environment():
    """Fail, naming each missing attribute, before a digest is compared."""
    faults = environment_faults()
    assert not faults, f"the floating-point environment lacks {faults}, which every digest assumes"


def record(path, compute):
    """Write compute()'s digests to path; exit without computing or writing,
    naming each missing attribute, in an environment the digests do not assume."""
    faults = environment_faults()
    if faults:
        sys.exit(f"not recorded: the floating-point environment lacks {faults}, which every digest assumes")
    path.write_text(json.dumps(compute(), indent=1) + "\n")


# glibc's directed rounding modes (<bits/fenv.h>) for the machines they are listed for here
_ROUNDING_MODES = {
    "x86_64": {"FE_UPWARD": 0x800, "FE_DOWNWARD": 0x400, "FE_TOWARDZERO": 0xC00},
    "i686": {"FE_UPWARD": 0x800, "FE_DOWNWARD": 0x400, "FE_TOWARDZERO": 0xC00},
    "aarch64": {"FE_UPWARD": 0x400000, "FE_DOWNWARD": 0x800000, "FE_TOWARDZERO": 0xC00000},
}


def _glibc_libm():
    """glibc's libm with the signatures of the four fenv functions declared."""
    libm = ctypes.CDLL("libm.so.6")
    libm.fegetround.argtypes, libm.fesetround.argtypes = [], [ctypes.c_int]
    libm.fegetenv.argtypes = libm.fesetenv.argtypes = [ctypes.c_void_p]
    for f in (libm.fegetround, libm.fesetround, libm.fegetenv, libm.fesetenv):
        f.restype = ctypes.c_int
    return libm


@pytest.mark.parametrize("mode", ["FE_UPWARD", "FE_DOWNWARD", "FE_TOWARDZERO"])
def test_the_environment_check_names_a_directed_rounding_mode(tmp_path, mode):
    """Each clause of the rounding probe is needed: only 1 + 1/4 ulp catches
    FE_UPWARD, only 1 + 3/4 ulp FE_TOWARDZERO.  The recorder refuses the
    mode before it computes or writes a digest."""
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("libm is not glibc: this test sets the rounding mode with glibc's fesetround")
    if platform.machine() not in _ROUNDING_MODES:
        pytest.skip(f"glibc's rounding-mode values are listed here for {sorted(_ROUNDING_MODES)} only, not {platform.machine()}")
    libm = _glibc_libm()
    old = libm.fegetround()
    assert libm.fesetround(_ROUNDING_MODES[platform.machine()][mode]) == 0
    try:
        faults = environment_faults()
        with pytest.raises(SystemExit) as refused:
            record(tmp_path / "golden.json", lambda: pytest.fail("the recorder computed digests"))
    finally:
        libm.fesetround(old)
    assert libm.fegetround() == old
    assert faults == ["binary64 round-to-nearest-even", "binary32 round-to-nearest-even"]
    assert str(faults) in str(refused.value.code) and not (tmp_path / "golden.json").exists()
    assert environment_faults() == []


@pytest.mark.parametrize("mxcsr, names", [(0x8000, ["gradual underflow (flush-to-zero is set)"]), (0x0040, ["subnormal operands (denormals-are-zero is set)"])], ids=["FTZ", "DAZ"])
def test_the_environment_check_names_flush_to_zero_and_denormals_are_zero(mxcsr, names):
    """Sets one MXCSR bit through glibc's fesetenv, on an fenv_t whose MXCSR
    word is its last 4 of 32 bytes, as on x86-64 glibc."""
    if platform.libc_ver()[0] != "glibc" or platform.machine() != "x86_64":
        pytest.skip("the fenv_t layout edited here (MXCSR at byte 28) is x86-64 glibc's")
    libm = _glibc_libm()
    old, env = (ctypes.c_uint8 * 32)(), (ctypes.c_uint8 * 32)()
    assert libm.fegetenv(old) == 0 and libm.fegetenv(env) == 0
    env[28:32] = list((int.from_bytes(bytes(env[28:32]), "little") | mxcsr).to_bytes(4, "little"))
    assert libm.fesetenv(env) == 0
    try:
        faults = environment_faults()
    finally:
        libm.fesetenv(old)
    assert faults == [f"{precision} {name}" for precision in ("binary64", "binary32") for name in names]
    assert environment_faults() == []


def test_golden_bits():
    require_default_environment()
    want = json.loads(GOLDEN.read_text())
    got = compute()
    assert sorted(got) == sorted(want)
    moved = [key for key in want if got[key] != want[key]]
    assert not moved, f"bits moved in {moved}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record(GOLDEN, compute)
