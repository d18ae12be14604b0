"""Random-matrix concentration laboratory.

Pipeline: draw a symmetric matrix Y with i.i.d. upper-triangle entries
(diagonal included) from an entry law nu, normalize X = Y / sqrt(n), and
study how the empirical spectral integral (1/n) sum f(lambda_i)
concentrates around its mean.  When nu has no log-Sobolev inequality of
its own, the entries are mollified: Y~ = Y + sqrt(delta) G with G an
independent symmetric Gaussian matrix, so the entry law becomes
nu * gamma_delta and the `bg` bracket supplies a constant.

The deviation probability splits into three parts, mirrored by the
per-cell diagnostics of the experiment report:

  term 1:  P(|int f dmu_X - int f dmu_X~| >= eps/3)  <=  9 lip^2 delta / eps^2,
  term 2:  2 exp(-n^2 eps^2 / (36 c lip^2))          (Guionnet, eps/3 form),
  term 3:  |E int f dmu_X~ - E int f dmu_X|          <=  lip sqrt(delta).

Randomness is counter-based: every (seed, batch, trial, role) tuple keys
an independent Philox stream, and each matrix entry consumes exactly one
uniform from its stream in a fixed order.  A stream's key is numpy's
``SeedSequence`` derivation from that tuple.  It does not depend on how
the trials are split, so the keys of a batch are derived once per role,
for all of its trials together, and not once per chunk or block; one
Philox is then re-keyed for each stream in turn.  Nor does it depend on
n: an n x n triangle is the first n(n+1)/2 draws of its stream, so one
batch serves every matrix size of the experiment, and each stream is read
once per batch, to the largest size, each size taking its triangle as the
stream's prefix.

The experiment runs each batch as chunks of consecutive trials.  Every
trial keeps its own streams, and a chunk takes its rows of the batch's
keys, but a chunk's draws are taken into one block: the block is mapped
to uniforms and through the entry law once, and the Gaussian block of
the mollifier goes through one call of ``mollify.ndtri``, the normal
quantile the Gaussian entry law uses too.  Each size's matrices then go
to LAPACK as one stacked eigen-decomposition of their lower triangles, a
chunk holding at most ``CHUNK_BYTES`` of the largest size's dense
matrices.  For f = identity no matrix is built or decomposed: (1/n) sum
lambda_i = tr X / n, so the sampler keeps only the diagonal entries of
the triangles, the union of every size's, selected from the raw draws of
streams still read to the largest triangle's length, so they carry the
bits they have in the full matrix; a chunk then holds ``CHUNK_BYTES`` of
those.  ``sample_wigner`` and ``mollify_ensemble`` are one-row calls of
the same samplers, each deriving its one key row.  With several workers,
the chunks of a batch are split across threads and reassembled in chunk
order; each matrix's
eigenvalues are computed alone either way, so results are bit-identical
regardless of worker count.  The workers are the one level of
parallelism: numpy's OpenBLAS runs each ``eigvalsh`` on one thread, so
it starts no pool of its own next to them, and the eigenvalues do not
depend on the host's core count.  The default worker count is the number
of CPUs the process may use.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import bg as _bg
from .errors import (
    DimensionMismatch,
    NegativeDelta,
    NoFeasibleDelta,
    NonPositiveArg,
    NumericalOverflow,
    UnknownFunction,
    UnknownLaw,
    ValidationError,
)
from .errors import entries, fields, number
from .measure import Measure1D, build_measure, quantile, two_point, uniform
from .mollify import MollifiedDensity, ndtri

# role tags for stream derivation
_ROLE_ENTRIES = 1
_ROLE_GAUSS = 2

# dense matrices of the largest size per chunk (kept diagonals per chunk
# for f = identity).  Larger chunks save little more time, and with
# several workers the allocator keeps every thread's chunk, so peak memory
# grows with this.
CHUNK_BYTES = 256 * 1024


def _blas_thread_setter():
    """OpenBLAS's ``openblas_set_num_threads_local`` as numpy links it, or
    None (MKL, Accelerate, OpenBLAS before 0.3.27).

    ``dlsym`` on the handle of numpy's LAPACK module also searches the
    libraries it depends on, so no wheel-specific library name is needed.
    The setter returns the previous count.
    """
    try:
        from numpy.linalg import _umath_linalg

        setter = ctypes.CDLL(_umath_linalg.__file__).openblas_set_num_threads_local
    except (ImportError, OSError, AttributeError):
        return None
    setter.argtypes = [ctypes.c_int]
    setter.restype = ctypes.c_int
    return setter


_SET_BLAS_THREADS = _blas_thread_setter()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS on one thread; restore the previous count.

    Despite its name the setter is process-wide in some builds (numpy
    2.4's OpenBLAS 0.3.31 is one), so ``concentration_experiment`` holds
    this around the whole run as well: its workers then only ever write 1,
    and the caller's count comes back once, after the last worker is done.
    """
    if _SET_BLAS_THREADS is None:
        yield
        return
    previous = _SET_BLAS_THREADS(1)
    try:
        yield
    finally:
        _SET_BLAS_THREADS(previous)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# numpy's SeedSequence constants: a pool of 4 uint32 words, hashed in with
# (INIT_A, MULT_A) and read out with (INIT_B, MULT_B)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(value: int) -> list[int]:
    """A nonnegative int as SeedSequence reads it: little-endian uint32
    words, one word for 0."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _philox_keys(keys: Sequence[tuple[int, ...]], role: int) -> np.ndarray:
    """``np.random.SeedSequence(list(key) + [role]).generate_state(2, np.uint64)``
    for each key, one row per key.

    numpy's mixing runs on uint32 columns, one per entropy word, for all
    keys at once: hashmix the first 4 words into the pool, mix every pool
    word into the others, mix in the remaining words, then hash the pool
    out as 4 words, read as 2 little-endian uint64.  The hash constants
    advance with the number of words alone, so this needs every key to
    have as many words; when an element crossing 2^32 breaks that, each
    key goes through ``SeedSequence`` itself.
    """
    rows = [(*key, role) for key in keys]
    # an element below 2^32 is one word, itself
    entropy = (rows if max(map(max, rows), default=0) <= _MASK32
               else [[w for v in row for w in _words(v)] for row in rows])
    if len({len(e) for e in entropy}) != 1:
        return np.array([np.random.SeedSequence(list(key) + [role]).generate_state(2, np.uint64)
                         for key in keys], dtype=np.uint64).reshape(-1, 2)
    words = np.array(entropy, dtype=np.uint32).T
    hash_const = _INIT_A

    def hashmix(value, mult=_MULT_A):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ value >> np.uint32(16)

    def mix(x, y):
        out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return out ^ out >> np.uint32(16)

    pool = [hashmix(words[i] if i < len(words) else np.zeros_like(words[0]))
            for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    lo0, hi0, lo1, hi1 = (hashmix(v, _MULT_B).astype(np.uint64) for v in pool)
    return np.stack([lo0 | hi0 << np.uint64(32), lo1 | hi1 << np.uint64(32)], axis=1)


def _draws(keys: np.ndarray, count: int, ranks: np.ndarray | None = None) -> np.ndarray:
    """The first `count` 53-bit draws of the Philox stream of each key row
    in ``keys`` (an (m, 2) uint64 array from ``_philox_keys``), one row per
    key; only those at the indices ``ranks`` when given.

    The caller derives the keys, once per batch and role, not once per
    chunk or block: a stream's key depends only on its (seed, batch,
    trial, role) tuple.  It reads each stream once per batch, with
    ``count`` the largest triangle, whose prefixes are the smaller ones.
    One Philox is re-keyed for each row: counter 0 and an empty buffer,
    the state ``Philox(SeedSequence(list(key) + [role]))`` starts in.
    Each stream is read to ``count`` either way, so a kept draw has the
    bits it has in the full row.  ``random_raw() >>
    11`` is the draw ``Generator.integers(0, 2**53)`` makes from the same
    stream: at a power-of-two range Lemire's method keeps the top 53 bits
    and never rejects.
    """
    out = np.empty((len(keys), count if ranks is None else len(ranks)), dtype=np.uint64)
    bitgen = np.random.Philox(0)  # its seed is replaced by each row's key
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for row, key in zip(out, keys.tolist()):
        state["state"]["key"] = key
        bitgen.state = state
        raw = bitgen.random_raw(count)
        row[:] = raw if ranks is None else raw[ranks]
    return out >> np.uint64(11)


_BELOW_ONE = np.nextafter(1.0, 0.0)


def _unit(k: np.ndarray) -> np.ndarray:
    """Uniforms on (0,1) from 53-bit draws ``k``: (k + 1/2) / 2^53 in doubles.

    Below 2^52 that is the exact midpoint of the draw's cell, so a
    two-point split at 1/2 is exactly unbiased.  From 2^52 on, k + 1/2 is
    not a double and rounds to an even neighbour; the top draw would round
    to 1.0 and is clamped to the largest double below 1, so the
    transforms applied downstream (``ndtri``, log1p) never see 0 or 1.
    From 1/2 on, 1 - u is exact, and ``ndtri(1 - u)`` is ``-ndtri(u)``
    bit for bit.
    """
    return np.minimum((k.astype(np.float64) + 0.5) * 2.0 ** -53, _BELOW_ONE)


def _as_key(seed) -> tuple[int, ...]:
    key = tuple(number(s, "seed", integral=True)
                for s in (seed if isinstance(seed, (tuple, list)) else (seed,)))
    if any(s < 0 for s in key):
        raise ValidationError("seeds must be nonnegative integers")
    return key


# ---------------------------------------------------------------------------
# entry laws
# ---------------------------------------------------------------------------

# the parameter keys each law's JSON form takes, with their defaults
_LAW_PARAMS = {"two_point": {"a": -1.0, "b": 1.0, "weight_a": 0.5},
               "uniform": {"a": 0.0, "b": 1.0}, "gaussian": {"mean": 0.0, "var": 1.0},
               "exponential": {"rate": 1.0}, "atom_mixture": {"measure": {}}}
LAW_KINDS = tuple(_LAW_PARAMS)


@dataclass(frozen=True)
class EntryLaw:
    """Entry distribution plus its inverse-CDF sampler."""

    kind: str
    params: tuple[float, ...] = ()
    measure: Measure1D | None = None

    def __post_init__(self):
        if self.kind not in LAW_KINDS:
            raise UnknownLaw(f"unknown entry law {self.kind!r}")
        if self.kind == "atom_mixture" and self.measure is None:
            raise UnknownLaw("atom_mixture law needs a Measure1D")

    def transform(self, u: np.ndarray) -> np.ndarray:
        if self.kind == "two_point":
            a, b, wa = self.params
            return np.where(u < wa, a, b)
        if self.kind == "uniform":
            a, b = self.params
            return a + (b - a) * u
        if self.kind == "gaussian":
            mean, var = self.params
            return mean + math.sqrt(var) * ndtri(u)
        if self.kind == "exponential":
            (rate,) = self.params
            return -np.log1p(-u) / rate
        return np.asarray(quantile(self.measure, u), dtype=float)

    @property
    def lsi_constant(self) -> float | None:
        """Known LSI constant of the raw law, if any (Gaussian: its variance)."""
        if self.kind == "gaussian":
            return self.params[1]
        return None

    @property
    def compactly_supported(self) -> bool:
        """Whether the law has bounded support, so ``as_measure`` applies."""
        return self.kind in ("two_point", "uniform", "atom_mixture")

    def as_measure(self) -> Measure1D:
        """Compactly supported laws as a Measure1D, for the bg bracket."""
        if not self.compactly_supported:
            raise ValidationError(f"law {self.kind!r} is not compactly supported")
        if self.kind == "two_point":
            return two_point(*self.params)
        if self.kind == "uniform":
            return uniform(*self.params)
        return self.measure


def two_point_law(a: float = -1.0, b: float = 1.0, weight_a: float = 0.5) -> EntryLaw:
    if not 0.0 <= weight_a <= 1.0:
        raise ValidationError(f"two_point law needs 0 <= weight_a <= 1, got {weight_a}")
    return EntryLaw("two_point", (a, b, weight_a))


def uniform_law(a: float, b: float) -> EntryLaw:
    if not b > a:
        raise ValidationError("uniform law needs a < b")
    return EntryLaw("uniform", (a, b))


def gaussian_law(mean: float = 0.0, var: float = 1.0) -> EntryLaw:
    if not var > 0.0:
        raise ValidationError("gaussian law needs var > 0")
    return EntryLaw("gaussian", (mean, var))


def exponential_law(rate: float = 1.0) -> EntryLaw:
    if not rate > 0.0:
        raise ValidationError("exponential law needs rate > 0")
    return EntryLaw("exponential", (rate,))


def atom_mixture_law(measure: Measure1D) -> EntryLaw:
    return EntryLaw("atom_mixture", (), measure)


def law_from_spec(spec) -> EntryLaw:
    """Parse the JSON form: a bare kind string or {"kind": ..., params}.

    An unknown kind raises ``UnknownLaw``; a key the named law does not
    take, or a parameter that is not a finite number, raises
    ``ValidationError``."""
    if not isinstance(spec, dict):
        spec = {"kind": spec}
    name = spec.get("kind")
    if name not in LAW_KINDS:
        raise UnknownLaw(f"unknown entry law {name!r}")
    fields(spec, f"{name} law", {"kind", *_LAW_PARAMS[name]})
    if name == "atom_mixture":
        return atom_mixture_law(build_measure(spec.get("measure", {})))
    params = {}
    for key, default in _LAW_PARAMS[name].items():
        params[key] = number(spec.get(key, default), f"{name} law {key}")
        if not math.isfinite(params[key]):
            raise ValidationError(f"{name} law {key} must be a finite number,"
                                  f" got {params[key]!r}")
    return {"two_point": two_point_law, "uniform": uniform_law, "gaussian": gaussian_law,
            "exponential": exponential_law}[name](**params)


# ---------------------------------------------------------------------------
# Lipschitz test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FSpec:
    """Lipschitz statistic with its constant attached."""

    kind: str
    knots: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.kind not in ("identity", "abs", "arctan", "piecewise_linear"):
            raise UnknownFunction(f"unknown test function {self.kind!r}")
        if self.kind == "piecewise_linear":
            if len(self.knots) < 2:
                raise UnknownFunction("piecewise_linear needs >= 2 knots")
            if not all(math.isfinite(v) for knot in self.knots for v in knot):
                raise ValidationError("piecewise_linear knots must be finite")
            xs = [x for x, _ in self.knots]
            if not all(a < b for a, b in zip(xs, xs[1:])):
                raise ValidationError(f"piecewise_linear knot x values must increase, got {xs}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "identity":
            return x
        if self.kind == "abs":
            return np.abs(x)
        if self.kind == "arctan":
            return np.arctan(x)
        xs = np.array([k[0] for k in self.knots])
        ys = np.array([k[1] for k in self.knots])
        return np.interp(x, xs, ys)

    @property
    def lip(self) -> float:
        if self.kind in ("identity", "abs", "arctan"):
            return 1.0
        xs = np.array([k[0] for k in self.knots])
        ys = np.array([k[1] for k in self.knots])
        return float(np.max(np.abs(np.diff(ys) / np.diff(xs))))


def f_from_spec(spec) -> FSpec:
    if not isinstance(spec, dict):
        return FSpec(spec)  # a bare kind
    fields(spec, "f", {"kind", "knots"})
    knots = tuple(tuple(number(v, "f knot coordinate") for v in entries(knot, "f knot", 2))
                  for knot in entries(spec.get("knots", ()), "f knots"))
    return FSpec(spec.get("kind"), knots)


# ---------------------------------------------------------------------------
# symmetric matrices
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _triu(n: int) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = np.triu_indices(n)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _dense(n: int, upper: np.ndarray) -> np.ndarray:
    """The symmetric n x n matrix of each row-major upper triangle in ``upper``
    (its last axis)."""
    rows, cols = _triu(n)
    out = np.zeros(upper.shape[:-1] + (n, n))
    out[..., rows, cols] = upper
    out[..., cols, rows] = upper
    return out


@dataclass(frozen=True)
class SymmetricMatrix:
    """Symmetric matrix stored as its row-major upper triangle (diagonal included)."""

    n: int
    upper: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("matrix size must be >= 1")
        expected = self.n * (self.n + 1) // 2
        if self.upper.shape != (expected,):
            raise ValidationError(
                f"upper triangle of an n={self.n} matrix needs {expected} entries"
            )
        self.upper.setflags(write=False)

    def dense(self) -> np.ndarray:
        return _dense(self.n, self.upper)

    @classmethod
    def from_dense(cls, mat: np.ndarray) -> "SymmetricMatrix":
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError("from_dense needs a square matrix")
        n = mat.shape[0]
        return cls(n, mat[_triu(n)])

    def scaled(self, factor: float) -> "SymmetricMatrix":
        return SymmetricMatrix(self.n, self.upper * factor)


def _diagonal_ranks(n: int) -> np.ndarray:
    """Row-major upper-triangle ranks of the n diagonal entries: row i
    starts at rank i n - i (i - 1) / 2, with its diagonal entry."""
    i = np.arange(n)
    return i * n - i * (i - 1) // 2


def _entries(n: int, law: EntryLaw, keys: np.ndarray,
             ranks: np.ndarray | None = None) -> np.ndarray:
    """Upper triangles of Y, one row per entry-stream key row in ``keys``,
    with i.i.d. entries from ``law``; only the entries at the triangle
    ``ranks`` when given."""
    u = _unit(_draws(keys, n * (n + 1) // 2, ranks))
    return np.asarray(law.transform(u.ravel()), dtype=float).reshape(u.shape)


def _gaussians(n: int, keys: np.ndarray, ranks: np.ndarray | None = None) -> np.ndarray:
    """Standard Gaussian upper triangles, one row per Gaussian-stream key
    row in ``keys``; only the entries at the triangle ``ranks`` when given."""
    return ndtri(_unit(_draws(keys, n * (n + 1) // 2, ranks)))


def sample_wigner(n: int, law: EntryLaw, seed) -> SymmetricMatrix:
    """Symmetric matrix with i.i.d. upper-triangle entries (diagonal included).

    Entry (i, j) with i <= j consumes exactly the k-th uniform of the
    stream keyed by (seed..., role), k the row-major upper-triangle rank,
    so the draw is reproducible entry by entry.  A one-row call of the
    block sampler the experiment uses.
    """
    if n < 1:
        raise ValidationError("matrix size must be >= 1")
    return SymmetricMatrix(n, _entries(n, law, _philox_keys([_as_key(seed)], _ROLE_ENTRIES))[0])


def mollify_ensemble(y: SymmetricMatrix, delta: float, seed) -> SymmetricMatrix:
    """Y + sqrt(delta) G with G an independent standard-Gaussian symmetric matrix."""
    if delta < 0.0:
        raise NegativeDelta(f"delta must be >= 0, got {delta}")
    if delta == 0.0:
        return y
    g = _gaussians(y.n, _philox_keys([_as_key(seed)], _ROLE_GAUSS))[0]
    return SymmetricMatrix(y.n, y.upper + math.sqrt(delta) * g)


def _spectra(n: int, upper: np.ndarray, where=lambda row: "") -> np.ndarray:
    """Ascending eigenvalues of each row's matrix, from one stacked eigvalsh.

    ``upper`` holds one row-major upper triangle per row; only the lower
    triangle that eigvalsh reads (UPLO='L') is filled, and eigvalsh runs
    on one OpenBLAS thread (``_one_blas_thread``).  The trace identity
    is checked on every matrix as a cheap guard, with the trace and the
    Frobenius norm taken from the triangles; a failure raises
    ArithmeticError naming the first bad row through ``where(row)``, and
    a guard input that leaves the float range raises NumericalOverflow.
    """
    rows, cols = _triu(n)
    lower = np.zeros(upper.shape[:-1] + (n, n))
    lower[..., cols, rows] = upper
    with _one_blas_thread():
        w = np.linalg.eigvalsh(lower)
    diag = upper[..., rows == cols]
    with np.errstate(over="ignore", invalid="ignore"):  # checked next
        total = np.sum(w, axis=1)
        trace = np.sum(diag, axis=-1)
        frob = np.sqrt(2.0 * np.sum(upper * upper, axis=-1) - np.sum(diag * diag, axis=-1))
    lost = np.flatnonzero(~(np.isfinite(total) & np.isfinite(trace) & np.isfinite(frob)))
    if lost.size:
        raise NumericalOverflow("eigenvalue sum, trace or Frobenius norm leaves the float range"
                                + where(int(lost[0])))
    bad = np.flatnonzero(np.abs(total - trace) > 1e-9 * frob + 1e-12)
    if bad.size:
        raise ArithmeticError("eigenvalue sum disagrees with trace" + where(int(bad[0])))
    return w


def spectrum(a: SymmetricMatrix) -> np.ndarray:
    """Eigenvalues, ascending.  Checks the trace identity as a cheap guard."""
    return _spectra(a.n, a.upper[None, :])[0]


def empirical_law_integral(eigenvalues: np.ndarray, f: FSpec) -> float | np.ndarray:
    """(1/n) sum f(lambda_i) over the last axis: a float for one spectrum,
    an array for a stack of them."""
    out = np.mean(f(np.asarray(eigenvalues, dtype=float)), axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def hoffman_wielandt_gap(a: SymmetricMatrix, b: SymmetricMatrix) -> tuple[float, float]:
    """(sum of squared sorted-eigenvalue gaps, Tr[(A-B)^2]); lhs <= rhs always."""
    if a.n != b.n:
        raise DimensionMismatch(f"sizes differ: {a.n} vs {b.n}")
    lhs = float(np.sum((spectrum(a) - spectrum(b)) ** 2))
    diff = a.dense() - b.dense()
    rhs = float(np.sum(diff * diff))
    return lhs, rhs


# ---------------------------------------------------------------------------
# chunked trials
# ---------------------------------------------------------------------------

def _chunks(sizes: Sequence[tuple[int, float]], trials: int,
            ranks: np.ndarray | None = None) -> list[range]:
    """Consecutive trials in ranges holding at most CHUNK_BYTES of what
    they keep: a dense n x n matrix of the largest n of ``sizes`` per
    matrix, or the triangle ``ranks`` when given (f = identity); one
    matrix per trial, two when a delta of ``sizes`` is > 0."""
    kept = max(n * n for n, _ in sizes) if ranks is None else len(ranks)
    size = max(1, CHUNK_BYTES // (8 * kept * (2 if any(d > 0.0 for _, d in sizes) else 1)))
    return [range(a, min(a + size, trials)) for a in range(0, trials, size)]


def _stream_keys(key: tuple[int, ...], trials: range, delta: float) -> np.ndarray:
    """Philox key rows of the streams of batch ``key``'s ``trials``, shape
    (trials, roles, 2): the entry stream's key, then, when delta > 0, the
    Gaussian one's; trial t's streams are keyed by ``key + (t,)``.  One
    ``_philox_keys`` call per role."""
    keys = [key + (t,) for t in trials]
    roles = (_ROLE_ENTRIES, _ROLE_GAUSS) if delta > 0.0 else (_ROLE_ENTRIES,)
    return np.stack([_philox_keys(keys, role) for role in roles], axis=1)


def _chunk_draws(law: EntryLaw, sizes: Sequence[tuple[int, float]], keys: np.ndarray,
                 ranks: np.ndarray | None = None):
    """For each (n, delta) of ``sizes`` in turn, yield the upper triangles
    of each trial's Y and, when delta > 0, its Y~ right after it; ``keys``
    holds the trials' key rows, as ``_stream_keys`` lays them out.

    An n x n triangle is the first n(n+1)/2 draws of its stream, so each
    role's streams are read and transformed once, to the largest triangle
    of ``sizes``, and each size takes its triangle as their prefix.  With
    ``ranks`` (sorted triangle ranks holding every size's diagonal) only
    those draws are kept, and each size takes its n diagonal entries.
    Each yielded array is the caller's to change in place.
    """
    top = max(n for n, _ in sizes)
    y = _entries(top, law, keys[:, 0], ranks)
    z = _gaussians(top, keys[:, 1], ranks) if keys.shape[1] > 1 else None
    for i, (n, delta) in enumerate(sizes):
        last = i == len(sizes) - 1
        cols = (slice(n * (n + 1) // 2) if ranks is None
                else np.searchsorted(ranks, _diagonal_ranks(n)))
        # ``take`` lays the diagonals out row by row, as the row means read
        # them (a fancy index would give columns, and sums rounded otherwise)
        upper = y[:, cols] if ranks is None else y.take(cols, axis=1)
        if delta > 0.0:
            upper = np.stack([upper, upper + math.sqrt(delta) * z[:, cols]],
                             axis=1).reshape(-1, upper.shape[-1])
        elif ranks is None and not last:
            upper = upper.copy()  # a prefix of y, which the next sizes read
        if last:
            del y, z  # the last size holds all that is still needed
        yield upper


def _chunk_integrals(law: EntryLaw, f: FSpec, sizes: Sequence[tuple[int, float]],
                     key: tuple[int, ...], trials: range, keys: np.ndarray,
                     ranks: np.ndarray | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """(int f dmu_X, int f dmu_X~) for each trial of a chunk, one pair per
    (n, delta) of ``sizes``; X~ = X when delta = 0.

    ``keys`` holds the chunk's rows of ``_stream_keys(key, ...)``, so
    trial t's matrices are drawn as ``sample_wigner(n, law, key + (t,))``
    and ``mollify_ensemble`` with the same key would draw them, bit for
    bit.  For the identity, (1/n) sum lambda_i = tr X / n, so only the
    diagonals are drawn (``ranks``) and their means are the integrals: no
    matrix is built.  Otherwise each size's spectra come from one stacked
    eigen-decomposition, whose trace guard names n, the batch (the key's
    last tag) and the trial; so does the NumericalOverflow raised for an
    integral that leaves the float range.
    """
    out = []
    for (n, _), upper in zip(sizes, _chunk_draws(law, sizes, keys, ranks)):
        upper *= 1.0 / math.sqrt(n)
        per_trial = len(upper) // len(trials)

        def where(row):
            return f" at n={n}, batch {key[-1]}, trial {trials[row // per_trial]}"

        w = upper if ranks is not None else _spectra(n, upper, where)
        with np.errstate(over="ignore", invalid="ignore"):  # checked next
            s = empirical_law_integral(w, f)
        lost = np.flatnonzero(~np.isfinite(s))
        if lost.size:
            raise NumericalOverflow(f"int f dmu_X = {float(s[lost[0]])!r}" + where(int(lost[0])))
        s = s.reshape(-1, per_trial)
        out.append((s[:, 0], s[:, -1]))
    return out


def _batch_integrals(law: EntryLaw, f: FSpec, sizes: Sequence[tuple[int, float]],
                     key: tuple[int, ...], trials: int,
                     mapper=map) -> list[tuple[np.ndarray, np.ndarray]]:
    """(int f dmu_X, int f dmu_X~) for trials 0 .. trials-1 of batch
    ``key``, one pair per (n, delta) of ``sizes``.

    A stream's key has no n in it, so one batch serves every size: its
    stream keys are derived once, each chunk takes its rows, and a chunk
    reads each stream once, to the largest size, for all of them.  The
    derivation is many small numpy calls that hold the GIL, so per chunk
    it would keep the workers from overlapping their ``eigvalsh`` calls.
    For f = identity a chunk keeps the union of the sizes' diagonals.
    ``mapper`` runs the chunks (``map``, or a thread pool's ``map``); the
    parts are joined in chunk order.
    """
    keys = _stream_keys(key, range(trials), max(delta for _, delta in sizes))
    ranks = (np.unique(np.concatenate([_diagonal_ranks(n) for n, _ in sizes]))
             if f.kind == "identity" else None)
    parts = list(mapper(lambda chunk: _chunk_integrals(law, f, sizes, key, chunk,
                                                       keys[chunk.start:chunk.stop], ranks),
                        _chunks(sizes, trials, ranks)))
    # per size, its (s, s_moll) of every chunk, joined
    return [tuple(map(np.concatenate, zip(*per_size))) for per_size in zip(*parts)]


def _term3(s: np.ndarray, s_moll: np.ndarray) -> tuple[float, float]:
    """(|mean of s_moll - s|, its standard error) over a batch's trials."""
    diffs = s_moll - s
    stderr = float(np.std(diffs, ddof=1) / math.sqrt(len(diffs))) if len(diffs) > 1 else 0.0
    return abs(float(np.mean(diffs))), stderr


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def guionnet_bound(n: int, epsilon: float, c: float, lip: float,
                   eps_over_3: bool = False) -> float:
    """2 exp(-n^2 eps^2 / (4 c lip^2)); the eps/3 split variant uses 36."""
    if not (n >= 1 and epsilon > 0.0 and c > 0.0 and lip > 0.0):
        raise NonPositiveArg("guionnet_bound needs positive arguments")
    denom = 36.0 if eps_over_3 else 4.0
    return min(2.0, 2.0 * math.exp(-(n * n * epsilon * epsilon) / (denom * c * lip * lip)))


def term1_bound(epsilon: float, lip: float, delta: float) -> float:
    """9 lip^2 delta / eps^2, clamped to 1 (it bounds a probability)."""
    if not (epsilon > 0.0 and lip > 0.0 and delta >= 0.0):
        raise NonPositiveArg("term1_bound needs eps, lip > 0 and delta >= 0")
    return min(1.0, 9.0 * lip * lip * delta / (epsilon * epsilon))


def term3_check(n: int, epsilon: float, f: FSpec, delta: float, trials: int,
                seed) -> tuple[float, float]:
    """Monte Carlo gap |E int f dmu_X~ - E int f dmu_X| vs its bound.

    Uses the two-point entry law (the canonical no-LSI example).  Raises
    if the estimate exceeds lip sqrt(delta) + 3 stderr; returns
    (gap estimate, eps/3 threshold).
    """
    if not (n >= 1 and epsilon > 0.0 and delta >= 0.0 and trials >= 1):
        raise NonPositiveArg("term3_check needs positive arguments")
    [batch] = _batch_integrals(two_point_law(), f, [(n, delta)], _as_key(seed) + (3,), trials)
    gap, stderr = _term3(*batch)
    bound = f.lip * math.sqrt(delta)
    if gap > bound + 3.0 * stderr:
        raise ArithmeticError(
            f"term-3 gap {gap:.6g} exceeds lip*sqrt(delta)+3se = {bound + 3 * stderr:.6g}"
        )
    return gap, epsilon / 3.0


# ---------------------------------------------------------------------------
# cutoff
# ---------------------------------------------------------------------------

def cutoff(y: SymmetricMatrix, level: float) -> SymmetricMatrix:
    """Zero every entry with |entry| >= level (strict keep below the level)."""
    if level < 0.0:
        raise ValidationError("cutoff level must be >= 0")
    kept = np.where(np.abs(y.upper) < level, y.upper, 0.0)
    return SymmetricMatrix(y.n, kept)


def exponential_cutoff_level(rate: float, target: float) -> float:
    """Smallest C with E[Y^2; Y >= C] < target for Y ~ exponential(rate).

    Closed form: E[Y^2; Y >= C] = exp(-rate C) (C^2 + 2C/rate + 2/rate^2).
    """
    if not (rate > 0.0 and target > 0.0):
        raise NonPositiveArg("exponential_cutoff_level needs positive arguments")

    def excess(c: float) -> float:
        return math.exp(-rate * c) * (c * c + 2.0 * c / rate + 2.0 / (rate * rate))

    lo, hi = 0.0, 1.0
    while excess(hi) >= target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) >= target:
            lo = mid
        else:
            hi = mid
    return hi


# ---------------------------------------------------------------------------
# delta schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaSchedule:
    """Rows (n, delta(n), c(delta(n))), delta(n) nonincreasing by construction."""

    rows: tuple[tuple[int, float, float], ...]


def delta_schedule(c_table: Sequence[tuple[float, float]], ns: Sequence[int]) -> DeltaSchedule:
    """For each requested n, the smallest tabulated delta with c(delta) <= n.

    ``c_table`` holds (delta, c_upper) pairs from compute_bg runs.  The
    smallest-feasible rule makes delta(n) automatically nonincreasing in
    n.  Raises NoFeasibleDelta when a requested n admits no row.
    """
    table = [(float(d), float(c)) for d, c in c_table]
    if not table or any(not 0.0 < d < math.inf for d, _ in table):
        raise ValidationError("c_table needs positive finite deltas")
    if any(not math.isfinite(c) for _, c in table):
        raise ValidationError(f"c_table c values must be finite, got {table}")
    if len({d for d, _ in table}) != len(table):
        raise ValidationError("c_table deltas must be distinct")
    rows = []
    for n in ns:
        feasible = [(d, c) for d, c in table if c <= n]
        if not feasible:
            raise NoFeasibleDelta(f"no tabulated delta has c(delta) <= {n}")
        d, c = min(feasible)
        rows.append((int(n), d, c))
    return DeltaSchedule(tuple(rows))


# ---------------------------------------------------------------------------
# the concentration experiment
# ---------------------------------------------------------------------------

# the keys besides "mode" that each delta mode's JSON form takes
_DELTA_KEYS = {"none": (), "fixed": ("value",), "schedule": ("table",)}
DELTA_MODES = tuple(_DELTA_KEYS)


@dataclass(frozen=True)
class ExperimentConfig:
    law: EntryLaw
    f: FSpec
    n_list: tuple[int, ...]
    eps_list: tuple[float, ...]
    trials: int
    seed: int
    delta_mode: str = "none"            # "none" | "fixed" | "schedule"
    delta_value: float = 0.0
    c_table: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.delta_mode not in DELTA_MODES:
            raise ValidationError(f"unknown delta mode {self.delta_mode!r}")
        if self.trials < 0:
            raise ValidationError("trials must be >= 0")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if any(n < 1 for n in self.n_list):
            raise ValidationError("matrix sizes must be >= 1")
        if any(not 0.0 < e < math.inf for e in self.eps_list):
            raise ValidationError(f"eps values must be positive and finite, got {self.eps_list}")
        if self.delta_mode == "fixed" and not (0.0 <= self.delta_value < math.inf):
            raise NegativeDelta(f"fixed delta must be finite and >= 0, got {self.delta_value}")


def config_from_dict(raw: dict) -> ExperimentConfig:
    fields(raw, "config", {"law", "f", "n", "eps", "trials", "seed", "delta"},
           required={"law", "f", "n", "eps"})
    delta = fields(raw.get("delta", {}), "delta", {"mode", "value", "table"})
    mode = delta.get("mode", "none")
    if mode in DELTA_MODES:  # ExperimentConfig refuses any other mode
        fields(delta, f"{mode} delta", {"mode", *_DELTA_KEYS[mode]})
    return ExperimentConfig(
        law=law_from_spec(raw["law"]), f=f_from_spec(raw["f"]),
        n_list=tuple(number(n, "n entry", integral=True) for n in entries(raw["n"], "n")),
        eps_list=tuple(number(e, "eps entry") for e in entries(raw["eps"], "eps")),
        trials=number(raw.get("trials", 0), "trials", integral=True),
        seed=number(raw.get("seed", 0), "seed", integral=True),
        delta_mode=mode,
        delta_value=number(delta.get("value", 0.0), "delta.value"),
        c_table=tuple(tuple(number(v, "delta.table entry")
                            for v in entries(row, "delta.table row", 2))
                      for row in entries(delta.get("table", ()), "delta.table")))


@dataclass(frozen=True)
class Cell:
    n: int
    eps: float
    trials: int
    empirical_freq: float
    mc_stderr: float
    guionnet_bound: float
    term1_bound: float
    term1_freq: float
    term2_bound: float
    term3_gap: float
    term3_stderr: float
    term3_bound: float
    term3_indicator: float
    envelope_ok: bool
    delta_used: float
    c_used: float
    f_lip: float


@dataclass(frozen=True)
class ConcentrationReport:
    law: str  # the entry law's kind
    f: str  # the test function's kind
    f_lip: float
    trials: int
    seed: int
    cells: tuple[Cell, ...]


def _plan(config: ExperimentConfig) -> tuple[tuple[int, float, float], ...]:
    """(n, delta, c) for each matrix size: the mollification variance and
    the LSI constant of the mollified entry law.  A schedule looks every n
    up in one ``delta_schedule`` call; the other modes share one (delta, c).

    A schedule's c values stand for LSI constants, so it is refused for a
    law with neither a closed-form constant nor compact support (the
    exponential): its mollified law has no LSI constant at all.  For a
    compactly supported law, a row the plan uses is refused when its c lies
    below ``compute_bg``'s ``c_lower`` at its delta, a bound every LSI
    constant of the mollified law meets: one bracket per distinct delta.
    """
    known = config.law.lsi_constant
    if config.delta_mode == "schedule":
        if known is None and not config.law.compactly_supported:
            raise ValidationError(
                f"law {config.law.kind!r} has no closed-form LSI constant and is not"
                " compactly supported, so no delta schedule gives it one")
        rows = delta_schedule(config.c_table, config.n_list).rows
        if config.law.compactly_supported:
            measure = config.law.as_measure()
            for delta, c in dict((delta, c) for _, delta, c in rows).items():
                c_lower = _bg.compute_bg(MollifiedDensity(measure, delta)).c_lower
                if c < c_lower:
                    raise ValidationError(
                        f"delta schedule row delta={delta!r} has c={c!r}, below the"
                        f" bracket's c_lower={c_lower!r}, which every LSI constant of"
                        f" the mollified {config.law.kind!r} law meets")
        return rows
    delta = config.delta_value if config.delta_mode == "fixed" else 0.0
    if known is not None:
        # Gaussian * Gaussian is Gaussian: the constant is the summed variance
        c = known + delta
    elif config.delta_mode == "none":
        raise ValidationError(f"law {config.law.kind!r} has no LSI constant; use a delta mode")
    else:
        c = _bg.compute_bg(MollifiedDensity(config.law.as_measure(), delta)).c_upper
    return tuple((n, delta, c) for n in config.n_list)


def concentration_experiment(config: ExperimentConfig,
                             workers: int | None = None) -> ConcentrationReport:
    """Estimate deviation frequencies over the (n, eps) grid.

    Every n's (delta, c) is decided before any batch runs, whatever
    ``trials`` is (``_plan``): mode ``none`` on a law with no constant of
    its own, a schedule for a law that cannot have one, or an n the
    schedule cannot serve, raises first.

    The mean of int f dmu_X is estimated from an independent pilot batch
    of the same size, so the deviation count is not correlated with its
    own centering.  The pilot draws and decomposes X alone (it runs at
    delta = 0; X's streams do not depend on delta).  For f = identity each
    integral is the trace of X over n, and no matrix is decomposed.  Per
    cell the report carries the three decomposition diagnostics and the
    envelope check

        empirical_freq <= term1_bound + term2_bound + term3_indicator + 5 stderr.

    With ``workers`` > 1 (default: ``usable_cpus()``) one thread pool runs
    each batch's chunks, with OpenBLAS held to one thread throughout.
    Output is bit-identical for any worker count: streams are keyed by
    (seed, batch, trial), each matrix is decomposed alone, and reductions
    run over index-ordered arrays.
    """
    if workers is None:
        workers = usable_cpus()
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    plan = _plan(config)
    with _one_blas_thread():
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                return _experiment(config, plan, pool.map)
        return _experiment(config, plan, map)


def _experiment(config: ExperimentConfig, plan: tuple[tuple[int, float, float], ...],
                mapper) -> ConcentrationReport:
    law, f, trials = config.law, config.f, config.trials
    lip = f.lip
    if trials == 0:
        return ConcentrationReport(law.kind, f.kind, lip, 0, config.seed, ())
    # only Y enters the centring, and Y's streams do not depend on delta
    pilots = _batch_integrals(law, f, [(n, 0.0) for n, _, _ in plan], (config.seed, 0),
                              trials, mapper)
    batches = _batch_integrals(law, f, [(n, delta) for n, delta, _ in plan], (config.seed, 1),
                               trials, mapper)
    cells: list[Cell] = []
    for (n, delta, c_used), (pilot, _), (s, s_moll) in zip(plan, pilots, batches):
        with np.errstate(over="ignore", invalid="ignore"):  # checked next
            pilot_mean = float(np.mean(pilot))
            term3_gap, term3_stderr = _term3(s, s_moll)
        if not all(map(math.isfinite, (pilot_mean, term3_gap, term3_stderr))):
            raise NumericalOverflow(f"the mean or spread over the trials of int f dmu_X"
                                    f" leaves the float range at n={n}")

        for eps in config.eps_list:
            with np.errstate(over="ignore"):  # an inf difference still exceeds eps
                dev = np.abs(s - pilot_mean) >= eps
                t1_freq = float(np.mean(np.abs(s - s_moll) >= eps / 3.0))
            freq = float(np.mean(dev))
            stderr = math.sqrt(freq * (1.0 - freq) / trials)
            t1_bound = term1_bound(eps, lip, delta) if delta > 0.0 else 0.0
            t2 = guionnet_bound(n, eps, c_used, lip, eps_over_3=True)
            gb = guionnet_bound(n, eps, c_used, lip)
            t3_bound = lip * math.sqrt(delta)
            t3_ind = 0.0 if term3_gap < eps / 3.0 else 1.0
            cells.append(Cell(
                n=n, eps=eps, trials=trials,
                empirical_freq=freq, mc_stderr=stderr,
                guionnet_bound=gb,
                term1_bound=t1_bound, term1_freq=t1_freq,
                term2_bound=t2,
                term3_gap=term3_gap, term3_stderr=term3_stderr,
                term3_bound=t3_bound, term3_indicator=t3_ind,
                envelope_ok=freq <= t1_bound + t2 + t3_ind + 5.0 * stderr,
                delta_used=delta, c_used=c_used, f_lip=lip,
            ))
    return ConcentrationReport(law.kind, f.kind, lip, trials, config.seed, tuple(cells))
