"""Finite abelian groups: arithmetic, duality, Fourier analysis, convolution.

A group is an explicit product of cyclic factors Z_s1 x ... x Z_sd.  Elements
are coordinate tuples reduced modulo the factor orders and are enumerated in
mixed-radix row-major order (last coordinate fastest).  The dual group is
identified with the group itself through character indexing, so Fourier
transforms map sequences on the group to sequences on the same index set.

Conventions, fixed once for the whole package:
  - forward transform  x^(xi) = sum_h x(h) * conj(xi(h))   (no normalization)
  - inverse transform carries the 1/|H| factor
  - inner product      <x, y> = sum_h x(h) * conj(y(h))

:func:`convolve`, ``systems.apply`` and inner products are evaluated with
exactly rounded (order-independent) summation, so algebraically equal
regroupings of the same sums agree bitwise: every exact output point is a
single correctly rounded sum, bitwise the value ``math.fsum`` gives.  They
share one vectorised kernel, :func:`exact_sums`, which sums blocks of output
points at once by error-free extraction (Rump, Ogita and Oishi, "Accurate
floating-point summation part I", SIAM J. Sci. Comput. 31(1), 2008).  One
extraction level with one error bound for the whole block certifies the
rounding of almost every row (part II: "sign, K-fold faithful and rounding
to nearest", 31(2), 2008); the convolution kernel takes that bound from the
largest magnitudes of its operands.  The level's two row sums are BLAS
products with a vector of ones: any order sums the extracted parts exactly,
and the bound on the remainder sum holds for any order.  The rows the certificate leaves open
(ties, sums near a rounding boundary, zero or subnormal sums, non-finite
terms) are few; each is summed by ``math.fsum``, unless all its terms are
exact zeros.  The convolution kernel sums only the products that can
change a correctly rounded sum, skipping those with an exact-zero factor,
and only the output points asked for (``convolve(a, x, at=indices)``, which
``sample_matrix`` uses to evaluate the lattice points alone).  It builds no index
table; its block-sized work arrays are a per-thread scratch of at most 6 x 256 kB.
:func:`convolve_fft` is the fast path; it, :func:`convolve`, :func:`dft`, :func:`idft`,
:func:`involution` and :func:`exact_norm_sq` work on stacks of sequences, the transforms
through ``GroupSpec.fft`` and ``GroupSpec.ifft``.

Sequences, stacks of them, systems and their transfer matrices share one base,
:class:`GroupArray`, which keeps a read-only, C-ordered complex128 copy of the values.
"""

from __future__ import annotations

import cmath
import math
import operator
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import (DimensionMismatchError, GroupMismatchError, SchemaError, _complex_values,
                     _int_list, _require_keys)

# Below this many terms in all, one math.fsum per row beats the certified
# extraction level of exact_sums, whose numpy calls cost a fixed 20-21 us: fsum
# took 14, 23 and 37 us for 300, 500 and 800 terms, so the two meet at 450-600
# terms, and only 6 of the 24,000 sums of bench/stages.py have 450-800 terms.
_FSUM_BELOW = 800

# Terms gathered per block of output points in _exact_convolve: 256 kB, so
# that the terms and the work array of exact_sums stay in a 2 MB L2 cache.
# With 2^14, 2^15 and 2^16 terms a dense Z32 x Z32 convolve took 18.5, 16.0 and
# 15.8 ms, a 3x2 apply on Z16 x Z16 7.5, 6.0 and 5.5 ms: 2^16 saves 1-9%.
_BLOCK_TERMS = 1 << 15

_MIN_NORMAL = np.finfo(np.float64).tiny

# The exact kernel's work arrays, per thread and kept across calls: none is freed and refaulted
_scratch = threading.local()


def _work(name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """This thread's ``name`` array, grown to fit, or a new one above _BLOCK_TERMS entries."""
    size, buffers = math.prod(shape), vars(_scratch)
    if size > _BLOCK_TERMS:
        return np.empty(shape, dtype)
    if name not in buffers or len(buffers[name]) < size:
        buffers[name] = np.empty(size, dtype)
    return buffers[name][:size].reshape(shape)


def _fsum_rows(terms: np.ndarray) -> np.ndarray:
    return np.array([math.fsum(row) for row in terms.tolist()], dtype=np.float64)


def exact_sums(terms: np.ndarray, bound: float | None = None) -> np.ndarray:
    """Correctly rounded sum of each row of a (B, K) float64 array.

    The result is bitwise that of ``math.fsum`` over each row.  ``bound`` is no smaller
    than any |term| (default: the largest |term|).  Large inputs take one level of
    error-free extraction for the whole block (Rump, Ogita and Oishi, "Accurate
    floating-point summation part I", SIAM J. Sci. Comput. 31(1), 2008): with
    bound < 2^e, 2^m >= K + 2 and sigma = 2^(e + m + 1), the parts
    q = (t + sigma) - sigma are multiples of 2^(e + m - 52) of magnitude at most 2^e,
    so every partial sum of K parts is a double and their row sum S is exact in any
    order; the remainders r = t - q are exact, |r| <= 2^(e + m - 52), and
    R = fl(sum r) is within B = 2^(e + 1 + 3m - 105) of sum r in any order: so S and
    R are BLAS products with ones.  The row sum is c + err + (sum r - R), where
    c = fl(S + R) and err is its TwoSum error, so c is the correctly rounded row sum
    when c is normal and |err| < h - 2B, h being half the gap
    |nextafter(c, copysign(inf, err)) - c| from c to its neighbour on err's side
    (part II: "sign, K-fold faithful and rounding to nearest", 31(2), 2008).  For a
    normal c that gap is exact: an ulp of c, or half of one toward zero from a power
    of two; an err of +0 or -0 takes its sign's side.  The test is strict, so it
    also excludes ties.  Every other row (ties, sums near a rounding boundary, zero
    or subnormal sums, non-finite terms, and every row of a block whose bound is
    near overflow or underflow) is left open and summed by ``math.fsum``; an open
    row of exact zeros of either sign is +0.0, as ``math.fsum`` would return,
    without the call.  ``terms`` is left unchanged.
    """
    if terms.size < _FSUM_BELOW:
        return _fsum_rows(terms)
    m = (terms.shape[1] + 1).bit_length()  # ceil(log2(K + 2))
    if bound is None:
        bound = np.abs(terms).max()
    e = math.frexp(bound)[1]
    # sigma must be finite and B normal
    if math.isfinite(bound) and e + m <= 1022 and e + 3 * m - 104 >= -1022:
        sigma = math.ldexp(1.0, e + m + 1)
        q = np.add(terms, sigma, out=_work("q", terms.shape))
        q -= sigma
        ones = _work("ones", terms.shape[1:])
        ones.fill(1.0)
        s = q @ ones
        r = np.subtract(terms, q, out=q) @ ones
        c = s + r
        z = c - s
        err = (s - (c - z)) + (r - z)
        half_gap = np.abs(np.nextafter(c, np.copysign(np.inf, err)) - c) / 2
        certified = (np.abs(c) >= _MIN_NORMAL) & (
            np.abs(err) < half_gap - math.ldexp(1.0, e + 3 * m - 103))
    else:  # every row is left open
        c, certified = np.zeros(terms.shape[0]), np.zeros(terms.shape[0], dtype=bool)
    if not certified.all():
        open_terms = terms[~certified]
        sums = np.zeros(len(open_terms))
        live = open_terms.any(axis=1)  # a row of zeros of either sign sums to +0.0
        sums[live] = _fsum_rows(open_terms[live])
        c[~certified] = sums
    return c


def _exact_convolve(a_values: np.ndarray, x_values: np.ndarray, group: GroupSpec,
                    points: np.ndarray | None = None) -> np.ndarray:
    """Matrix convolution with one exactly rounded sum per output point.

    out[m, i] = sum over (n, h') of a[m, n, h - h'] * x[n, h'] at h = points[i]
    (every point by default) for an (M, N, order) ``a_values`` and an
    (N, order) ``x_values``, or with x[m, n, h'] for an (M, N, order) one, an
    operand per output row, which a (1, N, order) ``a_values`` also takes.  Each
    output point is one correctly rounded sum, so any regrouping of the same
    index set (for instance the coset regrouping used for finite-index
    sampling) produces bitwise identical values.  Columns h' where every
    component of every row of x is an exact zero are skipped when every entry
    of a is finite: their products are exact zeros, which no correctly rounded
    sum sees (``math.fsum`` drops zeros of either sign), while a non-finite a
    must still meet them, as inf * 0 is NaN.  Blocks of output points are
    summed together by :func:`exact_sums`, with one bound on every product of
    the call: the product of the largest real or imaginary magnitudes of the
    two operands (NaN or inf when either has a non-finite entry or the product
    overflows, which leaves every row of the block to ``math.fsum`` in
    :func:`exact_sums`).
    """
    m_rows, n_cols, order = np.broadcast_shapes(a_values.shape, x_values.shape)
    points = np.arange(order) if points is None else points
    a_nonzero = a_values.reshape(-1, order).any(axis=0)
    nonzero = x_values.reshape(-1, order).any(axis=0)
    # a(h - h') x(h') is x(h - h') a(h'): the same doubles, summed order-independently.  The operand
    # with fewer nonzero columns goes second, where they are skipped; on a tie, the one with fewer
    # sequences is gathered.  Only finite operands swap: a NaN keeps its operand order's sign.
    if ((np.count_nonzero(a_nonzero), x_values.size) < (np.count_nonzero(nonzero), a_values.size)
            and np.isfinite(a_values).all() and np.isfinite(x_values).all()):
        a_values, x_values = x_values.reshape(-1, n_cols, order), a_values
        nonzero = a_nonzero
    # rounding is monotone, so |fl(u * v)| <= fl(max|u| * max|v|); np.maximum keeps NaN
    bound = math.prod(float(np.maximum(np.abs(v.real).max(initial=0.0),
                                       np.abs(v.imag).max(initial=0.0)))
                      for v in (a_values, x_values))
    cols = slice(None)
    if not nonzero.all() and np.isfinite(a_values).all():
        cols = np.flatnonzero(nonzero)
        x_values = x_values[..., cols]
    # (re/im, rows of a, order): np.take along the last axis gathers twice as fast as indexing
    a_parts = np.stack([a_values.real, a_values.imag]).reshape(2, -1, order)
    # [[xr, -xi], [xi, xr]] on (re/im, part); a * -xi = -(a * xi): rounding is sign-symmetric
    xr, xi = x_values.real, x_values.imag
    x_parts = np.stack([np.stack([xr, -xi], -3), np.stack([xi, xr], -3)], -4)
    kept = x_values.shape[-1]
    row_terms = 2 * n_cols * kept
    block = max(1, min(len(points), _BLOCK_TERMS // max(1, 2 * m_rows * row_terms)))
    batch = block * max(1, _BLOCK_TERMS // max(1, block * kept))  # points per index batch
    # terms[p, m, (re, im), part, n, h']: each (p, m, re/im) row is one sum,
    # and h' runs fastest, so the products stream over long contiguous rows
    terms = _work("terms", (block, m_rows, 2, 2, n_cols, kept))
    out = np.empty((m_rows, len(points)), dtype=np.complex128)
    for first in range(0, len(points), batch):
        chunk = points[first:first + batch]
        batch_rows = group.differences(chunk, cols, _work("rows", (len(chunk), kept), np.int64))
        for start in range(0, len(chunk), block):
            rows = batch_rows[start:start + block]
            p, at = len(rows), first + start
            a = np.take(a_parts, rows, axis=2, mode="clip",
                        out=_work("a", (*a_parts.shape[:2], *rows.shape)))
            # (p, M or 1, 1, part, N, h'): the gathered a, broadcast over re/im
            a = a.reshape(2, len(a_values), n_cols, p, kept).transpose(3, 1, 0, 2, 4)[:, :, None]
            t = np.multiply(a, x_parts, out=terms[:p])
            sums = exact_sums(t.reshape(p * m_rows * 2, row_terms), bound).reshape(p, m_rows, 2)
            out.real[:, at:at + p] = sums[:, :, 0].T
            out.imag[:, at:at + p] = sums[:, :, 1].T
    return out


def exact_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Correctly rounded sum of a[k]*conj(b[k])."""
    ar, ai = a.real.ravel(), a.imag.ravel()
    br, bi = b.real.ravel(), b.imag.ravel()
    re, im = exact_sums(np.stack([np.concatenate([ar * br, ai * bi]),
                                  np.concatenate([ai * br, -(ar * bi)])]))
    return complex(re, im)


def exact_norm_sq(a: np.ndarray):
    """Correctly rounded sum of |a[..., k]|^2: a float, or one per row of a stack."""
    ar, ai = a.real.reshape(-1, a.shape[-1]), a.imag.reshape(-1, a.shape[-1])
    sums = exact_sums(np.concatenate([ar * ar, ai * ai], axis=1))
    return float(sums[0]) if a.ndim == 1 else sums.reshape(a.shape[:-1])


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group Z_s1 x ... x Z_sd given by its factor orders."""

    moduli: tuple[int, ...]

    def __post_init__(self) -> None:
        moduli = tuple(int(s) for s in self.moduli)
        if not moduli:
            raise ValueError("a group needs at least one cyclic factor")
        if any(s < 1 for s in moduli):
            raise ValueError(f"moduli must be >= 1, got {moduli}")
        object.__setattr__(self, "moduli", moduli)

    @cached_property
    def order(self) -> int:
        return math.prod(self.moduli)

    @property
    def ndim(self) -> int:
        return len(self.moduli)

    @cached_property
    def coords_array(self) -> np.ndarray:
        """(order, ndim) integer coordinates in mixed-radix row-major order."""
        grids = np.indices(self.moduli).reshape(self.ndim, -1)
        arr = np.ascontiguousarray(grids.T)
        arr.setflags(write=False)
        return arr

    def ravel(self, coords: np.ndarray) -> np.ndarray:
        """Indices of (possibly unreduced) coordinate rows."""
        return np.ravel_multi_index(tuple(np.atleast_2d(coords).T), self.moduli, mode="wrap")

    def element(self, coords: Sequence[int]) -> GroupElement:
        return GroupElement(self, tuple(coords))

    def identity(self) -> GroupElement:
        return GroupElement(self, (0,) * self.ndim)

    def element_at(self, index: int) -> GroupElement:
        return GroupElement(self, tuple(self.coords_array[index]))

    def elements(self) -> Iterator[GroupElement]:
        for row in self.coords_array:
            yield GroupElement(self, tuple(row))

    @cached_property
    def negation_perm(self) -> np.ndarray:
        perm = self.ravel(-self.coords_array)
        perm.setflags(write=False)
        return perm

    @cached_property
    def _factor_differences(self) -> tuple[np.ndarray, ...]:
        """T_j[u, v] = ((u - v) mod s_j) * stride_j: index(h - g) = sum_j T_j[h_j, g_j]."""
        strides = np.cumprod((1,) + self.moduli[:0:-1])[::-1]
        return tuple(np.mod(np.subtract.outer(np.arange(s), np.arange(s)), s) * d
                     for s, d in zip(self.moduli, strides))

    def differences(self, points, cols, out: np.ndarray | None = None) -> np.ndarray:
        """Indices of h - g for h in ``points`` and g in ``cols``, one row per point.

        ``points`` and ``cols`` are index arrays or slices of the enumeration.  A row sums
        T_j[h_j, g_j] over the factors j, broadcast for every column, gathered for a subset.
        """
        h, g = self.coords_array[points], self.coords_array[cols]
        out = np.empty((len(h), len(g)), np.int64) if out is None else out
        every = isinstance(cols, slice) and cols == slice(None)
        grid = out.reshape(len(h), *(self.moduli if every else (len(g),)))
        for j, (table, u, v) in enumerate(zip(self._factor_differences, h.T, g.T)):
            if every:
                part = table[u].reshape(len(u), *(1,) * j, -1, *(1,) * (self.ndim - j - 1))
            else:  # from the smaller block of T_j: the points' rows or the columns
                block, index, axis = (table[u], v, 1) if len(u) <= len(v) else (table[:, v], u, 0)
                part = np.take(block, index, axis=axis, mode="clip",
                               out=_work("addend", out.shape, np.int64))
            if j:
                grid += part
            else:
                np.copyto(grid, part)
        return out

    def translation_perm(self, t: int) -> np.ndarray:
        """Indices of g - t for every g; gathering with it implements T_t."""
        return self.ravel(self.coords_array - self.coords_array[t])

    def _over_factors(self, transform, values: np.ndarray) -> np.ndarray:
        # row-major enumeration: the last axis reshapes to one axis per factor
        batch = values.shape[:-1]
        axes = tuple(range(len(batch), len(batch) + self.ndim))
        spread = transform(values.reshape(*batch, *self.moduli), axes=axes)
        return spread.reshape(*batch, self.order)

    def fft(self, values: np.ndarray) -> np.ndarray:
        """Forward transform of each sequence in a (..., order) stack."""
        return self._over_factors(np.fft.fftn, values)

    def ifft(self, values: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`fft`; carries the 1/order factor."""
        return self._over_factors(np.fft.ifftn, values)


@dataclass(frozen=True)
class GroupElement:
    """An element of a :class:`GroupSpec`, stored with reduced integer coordinates."""

    group: GroupSpec
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != self.group.ndim:
            raise ValueError(
                f"expected {self.group.ndim} coordinates, got {len(self.coords)}")
        reduced = tuple(operator.index(c) % s for c, s in zip(self.coords, self.group.moduli))
        object.__setattr__(self, "coords", reduced)

    @property
    def index(self) -> int:
        idx = 0
        for c, s in zip(self.coords, self.group.moduli):
            idx = idx * s + c
        return idx


def _same_group(a: GroupSpec, b: GroupSpec, what: str) -> None:
    if a != b:
        raise GroupMismatchError(f"{what}: {a.moduli} vs {b.moduli}")


def add(a: GroupElement, b: GroupElement) -> GroupElement:
    """Componentwise sum modulo the moduli."""
    _same_group(a.group, b.group, "cannot add elements of different groups")
    return GroupElement(a.group, tuple(x + y for x, y in zip(a.coords, b.coords)))


def neg(a: GroupElement) -> GroupElement:
    """Additive inverse."""
    return GroupElement(a.group, tuple(-x for x in a.coords))


@dataclass(frozen=True)
class Character:
    """A character of a finite abelian group, indexed by a dual-group element."""

    index: GroupElement

    def __call__(self, h: GroupElement) -> complex:
        return character_value(self, h)


def character_value(xi: Character, h: GroupElement) -> complex:
    """Evaluate xi at h: exp(2*pi*i * sum_j h_j xi_j / s_j)."""
    _same_group(xi.index.group, h.group, "character and element on different groups")
    frac = 0.0
    for x, c, s in zip(xi.index.coords, h.coords, h.group.moduli):
        frac += ((x * c) % s) / s
    return cmath.exp(2j * cmath.pi * frac)


def _same_space(a, b, what: str) -> None:
    """The mismatch rule of the values on a group: the same group and the same values shape."""
    if a.group != b.group or a.values.shape != b.values.shape:
        raise GroupMismatchError(f"{what}: {a.group.moduli} {a.values.shape} "
                                 f"vs {b.group.moduli} {b.values.shape}")


class GroupArray:
    """Read-only complex values on a group: the storage of every value container.

    The values are copied into a C-ordered complex128 array, which the class's
    :meth:`_shaped` checks and reshapes, and frozen.  A subclass's ``_caches``
    name its cache slots, each ``None`` until first filled.
    """

    __slots__ = ("group", "values")
    _caches: tuple[str, ...] = ()

    def __init__(self, group: GroupSpec, values) -> None:
        arr = self._shaped(np.array(values, dtype=np.complex128, order="C"), group)
        arr.setflags(write=False)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "values", arr)
        for name in self._caches:
            object.__setattr__(self, name, None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    @staticmethod
    def _shaped(arr: np.ndarray, group: GroupSpec) -> np.ndarray:
        """The stack rule: one sequence as a row, or a 2-D stack of at least one row."""
        arr = arr[None, :] if arr.ndim == 1 else arr
        if arr.ndim != 2 or arr.shape[1] != group.order or arr.shape[0] < 1:
            raise ValueError(f"expected (N, {group.order}) values for group {group.moduli}, "
                             f"got shape {arr.shape}")
        return arr


class _Sequence(GroupArray):
    """The algebra of a sequence, or of a stack of them, on a group."""

    __slots__ = ()

    def shift(self, t: GroupElement | int):
        """Translate: (T_t x)(g) = x(g - t)."""
        if isinstance(t, GroupElement):
            _same_group(self.group, t.group, "shift on a different group")
        idx = int(t) if isinstance(t, (int, np.integer)) else t.index
        return type(self)(self.group, self.values[..., self.group.translation_perm(idx)])

    def norm_sq(self) -> float:
        return exact_norm_sq(self.values.ravel())

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def inner(self, other) -> complex:
        _same_space(self, other, "inner product across spaces")
        return exact_inner(self.values, other.values)

    def __add__(self, other):
        _same_space(self, other, "cannot add values from different spaces")
        return type(self)(self.group, self.values + other.values)

    def __sub__(self, other):
        _same_space(self, other, "cannot subtract values from different spaces")
        return type(self)(self.group, self.values - other.values)

    def __mul__(self, scalar: complex):
        return type(self)(self.group, self.values * scalar)

    __rmul__ = __mul__


class GroupSequence(_Sequence):
    """A complex-valued function on a finite abelian group.

    Values are stored in the group's mixed-radix row-major enumeration order
    and are read-only after construction.
    """

    __slots__ = ()

    @staticmethod
    def _shaped(arr: np.ndarray, group: GroupSpec) -> np.ndarray:
        if arr.size != group.order:
            raise ValueError(
                f"expected {group.order} values for group {group.moduli}, got {arr.size}")
        return arr.reshape(-1)

    @classmethod
    def zeros(cls, group: GroupSpec) -> GroupSequence:
        return cls(group, np.zeros(group.order))

    @classmethod
    def delta(cls, group: GroupSpec, at: GroupElement | None = None) -> GroupSequence:
        values = np.zeros(group.order, dtype=np.complex128)
        values[(at or group.identity()).index] = 1.0
        return cls(group, values)

    def at(self, h: GroupElement) -> complex:
        _same_group(self.group, h.group, "evaluation point on a different group")
        return complex(self.values[h.index])

    def to_json_dict(self) -> dict:
        return {
            "moduli": list(self.group.moduli),
            "re": self.values.real.tolist(),
            "im": self.values.imag.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict, where: str = "sequence",
                       group: GroupSpec | None = None) -> GroupSequence:
        """Read :meth:`to_json_dict`'s payload (``im`` optional), on ``group`` if it is given."""
        _require_keys(data, {"moduli", "re", "im"}, {"moduli", "re"}, where)
        moduli = _int_list(data["moduli"], f"{where}.moduli")
        if group is None:
            group = GroupSpec(moduli)
        elif moduli != group.moduli:
            raise SchemaError(f"{where}: moduli {list(moduli)} do not match the "
                              f"group {list(group.moduli)}")
        return cls(group, _complex_values(data, (group.order,), where))

    def __repr__(self) -> str:
        return f"GroupSequence(moduli={self.group.moduli}, values={self.values!r})"


def dft(x):
    """Forward transform x^(xi) = sum_h x(h) conj(xi(h)), unnormalized; takes stacks."""
    return type(x)(x.group, x.group.fft(x.values))


def idft(x):
    """Inverse transform; carries the 1/|H| factor.  Takes stacks as :func:`dft` does."""
    return type(x)(x.group, x.group.ifft(x.values))


def convolve(a, x, *, at: np.ndarray | None = None):
    """(a * x)(h) = sum_{h'} a(h - h') x(h'), by exactly rounded brute force.

    Takes two sequences, or two stacks of equal shape (VectorSequence), whose
    row k is bitwise the convolution of row k of a with row k of x.  With
    ``at``, an array of point indices, returns only the values at those
    points, as an array; otherwise the whole convolution, with a's type.
    """
    _same_group(a.group, x.group, "cannot convolve sequences on different groups")
    av, xv = a.values, x.values
    if av.shape != xv.shape:
        raise DimensionMismatchError(f"cannot convolve shapes {av.shape} and {xv.shape}")
    out = _exact_convolve(*(v.reshape(-1, 1, a.group.order) for v in (av, xv)), a.group, at)
    out = out.reshape(*av.shape[:-1], -1)
    return out if at is not None else type(a)(a.group, out)


def convolve_fft(a, x):
    """Fourier-domain convolution; agrees with :func:`convolve` to round-off.

    Either argument may be a stack (VectorSequence, SequenceMatrix) whose
    (..., |H|) values broadcast against the other's; the result has a's type.
    """
    _same_group(a.group, x.group, "cannot convolve sequences on different groups")
    g = a.group
    return type(a)(g, g.ifft(g.fft(a.values) * g.fft(x.values)))


def involution(a):
    """a*(h) = conj(a(-h)), the transform's conjugate; takes stacks as :func:`dft` does."""
    return type(a)(a.group, np.conj(a.values[..., a.group.negation_perm]))


@dataclass(frozen=True)
class ProductSubgroup:
    """A product-form (per-coordinate stride) subgroup d_1 Z_s1 x ... x d_d Z_sd.

    The abstract form of the subgroup is Z_{s1/d1} x ... x Z_{sd/dd}; the
    embedding multiplies each abstract coordinate by its stride.
    """

    parent: GroupSpec
    strides: tuple[int, ...]

    def __post_init__(self) -> None:
        strides = tuple(int(d) for d in self.strides)
        if len(strides) != self.parent.ndim:
            raise ValueError(
                f"expected {self.parent.ndim} strides, got {len(strides)}")
        for d, s in zip(strides, self.parent.moduli):
            if d < 1 or s % d != 0:
                raise ValueError(f"stride {d} does not divide modulus {s}")
        object.__setattr__(self, "strides", strides)

    @cached_property
    def index(self) -> int:
        """Number of cosets in the parent."""
        return math.prod(self.strides)

    @cached_property
    def abstract_group(self) -> GroupSpec:
        return GroupSpec(tuple(s // d for s, d in zip(self.parent.moduli, self.strides)))

    def embed(self, k: GroupElement) -> GroupElement:
        """Injective homomorphism from the abstract group into the parent."""
        _same_group(k.group, self.abstract_group, "element not in the abstract subgroup")
        return GroupElement(self.parent, tuple(d * c for d, c in zip(self.strides, k.coords)))

    @cached_property
    def embedding_indices(self) -> np.ndarray:
        """Parent index of the embedding of each abstract element, in order."""
        return self.coset_indices[0]

    @cached_property
    def coset_indices(self) -> np.ndarray:
        """(index, order) parent indices of rep_l + embed(k), rows as in coset_representatives."""
        reps = GroupSpec(self.strides).coords_array
        coords = reps[:, None] + self.abstract_group.coords_array * np.asarray(self.strides)
        idx = self.parent.ravel(coords.reshape(-1, self.parent.ndim)).reshape(self.index, -1)
        idx.setflags(write=False)
        return idx

    @cached_property
    def alias_indices(self) -> np.ndarray:
        """(order, index) parent characters restricting to each abstract character.

        Character xi restricts to xi_j mod (s_j / d_j), so row k lists the aliases
        k_j + a_j s_j / d_j: a coset of the annihilator, whose strides are s_j / d_j.
        """
        return ProductSubgroup(self.parent, self.abstract_group.moduli).coset_indices

    @cached_property
    def restriction_indices(self) -> np.ndarray:
        """Abstract character each parent character restricts to: the inverse of alias_indices."""
        idx = self.abstract_group.ravel(self.parent.coords_array)
        idx.setflags(write=False)
        return idx

    def refine(self, inner_strides: Sequence[int]) -> ProductSubgroup:
        """Subgroup of the parent whose abstract form is cut by further strides."""
        inner = ProductSubgroup(self.abstract_group, inner_strides).strides
        return ProductSubgroup(self.parent, tuple(d * e for d, e in zip(self.strides, inner)))


def coset_representatives(sub: ProductSubgroup) -> list[GroupElement]:
    """One representative per coset, mixed-radix over residues 0..d_j-1."""
    return [sub.parent.element_at(i) for i in sub.coset_indices[:, 0]]
