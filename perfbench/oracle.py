"""Reference results computed with numpy FFTs, independent of the package.

Every quantity is written from its definition on Z_s1 x ... x Z_sd with values
in row-major order:

* convolution          (a * b)(h) = sum_g a(h - g) b(g)
* correlation          F(t) = sum_s f(s) conj(w(s - t)), whose transform is
                       fft(f) * conj(fft(w))
* system entries       a_mn(h) = <generator_n, T_{embed h} probe_m>
                       = correlation(generator_n, probe_m)(embed h)
* rotation             (R_gamma f)(t) = f(gamma^T t)
"""

from __future__ import annotations

import numpy as np


def convolve(a: np.ndarray, b: np.ndarray, shape) -> np.ndarray:
    return np.fft.ifftn(np.fft.fftn(a.reshape(shape)) * np.fft.fftn(b.reshape(shape))).ravel()


def correlate(f: np.ndarray, w: np.ndarray, shape) -> np.ndarray:
    spectrum = np.fft.fftn(f.reshape(shape)) * np.conj(np.fft.fftn(w.reshape(shape)))
    return np.fft.ifftn(spectrum).ravel()


def lattice_indices(shape, strides) -> np.ndarray:
    """Row-major indices of the points stride_j * k_j, in row-major order of k."""
    axes = [np.arange(0, s, d) for s, d in zip(shape, strides)]
    grid = np.meshgrid(*axes, indexing="ij")
    return np.ravel_multi_index(tuple(g.ravel() for g in grid), shape)


def synthesize(generators: list[np.ndarray], coefficients: np.ndarray, shape,
               strides) -> np.ndarray:
    """f = sum_n sum_k x_n(k) T_{embed k} generator_n."""
    emb = lattice_indices(shape, strides)
    total = np.zeros(int(np.prod(shape)), dtype=np.complex128)
    for gen, x in zip(generators, coefficients):
        up = np.zeros_like(total)
        up[emb] = x
        total += convolve(up, gen, shape)
    return total


def sample_matrix(generators: list[np.ndarray], probes: list[np.ndarray], shape,
                  strides) -> np.ndarray:
    emb = lattice_indices(shape, strides)
    return np.stack([np.stack([correlate(g, p, shape)[emb] for g in generators])
                     for p in probes])


def rotate(f: np.ndarray, gamma: np.ndarray, side: int) -> np.ndarray:
    coords = np.indices((side, side)).reshape(2, -1).T
    src = np.mod(coords @ gamma, side)
    return f[src[:, 0] * side + src[:, 1]]


QUARTER_TURNS = tuple(np.array(m).reshape(2, 2) for m in
                      ((1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0)))


def shift(f: np.ndarray, t, shape) -> np.ndarray:
    """(T_t f)(g) = f(g - t)."""
    return np.roll(f.reshape(shape), tuple(t), axis=tuple(range(len(shape)))).ravel()


def left_inverse_residual(system: np.ndarray, dual: np.ndarray, shape) -> float:
    """max |B(xi) A(xi) - I| with A(xi) from the system's entrywise FFT."""
    m, n = system.shape[:2]
    spread = np.fft.fftn(system.reshape(m, n, *shape), axes=tuple(range(2, 2 + len(shape))))
    a = np.moveaxis(spread.reshape(m, n, -1), -1, 0)
    return float(np.abs(dual @ a - np.eye(n)).max())


def relative_residual(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max()) / max(1.0, float(np.abs(want).max()))
