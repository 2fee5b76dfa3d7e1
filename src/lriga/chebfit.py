"""Separable (low-rank) approximation of trivariate functions on [0,1]^3.

A function is interpolated on a tensor Chebyshev-Lobatto grid, with the
degree doubled per direction until the trailing interpolation coefficients
are negligible; the coefficient tensor is then compressed to Tucker form.
Chebyshev polynomials live on [-1,1] and are pulled back to [0,1] by the
affine map eta -> 2*eta - 1 throughout.

The result keeps the approximation as a small Tucker coefficient tensor
whose factor columns are univariate Chebyshev coefficient vectors -- the
exact form consumed by the weighted univariate assembly.
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.fft
from numpy.polynomial.chebyshev import chebvander

from .truncation import sthosvd
from .tucker import TuckerTensor3, tucker_zero

#: Maximum number of Chebyshev coefficients per direction.
DEGREE_CAP = 129

_START_DEGREE = 8


class NonSeparableFunctionError(RuntimeError):
    """The function cannot be resolved within the per-direction degree cap."""


def chebyshev_lobatto(N):
    """The N+1 Chebyshev-Lobatto points on [0,1], following cos(pi*j/N)."""
    return 0.5 * (np.cos(np.pi * np.arange(N + 1) / N) + 1.0)


def chebyshev_coefficients(values, axis):
    """Chebyshev coefficients along one axis of Lobatto-grid samples.

    ``values`` holds f at cos(pi*j/N) along ``axis``; the returned array
    holds the coefficients c_k of f = sum c_k T_k along that axis.
    """
    N = values.shape[axis] - 1
    a = scipy.fft.dct(values, type=1, axis=axis)
    scale = np.full(N + 1, 1.0 / N)
    scale[0] = scale[N] = 0.5 / N
    shape = [1] * values.ndim
    shape[axis] = N + 1
    return a * scale.reshape(shape)


def _evaluate(g, pts):
    """g called once on a stack of points with trailing axis 3.

    Raises:
        ValueError: if g does not return one value per point.
    """
    vals = np.asarray(g(pts), dtype=float)
    if vals.shape != pts.shape[:-1]:
        raise ValueError(
            "evaluator returned shape %s for points of shape %s; expected %s"
            % (vals.shape, pts.shape, pts.shape[:-1])
        )
    return vals


def _tail_converged(C, axis, eps):
    """Trailing two coefficient slabs negligible relative to the whole."""
    nrm = np.linalg.norm(C)
    if nrm == 0.0:
        return True
    sl = [slice(None)] * 3
    sl[axis] = slice(C.shape[axis] - 2, None)
    return np.linalg.norm(C[tuple(sl)]) <= eps * nrm


def _trim_degrees(C, eps):
    """Drop trailing coefficient slabs that are far below the tolerance."""
    nrm = np.linalg.norm(C)
    if nrm == 0.0:
        return C[:1, :1, :1]
    budget = 1e-2 * eps * nrm
    for axis in range(3):
        keep = C.shape[axis]
        sl = [slice(None)] * 3
        while keep > 1:
            sl[axis] = slice(keep - 1, keep)
            if np.linalg.norm(C[tuple(sl)]) ** 2 > budget ** 2 / max(C.shape[axis], 1):
                break
            keep -= 1
        sl[axis] = slice(0, keep)
        C = C[tuple(sl)]
    return C


@dataclass(frozen=True)
class SeparableFunction3:
    """Tucker-compressed Chebyshev interpolant of a trivariate function.

    Attributes:
        degrees: per-direction polynomial degree of the interpolant.
        tensor: coefficient tensor in Tucker form; factor column r of
            direction k is a univariate Chebyshev coefficient vector.
        error: max abs deviation from the target on the validation sample.
    """

    degrees: tuple
    tensor: TuckerTensor3
    error: float

    @property
    def rank(self):
        return self.tensor.rank

    def direction_weights(self, k):
        """Columns of the k-th factor as Chebyshev coefficient vectors."""
        U = self.tensor.factors[k]
        return [U[:, r] for r in range(U.shape[1])]

    def eval_points(self, pts):
        """Evaluate at scattered points of shape (N, 3)."""
        pts = np.asarray(pts, dtype=float)
        Bs = [
            chebvander(2.0 * pts[:, k] - 1.0, self.degrees[k]) @ self.tensor.factors[k]
            for k in range(3)
        ]
        return np.einsum("pa,pb,pc,abc->p", Bs[0], Bs[1], Bs[2], self.tensor.core)


@functools.lru_cache(maxsize=None)
def halton_sample(n=512):
    """Fixed low-discrepancy validation sample in [0,1]^3: the first n
    points of the unscrambled Halton sequence (radical inverses of
    0, 1, ..., n-1 in bases 2, 3 and 5).

    Memoized per process: one shared read-only array per n.
    """
    pts = np.zeros((n, 3))
    for k, base in enumerate((2, 3, 5)):
        i = np.arange(n)
        scale = 1.0
        while np.any(i):
            scale /= base
            pts[:, k] += scale * (i % base)
            i //= base
    pts.setflags(write=False)
    return pts


def zero_function():
    """The exact-zero separable function (canonical rank (1,1,1))."""
    return SeparableFunction3((0, 0, 0), tucker_zero((1, 1, 1)), error=0.0)


def approximate_function(g, eps, scale=None):
    """Separable approximation of ``g`` on [0,1]^3 to relative accuracy eps.

    Args:
        g: trivariate evaluator, vectorized: called on a stack of points
            of shape (..., 3), it returns one value per point, shape (...).
        eps: relative target accuracy (coefficient-tensor compression level).
        scale: known magnitude of the surrounding problem.  A function whose
            samples stay below 1e-14*scale is numerically zero (e.g. a
            metric entry that cancels exactly); without the hint such noise
            has no convergent tail and would exhaust the degree cap.

    The interpolant is checked at 512 Halton points and the achieved error
    recorded; a miss beyond 10*eps*max|g| raises.

    Raises:
        NonSeparableFunctionError: :data:`DEGREE_CAP` exceeded or validation
            failed.
        ValueError: g returned a value of the wrong shape.
    """
    N = [_START_DEGREE] * 3
    while True:
        grids = np.meshgrid(*[chebyshev_lobatto(Nk) for Nk in N], indexing="ij")
        vals = _evaluate(g, np.stack(grids, axis=-1))
        if not np.all(np.isfinite(vals)):
            raise NonSeparableFunctionError("function returned non-finite values")
        if scale is not None and np.max(np.abs(vals)) <= 1e-14 * scale:
            return zero_function()
        C = vals
        for axis in range(3):
            C = chebyshev_coefficients(C, axis)
        bad = [
            axis
            for axis in range(3)
            if not _tail_converged(C, axis, eps)
        ]
        if not bad:
            break
        for axis in bad:
            N[axis] *= 2
        if any(Nk + 1 > DEGREE_CAP for Nk in N):
            raise NonSeparableFunctionError(
                "degree cap %d exceeded (requested grid %s); function is not "
                "resolvable as a separable interpolant" % (DEGREE_CAP, N)
            )

    C = _trim_degrees(C, eps)
    tensor = sthosvd(C, eps)
    degrees = tuple(n - 1 for n in C.shape)
    sf = SeparableFunction3(degrees, tensor, error=np.nan)

    pts = halton_sample()
    exact = _evaluate(g, pts)
    approx = sf.eval_points(pts)
    err = float(np.max(np.abs(approx - exact)))
    scale = float(np.max(np.abs(exact)))
    if err > 10.0 * eps * max(scale, 1e-300):
        raise NonSeparableFunctionError(
            "validation failed: error %.3e exceeds %.3e" % (err, 10 * eps * scale)
        )
    return SeparableFunction3(degrees, tensor, error=err)
