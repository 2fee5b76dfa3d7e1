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

from dataclasses import dataclass

import numpy as np
import scipy.fft
from numpy.polynomial.chebyshev import chebvander
from scipy.stats import qmc

from .truncation import sthosvd
from .tucker import TuckerTensor3, multi_mode_product, tucker_zero

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


def _eval_on_grid(g, grids):
    """Evaluate g on the tensor grid; vectorized call with pointwise fallback."""
    E1, E2, E3 = np.meshgrid(*grids, indexing="ij")
    pts = np.stack([E1, E2, E3], axis=-1)
    try:
        vals = np.asarray(g(pts), dtype=float)
        if vals.shape == E1.shape:
            return vals
    except Exception:
        pass
    vals = np.empty(E1.shape)
    for idx in np.ndindex(*E1.shape):
        vals[idx] = g(pts[idx])
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

    def eval_grid(self, eta1, eta2, eta3):
        """Evaluate on the tensor grid eta1 x eta2 x eta3."""
        mats = [
            chebvander(2.0 * np.atleast_1d(e) - 1.0, d) @ U
            for e, d, U in zip((eta1, eta2, eta3), self.degrees, self.tensor.factors)
        ]
        return multi_mode_product(self.tensor.core, mats)

    def eval_points(self, pts):
        """Evaluate at scattered points of shape (N, 3)."""
        pts = np.asarray(pts, dtype=float)
        Bs = [
            chebvander(2.0 * pts[:, k] - 1.0, self.degrees[k]) @ self.tensor.factors[k]
            for k in range(3)
        ]
        return np.einsum("pa,pb,pc,abc->p", Bs[0], Bs[1], Bs[2], self.tensor.core)


def halton_sample(n=512, seed=0):
    """Fixed low-discrepancy validation sample in [0,1]^3."""
    sampler = qmc.Halton(d=3, scramble=False, seed=seed)
    return sampler.random(n)


def zero_function():
    """The exact-zero separable function (canonical rank (1,1,1))."""
    return SeparableFunction3((0, 0, 0), tucker_zero((1, 1, 1)), error=0.0)


def approximate_function(g, eps, degree_cap=DEGREE_CAP, validate=True, scale=None):
    """Separable approximation of ``g`` on [0,1]^3 to relative accuracy eps.

    Args:
        g: trivariate evaluator; ideally vectorized over a trailing-axis-3
            stack of points, otherwise called pointwise.
        eps: relative target accuracy (coefficient-tensor compression level).
        degree_cap: maximum Chebyshev coefficients per direction.
        validate: check the interpolant at 512 Halton points and record the
            achieved error; a miss beyond 10*eps*max|g| raises.
        scale: known magnitude of the surrounding problem.  A function whose
            samples stay below 1e-14*scale is numerically zero (e.g. a
            metric entry that cancels exactly); without the hint such noise
            has no convergent tail and would exhaust the degree cap.

    Raises:
        NonSeparableFunctionError: degree cap exceeded or validation failed.
    """
    N = [_START_DEGREE] * 3
    while True:
        grids = [chebyshev_lobatto(Nk) for Nk in N]
        vals = _eval_on_grid(g, grids)
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
        if any(Nk + 1 > degree_cap for Nk in N):
            raise NonSeparableFunctionError(
                "degree cap %d exceeded (requested grid %s); function is not "
                "resolvable as a separable interpolant" % (degree_cap, N)
            )

    C = _trim_degrees(C, eps)
    tensor = sthosvd(C, eps)
    degrees = tuple(n - 1 for n in C.shape)
    sf = SeparableFunction3(degrees, tensor, error=np.nan)

    if not validate:
        return sf
    pts = halton_sample()
    # evaluate g at scattered points (vectorized if possible)
    try:
        exact = np.asarray(g(pts), dtype=float)
        if exact.shape != (len(pts),):
            raise ValueError
    except Exception:
        exact = np.array([float(g(p)) for p in pts])
    approx = sf.eval_points(pts)
    err = float(np.max(np.abs(approx - exact)))
    scale = float(np.max(np.abs(exact)))
    if err > 10.0 * eps * max(scale, 1e-300):
        raise NonSeparableFunctionError(
            "validation failed: error %.3e exceeds %.3e" % (err, 10 * eps * scale)
        )
    return SeparableFunction3(degrees, tensor, error=err)
