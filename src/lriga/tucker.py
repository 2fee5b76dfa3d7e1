"""Tucker-format tensors and Kronecker-structured operators in three dimensions.

Conventions used throughout the package:

* Dense three-way tensors are plain ``numpy.ndarray`` objects of shape
  ``(n1, n2, n3)``.
* The vectorization ``vec(X)`` orders entries colexicographically (first
  index fastest), i.e. ``X.ravel(order='F')``.  With this layout,

      (J3 kron J2 kron J1) @ vec(X) == vec(X x1 J1 x2 J2 x3 J3)

  where ``xk`` denotes the mode-k product.
* A Tucker tensor is a small core tensor multiplied along each mode by a
  factor matrix; its multilinear rank is the tuple of core dimensions.
* Identity basis at the cap: images and sums give a mode whose rank reaches
  its size ``n`` the shared factor ``identity(n)``; the core holds the
  entries there.  Every operation recognises that object (``is``) and skips
  its QR, Gram and mode products; a plain ``np.eye(n)`` is still right.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np

#: Refuse to densify tensors with more entries than this (2**27 doubles = 1 GiB).
DENSE_GUARD = 2 ** 27


class MemoryGuardError(RuntimeError):
    """Raised when an operation would materialize an oversized dense tensor."""


@lru_cache(maxsize=None)
def identity(n):
    """The shared, read-only ``np.eye(n)`` that marks an identity-basis mode."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def qr_or_identity(F):
    """``F = Q R`` with orthonormal ``Q``: a thin QR, except that a factor
    with at least as many columns as rows is ``identity(n) @ F`` and is
    returned as ``(identity(n), F)`` without a factorization."""
    n, s = F.shape
    if s >= n:
        return identity(n), F
    return np.linalg.qr(F)


def vec(X):
    """Colexicographic vectorization of a dense tensor."""
    return np.asarray(X).ravel(order="F")


def unvec(x, dims):
    """Inverse of :func:`vec` for the given ``(n1, n2, n3)``."""
    return np.asarray(x).reshape(dims, order="F")


def mode_product(X, axis, J):
    """Multiply the dense tensor ``X`` along ``axis`` by the matrix ``J``.

    ``J`` has shape ``(m, n_axis)``; the result has the same shape as ``X``
    except that dimension ``axis`` becomes ``m``.  Entrywise,
    ``out[..., i, ...] = sum_j X[..., j, ...] * J[i, j]``.

    Each axis is one matrix product on a reshape of ``X`` (axis 1 batched
    over the first index), so a C-contiguous ``X`` is never copied or
    transposed, and the result is C-contiguous.
    """
    X, J = np.asarray(X), np.asarray(J)
    n0, n1, n2 = X.shape
    m = J.shape[0]
    if axis == 0:
        return (J @ X.reshape(n0, n1 * n2)).reshape(m, n1, n2)
    if axis == 1:
        return np.matmul(J, X)
    return (X.reshape(n0 * n1, n2) @ J.T).reshape(n0, n1, m)


def multi_mode_product(X, mats):
    """Apply a mode-k product for every non-``None`` entry of ``mats``."""
    Y = np.asarray(X)
    for k, J in enumerate(mats):
        if J is not None:
            Y = mode_product(Y, k, J)
    return Y


@dataclass(frozen=True)
class TuckerTensor3:
    """A three-way tensor in Tucker format.

    Besides the free functions below it offers the vector interface the
    solver is written against (``+``, ``-``, scalar ``*``, ``inner``,
    ``norm``, ``norm_qr``, ``map``, ``rank``, ``components``), which
    :class:`BlockTuckerVector` implements for block vectors.

    Attributes:
        core: ndarray of shape ``(r1, r2, r3)``.
        factors: tuple of three factor matrices of shapes ``(nk, rk)``.
    """

    core: np.ndarray
    factors: tuple

    def __post_init__(self):
        assert self.core.ndim == 3
        assert len(self.factors) == 3
        for k in range(3):
            assert self.factors[k].shape[1] == self.core.shape[k], (
                "factor %d has %d columns, core expects %d"
                % (k, self.factors[k].shape[1], self.core.shape[k])
            )

    @property
    def dims(self):
        return tuple(U.shape[0] for U in self.factors)

    @property
    def rank(self):
        return self.core.shape

    @property
    def components(self):
        """The tensor as a one-component vector (cf. ``BlockTuckerVector``)."""
        return (self,)

    def zeros_like(self):
        return tucker_zero(self.dims)

    def inner(self, other):
        return tucker_inner(self, other)

    def norm(self):
        """Frobenius norm (equals the 2-norm of the vectorization)."""
        return np.sqrt(max(tucker_inner(self, self), 0.0))

    def norm_qr(self):
        return tucker_norm_qr(self)

    def map(self, fn):
        """``fn`` applied to the one component."""
        return fn(self)

    def __add__(self, other):
        return tucker_add(self, other)

    def __sub__(self, other):
        return tucker_add(self, tucker_scale(other, -1.0))

    def __rmul__(self, a):
        return tucker_scale(self, a)


def from_dense(X):
    """Wrap a dense tensor as a full-rank Tucker tensor (identity factors)."""
    X = np.asarray(X, dtype=float)
    assert X.ndim == 3
    return TuckerTensor3(X.copy(), tuple(np.eye(n) for n in X.shape))


def to_dense(x, guard=DENSE_GUARD):
    """Expand a Tucker tensor to a dense ndarray.

    Raises:
        MemoryGuardError: if the dense tensor would exceed ``guard`` entries.
    """
    n1, n2, n3 = x.dims
    if n1 * n2 * n3 > guard:
        raise MemoryGuardError(
            "dense expansion of size %d x %d x %d exceeds guard %d" % (n1, n2, n3, guard)
        )
    return multi_mode_product(x.core, x.factors)


def tucker_zero(dims):
    """The canonical rank-(1,1,1) zero tensor of the given dimensions."""
    factors = []
    for n in dims:
        e = np.zeros((n, 1))
        e[0, 0] = 1.0
        factors.append(e)
    return TuckerTensor3(np.zeros((1, 1, 1)), tuple(factors))


def tucker_scale(x, a):
    """Scale a Tucker tensor by the scalar ``a`` (rank unchanged)."""
    return TuckerTensor3(float(a) * x.core, x.factors)


def tucker_add(x, y):
    """Sum of two Tucker tensors; rank ``min(n_k, rx_k + ry_k)`` per mode.

    In a mode where the ranks add up to at least the mode size, both
    operands are taken to the identity basis (core times factor, free for
    an ``identity(n)`` factor) and their cores are added there.  In the
    other modes the factors are concatenated and the cores sit in the two
    diagonal blocks of the enlarged core.  No core exceeds ``n1 n2 n3``.
    """
    assert x.dims == y.dims, "dimension mismatch: %s vs %s" % (x.dims, y.dims)
    n, rx, ry = x.dims, x.rank, y.rank
    shared = [rx[k] + ry[k] >= n[k] for k in range(3)]
    core = np.zeros([n[k] if shared[k] else rx[k] + ry[k] for k in range(3)])
    for t, off in ((x, (0, 0, 0)), (y, [0 if s else r for s, r in zip(shared, rx)])):
        C = multi_mode_product(t.core, [U if s and U is not identity(len(U)) else None
                                        for s, U in zip(shared, t.factors)])
        core[tuple(slice(o, o + c) for o, c in zip(off, C.shape))] += C
    factors = tuple(
        identity(n[k]) if shared[k] else np.hstack([x.factors[k], y.factors[k]])
        for k in range(3)
    )
    return TuckerTensor3(core, factors)


def tucker_inner(x, y):
    """Frobenius inner product of two Tucker tensors.

    Computed by contracting the small Gram matrices ``Xk^T Yk`` against the
    cores, never forming dense tensors; an ``identity(n)`` factor makes its
    Gram matrix the other factor (or nothing, when both are).
    """
    assert x.dims == y.dims
    grams = []
    for X, Y in zip(x.factors, y.factors):
        I = identity(len(X))
        grams.append(None if X is I and Y is I else Y if X is I
                     else X.T if Y is I else X.T @ Y)
    return float(np.dot(vec(x.core), vec(multi_mode_product(y.core, grams))))


def tucker_norm_qr(x):
    """Frobenius norm taken from the QR-reduced core, ``|core xk Rk|_F``
    with ``Rk`` the triangular factor of the k-th factor matrix (the factor
    itself when it is wide, nothing for an ``identity(n)`` factor).

    The Gram form of :meth:`TuckerTensor3.norm` loses all relative accuracy
    on a difference of nearly equal tensors (a residual ``f - A x`` near
    convergence); this form keeps it.
    """
    Rs = [None if R is Q else R for Q, R in map(qr_or_identity, x.factors)]
    return float(np.linalg.norm(multi_mode_product(x.core, Rs)))


@dataclass(frozen=True)
class TuckerOperator3:
    """A linear operator in Tucker-matrix (Kronecker-structured) format.

    Attributes:
        core: ndarray of shape ``(R1, R2, R3)``.
        factors: tuple of three sequences of matrices; ``factors[k][i]`` maps
            the k-th direction and may be dense, sparse, or any object
            supporting ``@`` with a dense matrix.

    Acting on ``vec(x)``, the operator equals
    ``sum_{i1,i2,i3} core[i1,i2,i3] * (C3_{i3} kron C2_{i2} kron C1_{i1})``.
    """

    core: np.ndarray
    factors: tuple

    def __post_init__(self):
        assert self.core.ndim == 3
        for k in range(3):
            assert len(self.factors[k]) == self.core.shape[k]

    @property
    def rank(self):
        return self.core.shape

    @property
    def dims_out(self):
        return tuple(self.factors[k][0].shape[0] for k in range(3))

    def matvec(self, x):
        return tucker_matvec(self, x)


def tucker_matvec(op, x):
    """Apply a Tucker-format operator to a Tucker tensor.

    The image is exact and has orthonormal factors spanning the columns of
    ``[Ck_1 Xk, ..., Ck_Rk Xk]`` (``identity(nk)`` where ``Rk rk >= nk``),
    so its rank is ``(min(n1, R1 r1), min(n2, R2 r2), min(n3, R3 r3))``;
    ``kron(op.core, x.core)`` is never formed (see :func:`_kron_image`).
    """
    factors = []
    for k in range(3):
        blocks = [np.asarray(C @ x.factors[k]) for C in op.factors[k]]
        factors.append(np.hstack(blocks))
    return _kron_image(op.core, factors, x.core)


def _kron_image(G, factors, C):
    """Exact Tucker form of the tensor with core ``kron(G, C)`` and
    stacked factors ``Fk = [Fk_1 ... Fk_Ak]`` (slot of ``G`` slowest).

    With ``Fk = Qk Rk`` from :func:`qr_or_identity` (``Qk = identity(nk)``
    and ``Rk = Fk`` in a wide mode, where the core is then the dense image)
    and ``Rk_a`` the columns of ``Rk`` belonging to slot ``a``, the reduced
    core is

        Z = sum over G[a,b,c] != 0 of G[a,b,c] * C x1 R1_a x2 R2_b x3 R3_c,

    so only the nonzero entries of ``G`` cost work and no core exceeds
    ``n1 n2 n3`` entries.  The nonzeros are visited grouped by ``(a, b)``:
    ``C x1 R1_a`` is computed once per ``a`` and the ``c``-sum folds into
    one mode-3 matrix per pair.

    Raises:
        MemoryGuardError: if the reduced core would exceed ``DENSE_GUARD``
            entries.
    """
    r = C.shape
    m = [min(F.shape[0], F.shape[1]) for F in factors]
    if m[0] * m[1] * m[2] > DENSE_GUARD:
        raise MemoryGuardError(
            "operator image core %d x %d x %d exceeds guard %d"
            % (m[0], m[1], m[2], DENSE_GUARD)
        )
    Qs, blocks = [], []
    for k in range(3):
        Q, R = qr_or_identity(factors[k])
        Qs.append(Q)
        blocks.append([R[:, a * r[k] : (a + 1) * r[k]] for a in range(G.shape[k])])

    Z = np.zeros((m[0] * m[1], m[2]))
    a_cached = None
    # argwhere is lexicographic, so each (a, b) pair is one contiguous run
    for (a, b), entries in groupby(np.argwhere(G).tolist(), key=lambda e: e[:2]):
        if a != a_cached:
            T, a_cached = mode_product(C, 0, blocks[0][a]), a
        M3 = sum(G[a, b, c] * blocks[2][c] for _, _, c in entries)
        W = mode_product(T, 1, blocks[1][b]).reshape(m[0] * m[1], r[2])
        Z += W @ M3.T
    return TuckerTensor3(Z.reshape(m), tuple(Qs))


def operator_sum(ops):
    """Exact sum of Tucker-format operators (cores block-embedded)."""
    ops = list(ops)
    R = [sum(op.rank[k] for op in ops) for k in range(3)]
    core = np.zeros(tuple(R))
    off = [0, 0, 0]
    factors = ([], [], [])
    for op in ops:
        r = op.rank
        core[off[0] : off[0] + r[0], off[1] : off[1] + r[1], off[2] : off[2] + r[2]] = op.core
        for k in range(3):
            factors[k].extend(op.factors[k])
            off[k] += r[k]
    return TuckerOperator3(core, tuple(tuple(f) for f in factors))


def operator_transpose(op):
    """Transpose of a Tucker-format operator (factorwise transposition)."""
    factors = tuple(
        tuple(C.T for C in op.factors[k]) for k in range(3)
    )
    return type(op)(op.core, factors)


@dataclass(frozen=True)
class BlockTuckerVector:
    """Three Tucker tensors, one per displacement component.

    Implements the vector interface of TuckerTensor3 that the solver uses:
    arithmetic acts componentwise, the inner product is the component sum
    and ``map`` applies a Tucker-tensor map (a truncation) per component.
    """

    components: tuple

    def __post_init__(self):
        assert len(self.components) == 3
        dims = self.components[0].dims
        for c in self.components[1:]:
            assert c.dims == dims, "components must share outer dims"

    @property
    def dims(self):
        return self.components[0].dims

    @property
    def rank(self):
        """Per-component multilinear ranks."""
        return tuple(c.rank for c in self.components)

    ranks = rank  # the name bench/workloads.py reads

    def zeros_like(self):
        return BlockTuckerVector(tuple(c.zeros_like() for c in self.components))

    def inner(self, other):
        return sum(a.inner(b) for a, b in zip(self.components, other.components))

    def norm(self):
        return np.sqrt(max(self.inner(self), 0.0))

    def norm_qr(self):
        return np.sqrt(sum(c.norm_qr() ** 2 for c in self.components))

    def map(self, fn):
        """``fn`` (a TuckerTensor3 map) applied to every component."""
        return BlockTuckerVector(tuple(fn(c) for c in self.components))

    def __add__(self, other):
        return BlockTuckerVector(
            tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other):
        return BlockTuckerVector(
            tuple(a - b for a, b in zip(self.components, other.components)))

    def __rmul__(self, a):
        return BlockTuckerVector(tuple(a * c for c in self.components))


@dataclass(frozen=True)
class BlockTuckerOperator:
    """3x3 grid of Tucker-format operator blocks."""

    blocks: tuple  # blocks[i][j] maps component j to component i

    def __post_init__(self):
        assert len(self.blocks) == 3
        for row in self.blocks:
            assert len(row) == 3

    def matvec(self, x):
        out = []
        for row in self.blocks:
            y = tucker_matvec(row[0], x.components[0])
            for j in (1, 2):
                y = tucker_add(y, tucker_matvec(row[j], x.components[j]))
            out.append(y)
        return BlockTuckerVector(tuple(out))


def compression_percent(x):
    """Storage of the Tucker representation relative to dense, in percent.

    ``100 * sum_i (r1 r2 r3 + sum_k rk nk) / sum_i (n1 n2 n3)`` over the
    components ``i`` of ``x`` (one for a TuckerTensor3).
    """
    stored = dense = 0
    for c in x.components:
        n, r = c.dims, c.rank
        stored += r[0] * r[1] * r[2] + sum(r[k] * n[k] for k in range(3))
        dense += n[0] * n[1] * n[2]
    return 100.0 * stored / dense
