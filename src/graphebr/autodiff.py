"""Dense 2-D tensors with reverse-mode automatic differentiation.

Every primitive validates shapes, computes its forward value in float64,
and records a vector-Jacobian closure on a thread-local tape whenever a
tracked tensor is involved. `backward` replays the tape in reverse and
returns a gradient map for the participating leaf tensors; the tape is
define-by-run and cleared after each backward pass.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp

from .errors import DomainError, NumericError, ShapeError, ValidationError, require_seed

STD_EPSILON = 1e-8
NORM_FLOOR = 1e-12


def _finite(arr) -> bool:
    # sum() is NaN/Inf whenever any entry is, and far cheaper than
    # isfinite().all(); only a sum that is not finite, which finite entries
    # can also give by overflowing, pays for the elementwise test
    with np.errstate(over="ignore"):
        return bool(np.isfinite(arr.sum()) or np.isfinite(arr).all())


class Tensor:
    """A rows-by-cols float64 array, optionally tracked for gradients.

    Scalars become 1x1, one-dimensional input becomes a single row.
    Tensor data is treated as immutable once wrapped.
    """

    __slots__ = ("data", "requires_grad", "_on_tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ShapeError(f"tensor: expected at most 2 dimensions, got {arr.ndim}")
        if not _finite(arr):
            raise ValidationError("tensor: values must be finite")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._on_tape = False

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item: tensor has shape {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of primitive applications for one reverse pass."""

    __slots__ = ("records",)

    def __init__(self):
        self.records = []

    def clear(self):
        self.records.clear()

    def __len__(self):
        return len(self.records)


_tls = threading.local()


def active_tape() -> Tape:
    tape = getattr(_tls, "tape", None)
    if tape is None:
        tape = _tls.tape = Tape()
    return tape


@contextmanager
def no_grad():
    """Suspend tape recording; forward values are computed as usual."""
    prior = getattr(_tls, "recording_off", False)
    _tls.recording_off = True
    try:
        yield
    finally:
        _tls.recording_off = prior


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _apply(kind, out_data, inputs, vjp) -> Tensor:
    if not _finite(out_data):
        raise NumericError(f"{kind}: produced non-finite values")
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = False
    out._on_tape = False
    if not getattr(_tls, "recording_off", False) and any(
        t._on_tape or t.requires_grad for t in inputs
    ):
        out._on_tape = True
        active_tape().records.append((out, inputs, vjp))
    return out


def backward(loss: Tensor) -> dict:
    """Reverse-accumulate gradients of a scalar loss.

    Returns a mapping from each contributing requires_grad leaf tensor to
    its gradient array. The ambient tape is cleared afterwards.
    """
    if not isinstance(loss, Tensor) or loss.shape != (1, 1):
        raise ShapeError("backward: loss must be a 1x1 tensor")
    tape = active_tape()
    if not loss._on_tape:
        raise ValidationError("backward: loss is not recorded on the tape")
    try:
        out_ids = {id(rec[0]) for rec in tape.records}
        grads = {id(loss): np.ones((1, 1))}
        result = {}
        for out, inputs, vjp in reversed(tape.records):
            g = grads.pop(id(out), None)
            if g is None:
                continue
            for t, ig in zip(inputs, vjp(g)):
                if ig is None:
                    continue
                if id(t) in out_ids:
                    prior = grads.get(id(t))
                    # out-of-place adds: vjp outputs may alias upstream buffers
                    grads[id(t)] = ig if prior is None else prior + ig
                elif t.requires_grad:
                    prior = result.get(t)
                    result[t] = ig.copy() if prior is None else prior + ig
    finally:
        tape.clear()
    return result


# ---------------------------------------------------------------------------
# primitives


def _tracked(t: Tensor) -> bool:
    """Whether a gradient for t can reach a leaf: on the tape or trainable."""
    return t._on_tape or t.requires_grad


def matmul(a, b) -> Tensor:
    """Matrix product; skips the VJP of an operand that is not tracked."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    grad_a, grad_b = _tracked(a), _tracked(b)

    def vjp(g):
        return (g @ bd.T if grad_a else None), (ad.T @ g if grad_b else None)

    return _apply("matmul", ad @ bd, (a, b), vjp)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"add: {a.shape} vs {b.shape}")
    return _apply("add", a.data + b.data, (a, b), lambda g: (g, g))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"sub: {a.shape} vs {b.shape}")
    return _apply("sub", a.data - b.data, (a, b), lambda g: (g, -g))


def scale(a, c) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    if not np.isfinite(c):
        raise ValidationError("scale: factor must be finite")
    return _apply("scale", c * a.data, (a,), lambda g: (c * g,))


def hadamard(a, b) -> Tensor:
    """Elementwise product; a single-column operand broadcasts across columns.

    Skips the VJP of an operand that is not tracked.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    ok = a.shape[0] == b.shape[0] and (
        a.shape[1] == b.shape[1] or 1 in (a.shape[1], b.shape[1])
    )
    if not ok:
        raise ShapeError(f"hadamard: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    grad_a, grad_b = _tracked(a), _tracked(b)

    def fold(grad, like):
        return grad if grad.shape == like.shape else grad.sum(axis=1, keepdims=True)

    def vjp(g):
        return (fold(g * bd, ad) if grad_a else None), (fold(g * ad, bd) if grad_b else None)

    return _apply("hadamard", ad * bd, (a, b), vjp)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    ad = a.data
    return _apply("relu", np.maximum(ad, 0.0), (a,), lambda g: (g * (ad > 0),))


def l2_normalize_rows(a) -> Tensor:
    """Scale each row to unit norm; rows with norm below 1e-12 stay zero."""
    a = _as_tensor(a)
    ad = a.data
    norms = np.sqrt((ad * ad).sum(axis=1, keepdims=True))
    inv = np.where(norms >= NORM_FLOOR, 1.0 / np.where(norms > 0, norms, 1.0), 0.0)
    out = ad * inv

    def vjp(g):
        return (inv * (g - out * (out * g).sum(axis=1, keepdims=True)),)

    return _apply("l2_normalize_rows", out, (a,), vjp)


def standardize_columns(a) -> Tensor:
    """Shift/scale each column to mean 0 and unit 2-norm.

    Uses the population standard deviation with a 1e-8 epsilon and divides
    by sqrt(n), so non-degenerate columns come out with norm 1.
    """
    a = _as_tensor(a)
    ad = a.data
    n = ad.shape[0]
    mu = ad.mean(axis=0, keepdims=True)
    xc = ad - mu
    sigma = np.sqrt((xc * xc).mean(axis=0, keepdims=True))
    c = 1.0 / ((sigma + STD_EPSILON) * np.sqrt(n))
    out = xc * c

    def vjp(g):
        p = c * (g - g.mean(axis=0, keepdims=True))
        s = (g * xc).sum(axis=0, keepdims=True)
        safe_sigma = np.where(sigma > 0, sigma, 1.0)
        q = -c * s * xc / ((safe_sigma + STD_EPSILON) * n * safe_sigma)
        return (p + np.where(sigma > 0, q, 0.0),)

    return _apply("standardize_columns", out, (a,), vjp)


def frobenius_sq(a) -> Tensor:
    a = _as_tensor(a)
    ad = a.data
    out = np.array([[float((ad * ad).sum())]])
    return _apply("frobenius_sq", out, (a,), lambda g: (2.0 * g[0, 0] * ad,))


def row_dot(a, b) -> Tensor:
    """Per-row dot product of two same-shape operands, as one column."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"row_dot: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    out = (ad * bd).sum(axis=1, keepdims=True)
    return _apply("row_dot", out, (a, b), lambda g: (g * bd, g * ad))


def mean_scalar(a) -> Tensor:
    a = _as_tensor(a)
    ad = a.data
    out = np.array([[float(ad.mean())]])

    def vjp(g):
        return (np.full_like(ad, g[0, 0] / ad.size),)

    return _apply("mean_scalar", out, (a,), vjp)


def power(a, p) -> Tensor:
    a = _as_tensor(a)
    p = float(p)
    ad = a.data
    if p != round(p) and np.any(ad < 0):
        raise DomainError("power: fractional exponent of a negative base")
    if p < 0 and np.any(ad == 0):
        raise DomainError("power: zero base with a negative exponent")
    with np.errstate(over="ignore"):
        out = np.power(ad, p)

    def vjp(g):
        return (g * p * np.power(ad, p - 1.0),)

    return _apply("power", out, (a,), vjp)


class ScatterPlan:
    """Reusable index bundle for repeated gather/scatter along fixed edges.

    Wraps the one-hot selection matrix as CSR so segment sums run as a
    single sparse-dense product with a fixed, reproducible summation order:
    row i lists the positions e with idx[e] == i, in ascending e.
    """

    __slots__ = ("idx", "num_rows", "matrix")

    def __init__(self, idx, num_rows):
        idx = np.asarray(idx, dtype=np.int64).ravel()
        num_rows = int(num_rows)
        if idx.size and (idx.min() < 0 or idx.max() >= num_rows):
            raise ValidationError("scatter plan: index out of range")
        self.idx = idx
        self.num_rows = num_rows
        indptr = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(idx, minlength=num_rows), out=indptr[1:])
        # the keys are unique, so the default sort gives the stable order;
        # numpy's stable sort of int64 is several times slower here
        order = np.argsort(idx * idx.size + np.arange(idx.size))
        self.matrix = sp.csr_matrix(
            (np.ones(idx.size), order, indptr), shape=(num_rows, idx.size)
        )

    def edge_matrix(self, cols, weights, num_cols):
        """CSR whose row i holds weights[e] at column cols[e] for each e
        with idx[e] == i, in the plan's ascending-e order."""
        perm = self.matrix.indices
        return sp.csr_matrix(
            (weights[perm], cols[perm], self.matrix.indptr),
            shape=(self.num_rows, num_cols),
        )


def gather_rows(a, idx) -> Tensor:
    """Select rows of `a` by index.

    The VJP adds rows into zeros with np.add.at in ascending position, the
    order of a ScatterPlan's CSR product, so both sum bitwise alike.
    """
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64).ravel()
    n = a.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValidationError("gather_rows: index out of range")

    def vjp(g):
        out = np.zeros((n, g.shape[1]))
        np.add.at(out, idx, g)
        return (out,)

    return _apply("gather_rows", a.data[idx], (a,), vjp)


def _edge_dots(a, b, ia, ib) -> np.ndarray:
    """One column of row dot products a[ia[e]] . b[ib[e]], one per edge.

    Equals `(a[ia] * b[ib]).sum(axis=1, keepdims=True)` bitwise: each row
    is summed the same way, but the edges-by-features products exist only
    1,024 edges at a time.
    """
    out = np.empty((ia.size, 1))
    for lo in range(0, ia.size, 1024):
        rows = slice(lo, lo + 1024)
        np.sum(a[ia[rows]] * b[ib[rows]], axis=1, out=out[rows, 0])
    return out


def aggregate(x, src_plan: ScatterPlan, dst_plan: ScatterPlan, weights=None) -> Tensor:
    """Weighted neighbor sum along edges e from src[e] to dst[e].

    out[i] = sum of w[e] * x[src[e]] over the edges with dst[e] == i, in
    ascending e; `weights` is one column per edge, and None means w = 1.
    The edges are the plans' `idx`. One CSR product does the work of the
    gather, weight and segment-sum chain with the same float operations in
    the same order, so the results match that chain bitwise while no
    edges-by-features array is kept for backward. Skips the VJP of an
    operand that is not tracked.
    """
    x = _as_tensor(x)
    src, dst = src_plan.idx, dst_plan.idx
    if src.size != dst.size or src_plan.num_rows != x.shape[0]:
        raise ShapeError(
            f"aggregate: {x.shape} with {src.size} sources into {src_plan.num_rows} "
            f"rows and {dst.size} destinations"
        )
    if weights is None:
        inputs, w, grad_w = (x,), np.ones(src.size), False
    else:
        weights = _as_tensor(weights)
        if weights.shape != (src.size, 1):
            raise ShapeError(f"aggregate: weights {weights.shape} for {src.size} edges")
        inputs, w, grad_w = (x, weights), weights.data[:, 0], _tracked(weights)
    xd = x.data
    out = dst_plan.edge_matrix(src, w, xd.shape[0]) @ xd
    grad_x = _tracked(x)

    def vjp(g):
        gx = src_plan.edge_matrix(dst, w, g.shape[0]) @ g if grad_x else None
        gw = _edge_dots(g, xd, dst, src) if grad_w else None
        return (gx, gw)

    return _apply("aggregate", out, inputs, vjp)


def edge_softmax(attend, neighbor, src_plan: ScatterPlan, dst_plan: ScatterPlan, slope) -> Tensor:
    """GAT attention: LeakyReLU(attend[dst[e]] + neighbor[src[e]]) for each
    edge e, softmax-normalized over the edges into dst[e], as one column.

    The edges are the plans' `idx`, sorted by destination with one or more
    per row, as a self-loop per node gives. Forward and VJP run the float
    operations of the gather, add, LeakyReLU, max-shift, exp, segment-sum,
    inverse and product chain in its order, so they match it bitwise.
    Skips the VJP of an operand that is not tracked.
    """
    attend, neighbor = _as_tensor(attend), _as_tensor(neighbor)
    src, dst, starts = src_plan.idx, dst_plan.idx, dst_plan.matrix.indptr
    shapes = (attend.shape, neighbor.shape)
    if src.size != dst.size or shapes != ((dst_plan.num_rows, 1), (src_plan.num_rows, 1)):
        raise ShapeError(f"edge_softmax: scores {shapes} for {dst.size} and {src.size} edge ends")
    if (np.diff(dst) < 0).any() or (np.diff(starts) == 0).any():
        raise ValidationError("edge_softmax: edges unsorted by destination, or a row has none")
    raw = attend.data[dst] + neighbor.data[src]
    slopes = np.where(raw > 0, 1.0, float(slope))
    scores = raw * slopes  # the LeakyReLU: raw * 1.0 is raw, bitwise
    # shifted by the exact per-destination max: softmax is invariant, exp bounded
    w = np.exp(scores - np.maximum.reduceat(scores[:, 0], starts[:-1])[dst].reshape(-1, 1))
    denom = dst_plan.matrix @ w
    inv = np.power(denom, -1.0)[dst]
    grad_attend, grad_neighbor = _tracked(attend), _tracked(neighbor)

    def vjp(g):
        g_denom = (dst_plan.matrix @ (g * w)) * -1.0 * np.power(denom, -2.0)
        g_raw = ((g * inv + g_denom[dst]) * w) * slopes
        g_attend = dst_plan.matrix @ g_raw if grad_attend else None
        return g_attend, (src_plan.matrix @ g_raw if grad_neighbor else None)

    return _apply("edge_softmax", w * inv, (attend, neighbor), vjp)


def permute_rows(a, perm) -> Tensor:
    """Reorder the rows of `a` by a permutation: out[r] = a[perm[r]].

    The VJP is the inverse reordering. Adding 0.0 maps -0.0 to +0.0, so it
    equals gather_rows' scatter into zeros bitwise.
    """
    a = _as_tensor(a)
    perm = np.asarray(perm, dtype=np.int64).ravel()
    n = a.shape[0]
    if not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValidationError("permute_rows: index is not a permutation of the rows")
    inverse = np.empty(n, dtype=np.int64)
    inverse[perm] = np.arange(n)
    return _apply("permute_rows", a.data[perm], (a,), lambda g: (g[inverse] + 0.0,))


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    return _apply("transpose", a.data.T.copy(), (a,), lambda g: (g.T,))


# ---------------------------------------------------------------------------
# finite-difference oracle


def finite_difference_gradient(f, x, eps: float = 1e-5) -> Tensor:
    """Central-difference gradient estimate of a scalar function at x."""
    if eps <= 0:
        raise ValidationError("finite_difference_gradient: eps must be positive")
    x = _as_tensor(x)
    base = x.data
    out = np.zeros_like(base)
    for i in range(base.size):
        xp = base.copy()
        xp.flat[i] += eps
        xm = base.copy()
        xm.flat[i] -= eps
        out.flat[i] = (_scalar(f(Tensor(xp))) - _scalar(f(Tensor(xm)))) / (2 * eps)
    return Tensor(out)


def _scalar(v) -> float:
    return v.item() if isinstance(v, Tensor) else float(v)


def gradient_check(f, xs, eps: float = 1e-5) -> float:
    """Max relative error of reverse-mode vs central differences.

    `f` maps the given tensors to a scalar; the error per element is
    |g - g_fd| / max(1, |g_fd|), maximized over all inputs.
    """
    leaves = [Tensor(_as_tensor(x).data.copy(), requires_grad=True) for x in xs]
    grads = backward(f(*leaves))
    worst = 0.0
    for i, leaf in enumerate(leaves):
        def probe(v, _i=i):
            args = [Tensor(l.data) for l in leaves]
            args[_i] = v
            return f(*args)

        fd = finite_difference_gradient(probe, Tensor(leaf.data), eps).data
        g = grads.get(leaf)
        if g is None:
            g = np.zeros_like(fd)
        err = np.abs(g - fd) / np.maximum(1.0, np.abs(fd))
        if err.size:
            worst = max(worst, float(err.max()))
    return worst


def primitive_gradient_suite(seed: int) -> list:
    """Gradient-check every differentiable primitive at random inputs.

    Returns (name, max_relative_error) pairs; used by tests and the CLI.
    """
    require_seed(seed, "gradient suite")
    rng = np.random.default_rng(seed)

    def mat(r, c, low=-1.0, high=1.0):
        return rng.uniform(low, high, size=(r, c))

    def away_from_zero(r, c):
        x = mat(r, c)
        return x + np.where(x >= 0, 0.2, -0.2)

    contract = Tensor(mat(5, 4))

    def reduced(t):
        return mean_scalar(hadamard(t, contract)) if t.shape == (5, 4) else mean_scalar(t)

    idx = rng.integers(0, 5, size=9)
    plan = ScatterPlan(idx, 5)
    scatter_in = mat(9, 4)
    cases = [
        ("matmul", lambda a, b: reduced(matmul(a, b)), [mat(5, 3), mat(3, 4)]),
        ("add", lambda a, b: reduced(add(a, b)), [mat(5, 4), mat(5, 4)]),
        ("sub", lambda a, b: reduced(sub(a, b)), [mat(5, 4), mat(5, 4)]),
        ("scale", lambda a: reduced(scale(a, -1.7)), [mat(5, 4)]),
        ("hadamard", lambda a, b: reduced(hadamard(a, b)), [mat(5, 4), mat(5, 4)]),
        ("hadamard_bcast", lambda a, b: reduced(hadamard(a, b)), [mat(5, 1), mat(5, 4)]),
        ("relu", lambda a: reduced(relu(a)), [away_from_zero(5, 4)]),
        (
            "l2_normalize_rows",
            lambda a: reduced(l2_normalize_rows(a)),
            [mat(5, 4) + 2.0],
        ),
        (
            "standardize_columns",
            lambda a: reduced(standardize_columns(a)),
            [mat(5, 4)],
        ),
        ("frobenius_sq", lambda a: frobenius_sq(a), [mat(5, 4)]),
        ("row_dot", lambda a, b: reduced(row_dot(a, b)), [mat(5, 4), mat(5, 4)]),
        ("mean_scalar", lambda a: mean_scalar(a), [mat(5, 4)]),
        ("power_square", lambda a: reduced(power(a, 2.0)), [mat(5, 4)]),
        (
            "power_inverse",
            lambda a: reduced(power(a, -1.0)),
            [mat(5, 4, 0.5, 2.0)],
        ),
        (
            "power_fractional",
            lambda a: reduced(power(a, 1.5)),
            [mat(5, 4, 0.5, 2.0)],
        ),
        (
            "gather_rows",
            lambda a: mean_scalar(hadamard(gather_rows(a, idx), scatter_in)),
            [mat(5, 4)],
        ),
        ("transpose", lambda a: mean_scalar(power(transpose(a), 2.0)), [mat(5, 3)]),
    ]
    # drawn after the cases above, whose inputs stay what they were
    src_plan = ScatterPlan(rng.integers(0, 5, size=9), 5)
    perm = rng.permutation(5)
    cases += [
        (
            "aggregate",
            lambda x, w: reduced(aggregate(x, src_plan, plan, w)),
            [mat(5, 4), mat(9, 1)],
        ),
        ("permute_rows", lambda a: reduced(permute_rows(a, perm)), [mat(5, 4)]),
    ]
    # random edges and a self-loop per row, sorted by destination
    pairs = np.vstack([rng.integers(0, 5, size=(9, 2)), np.arange(5).repeat(2).reshape(5, 2)])
    ends = pairs[np.argsort(pairs[:, 1], kind="stable")].T
    soft = ScatterPlan(ends[0], 5), ScatterPlan(ends[1], 5), 0.2
    upstream = Tensor(mat(14, 1))
    cases.append((
        "edge_softmax",
        lambda a, n: mean_scalar(hadamard(edge_softmax(a, n, *soft), upstream)),
        [mat(5, 1), mat(5, 1)],
    ))
    return [(name, gradient_check(f, xs)) for name, f, xs in cases]
