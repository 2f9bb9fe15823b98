"""The three training objectives and their weighted combination."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import NumericError, ShapeError, ValidationError, require_field_types


@dataclass(frozen=True)
class LossWeights:
    """Scalar weights of the combined objective."""

    alpha: float = 1.0
    beta: float = 1e-3
    gamma: float = 1e-3

    def __post_init__(self):
        require_field_types(self, "loss weights")
        for name in ("alpha", "beta", "gamma"):
            w = getattr(self, name)
            if not (np.isfinite(w) and w >= 0):
                raise ValidationError(f"loss weights: {name} must be finite and non-negative")


@dataclass(frozen=True)
class CcaConfig:
    """Weight of the whitening-decorrelation terms."""

    lam: float = 1e-3

    def __post_init__(self):
        require_field_types(self, "cca")
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ValidationError("cca: lam must be finite and non-negative")


@dataclass(frozen=True)
class MaeConfig:
    """Exponent of the scaled cosine error."""

    y_exponent: float = 2.0

    def __post_init__(self):
        require_field_types(self, "mae")
        if not (np.isfinite(self.y_exponent) and self.y_exponent >= 1.0):
            raise ValidationError("mae: y_exponent must be finite and at least 1")


@dataclass(frozen=True)
class LossReport:
    """Per-step loss values; `combined` is the weighted sum of the others."""

    retrieval: float
    cca: float
    mae: float
    combined: float

    def to_dict(self) -> dict:
        return {
            "retrieval": self.retrieval,
            "cca": self.cca,
            "mae": self.mae,
            "combined": self.combined,
        }


def cca_loss(Z_A, Z_B, cfg: CcaConfig) -> Tensor:
    """Alignment plus whitening penalty between two views.

    Both inputs are column-standardized to zero mean and unit column norm;
    the loss is the squared distance between the standardized views plus
    lam times each view's squared deviation of feature covariance from
    the identity.
    """
    Z_A = Z_A if isinstance(Z_A, Tensor) else Tensor(Z_A)
    Z_B = Z_B if isinstance(Z_B, Tensor) else Tensor(Z_B)
    if Z_A.shape != Z_B.shape:
        raise ShapeError(f"cca: {Z_A.shape} vs {Z_B.shape}")
    if Z_A.shape[0] < 2:
        raise ValidationError("cca: needs at least 2 rows to standardize")
    za = ad.standardize_columns(Z_A)
    zb = ad.standardize_columns(Z_B)
    distance = ad.frobenius_sq(ad.sub(za, zb))
    if cfg.lam == 0.0:
        return distance
    eye = Tensor(np.eye(Z_A.shape[1]))
    white_a = ad.frobenius_sq(ad.sub(ad.matmul(ad.transpose(za), za), eye))
    white_b = ad.frobenius_sq(ad.sub(ad.matmul(ad.transpose(zb), zb), eye))
    return ad.add(distance, ad.scale(ad.add(white_a, white_b), cfg.lam))


def mae_loss(originals, reconstructed, cfg: MaeConfig) -> Tensor:
    """Mean scaled cosine error between target rows and reconstructions.

    Rows whose reconstruction norm falls below 1e-12 score the maximal
    per-row error of 1 (cosine treated as 0).
    """
    originals = np.asarray(originals, dtype=np.float64)
    rec = reconstructed if isinstance(reconstructed, Tensor) else Tensor(reconstructed)
    if originals.shape != rec.shape:
        raise ShapeError(f"mae: {originals.shape} vs {rec.shape}")
    norms = np.linalg.norm(originals, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise ValidationError("mae: an original row has zero norm")
    targets = Tensor(originals / norms)
    cosine = ad.row_dot(ad.l2_normalize_rows(rec), targets)
    # relu clamps the tiny negative float residue of (1 - cos) at cos = 1
    error = ad.relu(ad.sub(Tensor(np.ones((rec.shape[0], 1))), cosine))
    return ad.mean_scalar(ad.power(error, cfg.y_exponent))


def mean_retrieval_loss(queries, candidates, labels) -> Tensor:
    """Mean softmax cross-entropy over dot-product logits for B queries.

    Query b scores candidate rows b*M .. b*M + M-1 against the one-hot row
    b of `labels` (B, M). Each term is a shift-stable log-sum-exp,
    log(mean(exp(l - max l))) + (log M + max l) - l_pos, so large logits
    cannot overflow. The terms are summed left to right and scaled by 1/B.
    One tape record with a hand-written VJP; every float operation runs in
    the order of the equivalent chain of primitives per query, so values
    and gradients equal that chain's bitwise.
    """
    q = queries if isinstance(queries, Tensor) else Tensor(queries)
    cands = candidates if isinstance(candidates, Tensor) else Tensor(candidates)
    labels = np.asarray(labels, dtype=np.float64)
    if labels.ndim != 2:
        raise ShapeError(f"retrieval: labels must be (queries, candidates), got {labels.shape}")
    B, M = labels.shape
    if B < 1:
        raise ValidationError("retrieval: empty batch")
    if M < 2:
        raise ValidationError("retrieval: need at least 2 candidates")
    d = q.shape[1]
    if q.shape[0] != B or cands.shape != (B * M, d):
        raise ShapeError(
            f"retrieval: queries {q.shape} and candidates {cands.shape} for labels {labels.shape}"
        )
    if not (np.isin(labels, (0.0, 1.0)).all() and (labels.sum(axis=1) == 1.0).all()):
        raise ValidationError("retrieval: labels must be one-hot")

    rows, positives = np.arange(B), labels.argmax(axis=1)
    qd, cd = q.data, cands.data.reshape(B, M, d)
    logits = (cd * qd[:, None, :]).sum(axis=2)
    shift = logits.max(axis=1)
    e = np.exp(logits - shift[:, None])
    means = e.mean(axis=1)
    terms = np.log(means) + (np.log(M) + shift) - logits[rows, positives]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    c = 1.0 / B

    def vjp(g):
        g_term = c * g[0, 0]
        g_logits = np.zeros((B, M))
        g_logits[rows, positives] -= g_term
        g_logits = g_logits + ((g_term / means) / M)[:, None] * e
        g_cands = g_logits[:, :, None] * qd[:, None, :]
        g_queries = (g_logits[:, :, None] * cd).sum(axis=1)
        return g_queries, g_cands.reshape(B * M, d)

    return ad._apply("mean_retrieval_loss", np.array([[c * total]]), (q, cands), vjp)


def combined_loss(retrieval, cca, mae, weights: LossWeights) -> Tensor:
    """Weighted sum of the active loss terms.

    Pass None for a disabled term; terms with weight 0 are skipped outright
    so a retrieval-only run records exactly the same tape as a single-task
    one.
    """
    parts = []
    for name, term, w in (
        ("retrieval", retrieval, weights.alpha),
        ("cca", cca, weights.beta),
        ("mae", mae, weights.gamma),
    ):
        if term is None or w == 0.0:
            continue
        if not np.isfinite(term.data).all():
            raise NumericError(f"combined loss: non-finite {name} term")
        parts.append(ad.scale(term, w))
    if not parts:
        raise ValidationError("combined loss: no active terms")
    total = parts[0]
    for part in parts[1:]:
        total = ad.add(total, part)
    return total


def make_report(retrieval, cca, mae, combined) -> LossReport:
    """Collect scalar loss values; disabled terms are reported as 0."""

    def val(t):
        return float(t.item()) if t is not None else 0.0

    return LossReport(
        retrieval=val(retrieval),
        cca=val(cca),
        mae=val(mae),
        combined=float(combined.item()),
    )
