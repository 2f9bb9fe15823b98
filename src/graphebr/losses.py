"""The three training objectives and their weighted combination."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import NumericError, ShapeError, ValidationError


@dataclass(frozen=True)
class LossWeights:
    """Scalar weights of the combined objective."""

    alpha: float = 1.0
    beta: float = 1e-3
    gamma: float = 1e-3

    def __post_init__(self):
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ValidationError("loss weights must be non-negative")


@dataclass(frozen=True)
class CcaConfig:
    """Weight of the whitening-decorrelation terms."""

    lam: float = 1e-3

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ValidationError("cca: lam must be finite and non-negative")


@dataclass(frozen=True)
class MaeConfig:
    """Exponent of the scaled cosine error."""

    y_exponent: float = 2.0

    def __post_init__(self):
        if self.y_exponent < 1.0:
            raise ValidationError("mae: y_exponent must be at least 1")


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


def retrieval_loss(query_emb, candidate_embs, labels) -> Tensor:
    """Softmax cross-entropy over dot-product logits for one query.

    `labels` must be one-hot across the M candidates; computed via a
    shift-stable log-sum-exp so large logits cannot overflow.
    """
    q = query_emb if isinstance(query_emb, Tensor) else Tensor(query_emb)
    cands = candidate_embs if isinstance(candidate_embs, Tensor) else Tensor(candidate_embs)
    labels = np.asarray(labels, dtype=np.float64).ravel()
    M = cands.shape[0]
    if M < 2:
        raise ValidationError("retrieval: need at least 2 candidates")
    if q.shape != (1, cands.shape[1]):
        raise ShapeError(f"retrieval: query {q.shape} vs candidates {cands.shape}")
    if len(labels) != M:
        raise ShapeError(f"retrieval: {len(labels)} labels for {M} candidates")
    positives = np.flatnonzero(labels == 1.0)
    if len(positives) != 1 or not np.all(np.isin(labels, (0.0, 1.0))):
        raise ValidationError("retrieval: labels must be one-hot")

    logits = ad.row_dot(cands, q)
    shift = float(logits.data.max())
    log_mean = ad.log(ad.mean_scalar(ad.exp(ad.sub(logits, Tensor(np.full((M, 1), shift))))))
    log_sum = ad.add(log_mean, Tensor([[np.log(M) + shift]]))
    positive_logit = ad.gather_rows(logits, positives)
    return ad.sub(log_sum, positive_logit)


def mean_retrieval_loss(batch) -> Tensor:
    """Average the retrieval loss over (query_emb, candidate_embs, labels) triples."""
    if not batch:
        raise ValidationError("retrieval: empty batch")
    total = None
    for q, cands, labels in batch:
        term = retrieval_loss(q, cands, labels)
        total = term if total is None else ad.add(total, term)
    return ad.scale(total, 1.0 / len(batch))


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
