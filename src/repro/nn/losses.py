"""Loss functions for multi-label prediction and knowledge distillation.

Every loss returns ``(scalar_loss, grad_wrt_first_argument)`` so training loops
never need an autograd tape. Reductions are means over all elements, which
keeps gradient magnitudes comparable across bitmap sizes.

Knowledge distillation follows the paper's Sec. VI-D exactly: a **T-Sigmoid**
(Eq. 24) softens both teacher and student logits, and the KD term is the sum
of per-label binary KL divergences between the softened Bernoulli
distributions (Eq. 25). The classic Hinton ``T^2`` gradient rescaling is
applied by default so the KD and BCE terms stay balanced as T grows.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F


def t_sigmoid(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Softened sigmoid ``sigma(y / T)`` (paper Eq. 24)."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    return F.sigmoid(logits / float(temperature))


def bce_with_logits(
    logits: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Numerically stable binary cross-entropy on logits.

    ``loss = mean( max(z,0) - z*t + log(1+exp(-|z|)) )``; the gradient is the
    familiar ``(sigmoid(z) - t) / n``.
    """
    z = logits
    t = targets
    loss_terms = np.maximum(z, 0.0) - z * t + F.log1pexp(-np.abs(z))
    n = z.size
    grad = (F.sigmoid(z) - t) / n
    return float(loss_terms.mean()), grad


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error (used by layer fine-tuning, Eq. 26)."""
    diff = pred - target
    n = pred.size
    return float((diff * diff).mean()), (2.0 / n) * diff


def binary_kl(p: np.ndarray, q: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Elementwise KL( Bern(p) || Bern(q) )."""
    p = np.clip(p, eps, 1.0 - eps)
    q = np.clip(q, eps, 1.0 - eps)
    return p * np.log(p / q) + (1.0 - p) * np.log((1.0 - p) / (1.0 - q))


def kd_loss(
    student_logits: np.ndarray,
    teacher_logits: np.ndarray,
    temperature: float = 2.0,
    rescale_t2: bool = True,
) -> tuple[float, np.ndarray]:
    """Soft KD loss (paper Eq. 25) with gradient w.r.t. *student* logits.

    The analytic gradient of ``KL(z_tch || z_stu)`` w.r.t. the student logit is
    ``(z_stu - z_tch) / T``; with the optional ``T^2`` rescale it becomes
    ``T * (z_stu - z_tch)``, matching Hinton et al.'s recipe.
    """
    t = float(temperature)
    z_tch = t_sigmoid(teacher_logits, t)
    z_stu = t_sigmoid(student_logits, t)
    loss = float(binary_kl(z_tch, z_stu).mean())
    n = student_logits.size
    grad = (z_stu - z_tch) / (t * n)
    if rescale_t2:
        loss *= t * t
        grad *= t * t
    return loss, grad


def kd_bce_loss(
    student_logits: np.ndarray,
    teacher_logits: np.ndarray,
    targets: np.ndarray,
    lam: float = 0.5,
    temperature: float = 2.0,
) -> tuple[float, np.ndarray]:
    """Combined loss ``lam * KD + (1 - lam) * BCE`` (paper Eq. 25, bottom)."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    l_kd, g_kd = kd_loss(student_logits, teacher_logits, temperature)
    l_bce, g_bce = bce_with_logits(student_logits, targets)
    return lam * l_kd + (1.0 - lam) * l_bce, lam * g_kd + (1.0 - lam) * g_bce
