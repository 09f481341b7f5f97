"""Band-querying Perceptron learner for halfspaces on the unit sphere.

The learner runs in epochs. Epoch k assumes the current angle to the target
is at most pi / 2^k and halves it with high probability by performing m_k
reflection updates

    w <- w - 2 * 1{y (w . x) < 0} (w . x) x        (then renormalized)

on points queried from the band {x : b_k / 2 <= w . x <= b_k}. The change of
the progress measure cos(angle to any fixed unit u) per step is exactly
-2 * 1{y (w . x) < 0} (w . x)(u . x), which the tests verify to 1e-9.

The theory-grade schedule constants make m_k astronomically large (the proof
constants are (3200 pi)^3 and 1/(2 (600 pi)^2)); they are exposed here as
THEORY_SCALE_M / THEORY_SCALE_B so the exact formulas remain reachable, while
the defaults are desk-scale values with the same shape in d, zeta, k, delta.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .oracles import LabelingOracle, NoiseModel

THEORY_SCALE_M = (3200.0 * math.pi) ** 3
THEORY_SCALE_B = 1.0 / (2.0 * (600.0 * math.pi) ** 2)

# Desk-scale defaults: same functional shape as the proof schedule, with the
# constants sized so the end-to-end benchmark settings converge reliably
# (see the acceptance suite). The proof constants remain available above.
DEFAULT_SCALE_M = 4.0
DEFAULT_SCALE_B = 0.5

# Per-epoch unlabeled-draw allowance: 50x the high-probability bound 2m/p.
DRAW_BUDGET_FACTOR = 100.0

# An epoch draws its randomness in chunks of at most this many bytes of
# Gaussians, which bounds its memory in any dimension.
TAPE_BYTES = 1 << 20


def modified_perceptron_step(w, x, y: int) -> np.ndarray:
    """One update: reflect w across x's hyperplane iff y (w . x) < 0 strictly.

    Returns w itself when the update does not fire; otherwise the reflected
    vector renormalized to unit length (the reflection preserves the norm
    analytically, renormalization just stops 1e-16-per-step float drift).
    """
    wv = geometry.check_unit(w, "w")
    xv = geometry.check_unit(x, "x")
    geometry.check_same_dimension(wv, xv)
    if y not in (-1, 1):
        raise ValueError(f"label must be -1 or +1, got {y!r}")
    return _reflect(wv, xv, y)


def _reflect(w: np.ndarray, x: np.ndarray, y: int) -> np.ndarray:
    """``modified_perceptron_step`` for trusted unit vectors and labels."""
    margin = float(w.dot(x))
    if y * margin >= 0.0:
        return w
    updated = w - 2.0 * margin * x
    return updated / math.sqrt(updated.dot(updated))


def mod_perceptron_params(
    d: int,
    theta: float,
    delta: float,
    zeta: float,
    scale_m: float = DEFAULT_SCALE_M,
    scale_b: float = DEFAULT_SCALE_B,
) -> tuple[int, float]:
    """Iteration count and band width for one halving stage.

    m = ceil(scale_m (d / zeta^2) (ln(scale_m d / zeta^2) + ln(1 / delta)))
    b = scale_b * theta * zeta / (sqrt(d) ln(m^2 / delta)),  capped at
        1 / (10 sqrt(d)) to stay inside the band-mass lower bound's validity.

    With scale_m = THEORY_SCALE_M and scale_b = THEORY_SCALE_B these are the
    exact theory formulas.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if not (0.0 < zeta <= 1.0):
        raise ValueError(f"zeta must lie in (0, 1], got {zeta}")
    if not (0.0 < theta <= math.pi):
        raise ValueError(f"theta must lie in (0, pi], got {theta}")
    if scale_m <= 0.0 or scale_b <= 0.0:
        raise ValueError("scale factors must be positive")
    base = scale_m * d / (zeta * zeta)
    m = math.ceil(base * (math.log(base) + math.log(1.0 / delta)))
    b = scale_b * theta * zeta / (math.sqrt(d) * math.log(m * m / delta))
    b = min(b, 1.0 / (10.0 * math.sqrt(d)))
    return m, b


@dataclass(frozen=True)
class Schedule:
    """Per-epoch iteration counts m and band widths b, plus their knobs."""

    epochs: int
    m: tuple[int, ...]
    b: tuple[float, ...]
    scale_m: float
    scale_b: float
    noise_factor: float

    def __post_init__(self):
        if self.epochs < 1 or len(self.m) != self.epochs or len(self.b) != self.epochs:
            raise ValueError("schedule arrays must have one entry per epoch")
        if any(mk < 1 for mk in self.m):
            raise ValueError("every m_k must be >= 1")
        if any(not (0.0 < bk <= 1.0) for bk in self.b):
            raise ValueError("every b_k must lie in (0, 1]")


def make_schedule(
    d: int,
    epsilon: float,
    delta: float,
    model: NoiseModel,
    scale_m: float = DEFAULT_SCALE_M,
    scale_b: float = DEFAULT_SCALE_B,
) -> Schedule:
    """Epoch schedule for target error epsilon and confidence delta.

    Epoch k (of k0 = ceil(log2(1/epsilon))) gets the halving-stage parameters
    for angle bound pi / 2^k at failure budget delta / (k (k+1)), with noise
    factor zeta = 1 - 2 eta under bounded noise and 1 otherwise.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    zeta = model.zeta
    k0 = max(1, math.ceil(math.log2(1.0 / epsilon) - 1e-9))
    ms: list[int] = []
    bs: list[float] = []
    for k in range(1, k0 + 1):
        mk, bk = mod_perceptron_params(
            d,
            math.pi / 2.0**k,
            delta / (k * (k + 1)),
            zeta,
            scale_m=scale_m,
            scale_b=scale_b,
        )
        ms.append(mk)
        bs.append(bk)
    return Schedule(
        epochs=k0,
        m=tuple(ms),
        b=tuple(bs),
        scale_m=scale_m,
        scale_b=scale_b,
        noise_factor=zeta,
    )


@dataclass(frozen=True)
class EpochTrace:
    """Accounting for one epoch; angles are diagnostics against the true target."""

    epoch: int
    theta_before: float
    theta_after: float
    labels: int
    unlabeled_draws: int


@dataclass(eq=False)
class RunReport:
    """Outcome of a full multi-epoch run.

    ``succeeded`` is None when no true target was supplied for diagnostics.
    ``wall_time`` is measured and therefore excluded from any determinism
    comparison; all other fields are a pure function of seed and config.
    """

    final: np.ndarray
    total_labels: int
    total_unlabeled: int
    traces: list[EpochTrace] = field(default_factory=list)
    succeeded: bool | None = None
    wall_time: float = 0.0

    def same_outcome(self, other: "RunReport") -> bool:
        """Field-by-field equality ignoring wall_time."""
        return (
            np.array_equal(self.final, other.final)
            and self.total_labels == other.total_labels
            and self.total_unlabeled == other.total_unlabeled
            and self.traces == other.traces
            and self.succeeded == other.succeeded
        )


def default_draw_budget(m: int, band_probability: float) -> int:
    """Per-epoch draw allowance: DRAW_BUDGET_FACTOR * m / p."""
    return int(math.ceil(DRAW_BUDGET_FACTOR * m / band_probability))


def expected_draws(schedule: Schedule, d: int) -> float:
    """Expected unlabeled draws of one run of ``schedule``: sum of m_k / p_k."""
    return sum(m / geometry.band_mass(d, b / 2.0, b) for m, b in zip(schedule.m, schedule.b))


class BudgetExhausted(geometry.DrawBudgetExceeded):
    """A run stopped because an epoch exhausted its draw budget.

    ``labels_used`` and ``draws_used`` count what the run spent up to the
    failure, the failed epoch's whole budget included: each caller the
    exception passes through adds its completed work with :meth:`charge`.
    ``iterate`` is the last iterate.
    """

    def __init__(self, message: str, draws_used: int, labels_used: int, iterate: np.ndarray):
        super().__init__(message, draws_used=draws_used)
        self.labels_used = labels_used
        self.iterate = iterate

    def charge(self, labels: int, draws: int) -> None:
        self.labels_used += labels
        self.draws_used += draws


def mod_perceptron(
    oracle: LabelingOracle,
    w0,
    m: int,
    b: float,
    rng: np.random.Generator,
    draw_budget: int | None = None,
    charge_rejected: bool = False,
) -> tuple[np.ndarray, int, int]:
    """Run m band-query update iterations from w0; returns (w, labels, draws).

    Each iteration samples one point from the band [b/2, b] around the
    current iterate, queries its label, and applies the reflection update.
    The active learner spends exactly one label per iteration; with
    ``charge_rejected`` (the passive learner, which draws labeled pairs) each
    draw rejected by the band costs a label too, so labels equal draws.

    The epoch is taped: its randomness is drawn in bulk, in chunks of at most
    TAPE_BYTES of Gaussians (a :class:`geometry.BandTape` from ``rng``, then
    the label coins from the oracle's generator), and the loop over the tape
    is a pure function of (w0, tape). Raises :class:`BudgetExhausted` once
    the draws exceed ``draw_budget``.
    """
    w = geometry.check_unit(w0, "w0")
    if m < 0:
        raise ValueError(f"iteration count must be >= 0, got {m}")
    if not (0.0 < b <= 1.0):
        raise ValueError(f"band width must lie in (0, 1], got {b}")
    geometry.check_same_dimension(w, oracle.target)
    if m == 0:
        return w, 0, 0
    d = w.shape[0]
    lower = b / 2.0
    p = geometry.band_mass(d, lower, b)
    if draw_budget is None:
        draw_budget = default_draw_budget(m, p)
    rows = max(1, TAPE_BYTES // (8 * d))
    done = draws = 0
    while done < m:
        n = min(rows, m - done)
        tape = geometry.draw_band_tape(d, lower, b, p, rng, n)
        coins, radius = oracle.flip_tape(n)
        spent = np.cumsum(tape.draws)
        steps = int(np.searchsorted(spent, draw_budget - draws, side="right"))
        w = _run_tape(w, oracle.target, tape, coins, radius, steps, rng)
        done += steps
        if steps < n:
            labels = draw_budget if charge_rejected else done
            oracle.charge_queries(labels)
            raise BudgetExhausted(
                f"epoch draw budget {draw_budget} exhausted", draw_budget, labels, w
            )
        draws += int(spent[-1])
    labels = draws if charge_rejected else m
    oracle.charge_queries(labels)
    return w, labels, draws


def _run_tape(w, target, tape, coins, radius, steps, rng) -> np.ndarray:
    """The first ``steps`` iterations of a tape; returns the last iterate.

    The point of a step is x = xi w + s v, with v the unit part of the tape's
    Gaussian g orthogonal to w and s = sqrt(1 - xi^2). Since w . x = xi > 0,
    the update fires iff the label is -1. The label needs only t . x for the
    target t, a scalar function of g . w, g . t and t . w; so a step that
    does not fire costs one length-d dot product, and only a firing step
    builds x and touches w.
    """
    tw = float(target.dot(w))
    gauss = tape.gauss[:steps]
    rows = zip(tape.margins[:steps].tolist(), gauss, tape.sq_norms[:steps].tolist(),
               (gauss @ target).tolist(), coins[:steps].tolist())
    for xi, g, gg, tg, coin in rows:
        gw = float(g.dot(w))
        while gg - gw * gw <= geometry.MIN_ORTHOGONAL_SQ_NORM:
            g = rng.standard_normal(w.shape[0])
            gg, tg, gw = float(g.dot(g)), float(g.dot(target)), float(g.dot(w))
        scale = math.sqrt(1.0 - xi * xi) / math.sqrt(gg - gw * gw)
        tx = xi * tw + scale * (tg - gw * tw)
        if (tx >= 0.0) == (coin and abs(tx) <= radius):
            w = _reflect(w, (xi - scale * gw) * w + scale * g, -1)
            tw = float(target.dot(w))
    return w


def active_perceptron(
    oracle: LabelingOracle,
    v0,
    epsilon: float,
    delta: float,
    schedule: Schedule,
    rng: np.random.Generator,
    target=None,
    charge_rejected: bool = False,
) -> RunReport:
    """Full epoch loop: run the halving stage once per schedule entry.

    The acute-start assumption (angle(v0, target) <= pi/2) is the caller's
    responsibility; see the initialization module for removing it. When
    ``target`` is given, per-epoch angles are recorded and ``succeeded``
    reflects angle(final, target) <= pi * epsilon. ``charge_rejected``
    selects the passive accounting of :func:`mod_perceptron`. A
    :class:`BudgetExhausted` raised by an epoch carries the whole run's spend.
    """
    start = time.perf_counter()
    v = geometry.check_unit(v0, "v0")
    if target is not None:
        target = geometry.check_unit(target, "target")
        geometry.check_same_dimension(v, target)
    if not (0.0 < epsilon < 1.0) or not (0.0 < delta < 1.0):
        raise ValueError("epsilon and delta must lie in (0, 1)")

    traces: list[EpochTrace] = []
    for k in range(1, schedule.epochs + 1):
        theta_before = angle_or_nan(v, target)
        try:
            v, labels, draws = mod_perceptron(
                oracle, v, schedule.m[k - 1], schedule.b[k - 1], rng,
                charge_rejected=charge_rejected,
            )
        except BudgetExhausted as exc:
            exc.charge(sum(t.labels for t in traces), sum(t.unlabeled_draws for t in traces))
            raise
        traces.append(
            EpochTrace(
                epoch=k,
                theta_before=theta_before,
                theta_after=angle_or_nan(v, target),
                labels=labels,
                unlabeled_draws=draws,
            )
        )
    succeeded = None
    if target is not None:
        succeeded = bool(geometry.angle(v, target) <= math.pi * epsilon)
    return RunReport(
        final=v,
        total_labels=sum(t.labels for t in traces),
        total_unlabeled=sum(t.unlabeled_draws for t in traces),
        traces=traces,
        succeeded=succeeded,
        wall_time=time.perf_counter() - start,
    )


def angle_or_nan(v: np.ndarray, target: np.ndarray | None) -> float:
    return geometry.angle(v, target) if target is not None else math.nan
