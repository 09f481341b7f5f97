"""Band-querying Perceptron learner for halfspaces on the unit sphere.

The learner runs in epochs. Epoch k assumes the current angle to the target
is at most pi / 2^k and halves it with high probability by performing m_k
reflection updates

    w <- w - 2 * 1{y (w . x) < 0} (w . x) x

on points queried from the band {x : b_k / 2 <= w . x <= b_k}. The change of
the progress measure cos(angle to any fixed unit u) per step is exactly
-2 * 1{y (w . x) < 0} (w . x)(u . x), which the tests verify to 1e-9.

An epoch runs as an exact chain on two scalars. Let t be the target and e
the unit part of the epoch's start vector w0 orthogonal to t, so that
w0 = a t + b e. Since w . x is the band margin xi > 0, an update fires iff
the label is -1, and the label needs only t . x; a fired reflection moves
(a, b) = (t . w, e . w) by -2 xi (t . x, e . x) and keeps |w| = 1. Both
dot products are functions of (a, b), xi and two coordinates of the point's
direction orthogonal to w (:func:`geometry.draw_band_tape`), so a label
costs O(1) in any dimension. The chain is exact because the update's kernel
is equivariant under rotations: those that fix t and w0 map the whole run to
an equally likely one with the same (a, b) path, so (a, b) is a Markov
chain and, given its path, the rest of w (norm c = sqrt(1 - a^2 - b^2)) has
a direction uniform on the unit sphere of span(t, e)'s complement. The
epoch ends by drawing that direction, which gives w the law it has under
the literal loop of :func:`modified_perceptron_step` on the literal band
sampler; ``tests/test_engine.py`` replays chains through that loop.

The theory-grade schedule constants make m_k astronomically large (the proof
constants are (3200 pi)^3 and 1/(2 (600 pi)^2)); they are exposed here as
THEORY_SCALE_M / THEORY_SCALE_B so the exact formulas remain reachable, while
the defaults are desk-scale values with the same shape in d, zeta, k, delta.

A run takes three inputs: a label oracle (which holds the hidden target and
the noise model), an epoch schedule built by :func:`make_schedule` from
epsilon, delta and the noise model, and a random generator for the band
draws. Diagnostics and success are measured against the oracle's target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

# An epoch draws its randomness in chunks of at most this many steps; a
# step's tape row is a few scalars in any dimension.
TAPE_STEPS = 1 << 13


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
    margin = float(wv.dot(xv))
    if y * margin >= 0.0:
        return wv
    updated = wv - 2.0 * margin * xv
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
    if not (0.0 < scale_m < math.inf and 0.0 < scale_b < math.inf):
        raise ValueError("scale factors must be positive and finite")
    base = scale_m * d / (zeta * zeta)
    m = math.ceil(base * (math.log(base) + math.log(1.0 / delta)))
    b = scale_b * theta * zeta / (math.sqrt(d) * math.log(m * m / delta))
    b = min(b, 1.0 / (10.0 * math.sqrt(d)))
    return m, b


@dataclass(frozen=True)
class Schedule:
    """Per-epoch iteration counts m and band widths b for target error
    epsilon, plus their knobs."""

    epsilon: float
    epochs: int
    m: tuple[int, ...]
    b: tuple[float, ...]
    scale_m: float
    scale_b: float
    noise_factor: float

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
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
        epsilon=epsilon,
        epochs=k0,
        m=tuple(ms),
        b=tuple(bs),
        scale_m=scale_m,
        scale_b=scale_b,
        noise_factor=zeta,
    )


@dataclass(frozen=True)
class EpochTrace:
    """Accounting for one epoch; angles are diagnostics against the oracle's target."""

    epoch: int
    theta_before: float
    theta_after: float
    labels: int
    unlabeled_draws: int


@dataclass(eq=False)
class RunReport:
    """Outcome of a full multi-epoch run; a pure function of its inputs.

    ``succeeded`` is angle(final, target) <= pi * epsilon for the oracle's
    target and the schedule's epsilon.
    """

    final: np.ndarray
    total_labels: int
    total_unlabeled: int
    traces: list[EpochTrace]
    succeeded: bool

    def same_outcome(self, other: "RunReport") -> bool:
        """Field-by-field equality (the final vectors compared exactly)."""
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

    The epoch runs as the two-scalar chain of the module docstring. Its
    randomness is drawn in bulk, in chunks of at most TAPE_STEPS steps: a
    :class:`geometry.BandTape` from ``rng``, then the label coins from the
    oracle's generator. The chain over the tape is a pure function of
    (t . w0, e . w0, tape); the returned w then takes its residual direction
    from ``rng``. Raises :class:`BudgetExhausted`, with the iterate built the
    same way, once the draws exceed ``draw_budget``.
    """
    w = geometry.check_unit(w0, "w0")
    if m < 0:
        raise ValueError(f"iteration count must be >= 0, got {m}")
    if not (0.0 < b <= 1.0):
        raise ValueError(f"band width must lie in (0, 1], got {b}")
    target = oracle.target
    geometry.check_same_dimension(w, target)
    if m == 0:
        return w, 0, 0
    d = w.shape[0]
    lower = b / 2.0
    p = geometry.band_mass(d, lower, b)
    if draw_budget is None:
        draw_budget = default_draw_budget(m, p)
    e, chain = _start_chain(target, w)
    done = draws = 0
    while done < m:
        n = min(TAPE_STEPS, m - done)
        tape = geometry.draw_band_tape(d, lower, b, p, rng, n)
        coins, radius = oracle.flip_tape(n)
        spent = np.cumsum(tape.draws)
        steps = int(np.searchsorted(spent, draw_budget - draws, side="right"))
        chain = _run_chain(chain, tape, coins, radius, steps)
        done += steps
        if steps < n:
            labels = draw_budget if charge_rejected else done
            oracle.charge_queries(labels)
            raise BudgetExhausted(
                f"epoch draw budget {draw_budget} exhausted", draw_budget, labels,
                _iterate(target, e, chain, rng),
            )
        draws += int(spent[-1])
    labels = draws if charge_rejected else m
    oracle.charge_queries(labels)
    return _iterate(target, e, chain, rng), labels, draws


def _start_chain(target, w0) -> tuple[np.ndarray, tuple[float, float, float]]:
    """The direction e and the chain's start (t . w0, e . w0, 0).

    e is the unit part of w0 orthogonal to the target t, or a coordinate
    direction made orthogonal to t when w0 = +-t to rounding. The projection
    is applied again, so e . t is zero to rounding even when the part of w0
    orthogonal to t is tiny.
    """
    a = float(target.dot(w0))
    r = w0 - a * target
    if r.dot(r) <= 1e-30:
        r = np.zeros_like(target)
        r[np.argmin(np.abs(target))] = 1.0
    for _ in range(2):
        r -= r.dot(target) * target
    e = r / math.sqrt(r.dot(r))
    b = float(e.dot(w0))
    norm = math.hypot(a, b)
    return e, (a / norm, b / norm, 0.0)


def _run_chain(chain, tape, coins, radius, steps) -> tuple[float, float, float]:
    """The first ``steps`` iterations of a tape on (a, b, c) = (t . w, e . w,
    |rest of w|); returns the last state.

    The point of a step is x = xi w + s v, with s = sqrt(1 - xi^2) and v
    uniform on the unit sphere orthogonal to w, whose coordinates along
    u1 = (t - a w) / pa and u2 = (c e - b z) / pa (pa = sqrt(1 - a^2), z the
    direction of the rest of w) are the tape's (tau1, tau2). Then
    t . x = xi a + s pa tau1 and e . x = xi b + s (c tau2 - a b tau1) / pa.
    When pa = 0 (w = +-t), u1 = e and e . x = xi b + s tau1. A step that
    does not fire costs a few float operations. c is recomputed from (a, b)
    only at a fire, so it stays exactly 0 until the first one.
    """
    a, b, c = chain
    pa = math.sqrt(max(0.0, (1.0 - a) * (1.0 + a)))
    margins = tape.margins[:steps]
    s = np.sqrt((1.0 - margins) * (1.0 + margins))
    rows = zip(margins.tolist(), (s * tape.tau1[:steps]).tolist(),
               (s * tape.tau2[:steps]).tolist(), coins[:steps].tolist())
    for xi, st1, st2, coin in rows:
        tx = xi * a + pa * st1
        if (tx >= 0.0) == (coin and abs(tx) <= radius):
            ex = xi * b + ((c * st2 - a * b * st1) / pa if pa > 0.0 else st1)
            a -= 2.0 * xi * tx
            b -= 2.0 * xi * ex
            q = max(0.0, (1.0 - a) * (1.0 + a))
            pa = math.sqrt(q)
            c = math.sqrt(max(0.0, q - b * b))
    return a, b, c


def _iterate(target, e, chain, rng) -> np.ndarray:
    """The iterate a t + b e + c z of a chain state, with z uniform on the
    unit sphere orthogonal to t and e, drawn from ``rng``."""
    a, b, c = chain
    z = rng.standard_normal(target.shape[0])
    for _ in range(2):
        z -= z.dot(target) * target + z.dot(e) * e
    w = a * target + b * e + (c / math.sqrt(z.dot(z))) * z
    return w / math.sqrt(w.dot(w))


def active_perceptron(
    oracle: LabelingOracle,
    v0,
    schedule: Schedule,
    rng: np.random.Generator,
    charge_rejected: bool = False,
) -> RunReport:
    """Full epoch loop: run the halving stage once per schedule entry.

    The acute-start assumption (angle(v0, target) <= pi/2) is the caller's
    responsibility; see the initialization module for removing it. Per-epoch
    angles are measured against ``oracle.target``, and ``succeeded`` is
    angle(final, oracle.target) <= pi * schedule.epsilon. ``charge_rejected``
    selects the passive accounting of :func:`mod_perceptron`. A
    :class:`BudgetExhausted` raised by an epoch carries the whole run's spend.
    """
    v = geometry.check_unit(v0, "v0")
    target = oracle.target
    traces: list[EpochTrace] = []
    for k in range(1, schedule.epochs + 1):
        theta_before = geometry.angle(v, target)
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
                theta_after=geometry.angle(v, target),
                labels=labels,
                unlabeled_draws=draws,
            )
        )
    return RunReport(
        final=v,
        total_labels=sum(t.labels for t in traces),
        total_unlabeled=sum(t.unlabeled_draws for t in traces),
        traces=traces,
        succeeded=geometry.angle(v, target) <= math.pi * schedule.epsilon,
    )
