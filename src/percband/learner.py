"""Band-querying Perceptron learner for halfspaces on the unit sphere.

The learner runs in epochs. Epoch k assumes the current angle to the target
is at most pi / 2^k and halves it with high probability by performing m_k
reflection updates

    w <- w - 2 * 1{y (w . x) < 0} (w . x) x

on points queried from the band {x : b_k / 2 <= w . x <= b_k}. The change of
the progress measure cos(angle to any fixed unit u) per step is exactly
-2 * 1{y (w . x) < 0} (w . x)(u . x), which the tests verify to 1e-9.

A run is one exact chain on two scalars. Let t be the target and e the
unit part of the run's start vector w0 orthogonal to t, so that
w0 = a t + b e. Since w . x is the band margin xi > 0, an update fires iff
the label is -1, and the label needs only t . x; a fired reflection moves
(a, b) = (t . w, e . w) by -2 xi (t . x, e . x) and keeps |w| = 1. Both
dot products are functions of (a, b), xi and two coordinates of the point's
direction orthogonal to w (:func:`geometry.draw_band_tape`), so a label
costs O(1) in any dimension. The chain is exact because the update's kernel
is equivariant under rotations: those that fix t and w0 map the whole run to
an equally likely one with the same (a, b) path, whatever band each step
uses, so (a, b) is a Markov chain across epochs and, given its path, the
rest of w (of norm c) has a direction uniform on the unit sphere of
span(t, e)'s complement. The run ends by drawing that direction, which
gives w the law it has under the literal loop of that update on the
literal band sampler; ``tests/test_engine.py`` replays runs through that
loop, with the update's vector form ``modified_perceptron_step`` from
``tests/reference.py``.

The chain carries pa = sin(angle(w, t)) = |(b, c)| as well as a = cos, and
updates it at a fire from its own value, so every angle of a run, read as
atan2(|(b, c)|, a), keeps its relative precision down to the smallest
angles a schedule asks for: a alone rounds to 1 below about 1.5e-8. The
only limit on epsilon is then the band-mass floor MIN_BAND_MASS, below
which a step's draw count is no longer exact.

A step that does not fire changes nothing. In a tape chunk where no label
flips and the chain starts acute, a fire only raises a and only lowers pa,
so the chain skips the steps that would not fire from the chunk's start,
with the same states, bit for bit (:func:`_chunk_rows`).

The theory-grade schedule constants make m_k astronomically large (the proof
constants are (3200 pi)^3 and 1/(2 (600 pi)^2)); they are exposed here as
THEORY_SCALE_M / THEORY_SCALE_B so the exact formulas remain reachable, while
the defaults are desk-scale values with the same shape in d, zeta, k, delta.

A run takes three inputs: a label oracle (which holds the hidden target and
the noise model), an epoch schedule built by :func:`make_schedule` from d,
epsilon, delta and the noise model, and a random generator for the band
draws. The schedule keeps its d, and a run in another dimension refuses it.
Diagnostics and success are measured against the oracle's target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .oracles import LabelingOracle, NoiseModel, negative_labels

THEORY_SCALE_M = (3200.0 * math.pi) ** 3
THEORY_SCALE_B = 1.0 / (2.0 * (600.0 * math.pi) ** 2)

# Desk-scale defaults: same functional shape as the proof schedule, with the
# constants sized so the end-to-end benchmark settings converge reliably
# (see the acceptance suite). The proof constants remain available above.
DEFAULT_SCALE_M = 4.0
DEFAULT_SCALE_B = 0.5

# An epoch draws its randomness in chunks of at most this many steps; a
# step's tape row is a few scalars in any dimension.
TAPE_STEPS = 1 << 13

# The thinnest band an epoch runs on. A step draws its count as one
# Geometric(p) number into int64, and a chunk sums TAPE_STEPS of them: at
# p >= 2^-40 a chunk's expected total is at most 2^53, while below p ~ 1e-15
# it can pass 2^63 and wrap (and below p ~ 1e-19 numpy saturates single draws).
MIN_BAND_MASS = 2.0**-40


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
    exact theory formulas. Inputs that make m 0 or overflow, or b 0, are refused.
    """
    geometry.check_dimension(d)
    check_probability(delta, "delta")
    geometry.check_real(zeta, "zeta")
    geometry.check_real(theta, "theta")
    if not (0.0 < zeta <= 1.0):
        raise ValueError(f"zeta must lie in (0, 1], got {zeta}")
    if not (0.0 < theta <= math.pi):
        raise ValueError(f"theta must lie in (0, pi], got {theta}")
    for name, scale in (("scale_m", scale_m), ("scale_b", scale_b)):
        geometry.check_real(scale, name)
        if not 0.0 < scale < math.inf:
            raise ValueError(f"scale factors must be positive and finite, got {name} = {scale}")
    try:
        base = scale_m * d / (zeta * zeta)
        m = math.ceil(base * (math.log(base) + math.log(1.0 / delta)))
        if m < 1:
            raise ValueError(f"scale_m = {scale_m:g} leaves m = 0 iterations at d = {d}")
        ratio = m * m / delta
        if not math.isfinite(ratio):
            raise ValueError(f"delta = {delta:g} is too small: m^2 / delta overflows at m = {m}")
        b = scale_b * theta * zeta / (math.sqrt(d) * math.log(ratio))
    except (OverflowError, ZeroDivisionError):
        raise ValueError("the iteration count m overflows: d, scale_m, 1 / zeta or 1 / delta is too large") from None
    if b == 0.0:
        raise ValueError(f"the band width b_k rounds to 0 at theta = {theta:.3g}: epsilon or scale_b is too small")
    b = min(b, 1.0 / (10.0 * math.sqrt(d)))
    return m, b


def check_probability(value, name: str) -> None:
    """Refuse, naming it, a value that is not a real number in (0, 1), NaN included."""
    geometry.check_real(value, name)
    if not (0.0 < value < 1.0):
        raise ValueError(f"{name} must lie in (0, 1), got {value}")


@dataclass(frozen=True)
class Schedule:
    """Per-epoch iteration counts m and band widths b for target error epsilon in R^d."""

    d: int
    epsilon: float
    m: tuple[int, ...]
    b: tuple[float, ...]

    def __post_init__(self):
        geometry.check_dimension(self.d)
        check_probability(self.epsilon, "epsilon")
        if not (isinstance(self.m, tuple) and isinstance(self.b, tuple) and self.m and len(self.m) == len(self.b)):
            raise ValueError("schedule arrays m and b must be tuples with one entry per epoch")
        for mk in self.m:
            geometry.check_integer(mk, "every m_k", 1)
        for bk in self.b:
            geometry.check_real(bk, "every b_k")
            if not (0.0 < bk <= 1.0):
                raise ValueError(f"every b_k must lie in (0, 1], got {bk}")

    @property
    def epochs(self) -> int:
        return len(self.m)

    def band_masses(self) -> tuple[float, ...]:
        """The masses of the bands [b/2, b] in R^d, refusing one below
        MIN_BAND_MASS. A band mass takes O(d) time, so a caller that also
        bounds the steps of a run checks them first."""
        masses = tuple(geometry.band_mass(self.d, b / 2.0, b) for b in self.b)
        for b, p in zip(self.b, masses):
            if not p >= MIN_BAND_MASS:
                raise ValueError(
                    f"the band [b/2, b] at d = {self.d}, b = {b:.3g} has mass {p:.3g}, below the floor "
                    f"{MIN_BAND_MASS:.3g} at which draw counts stay exact"
                )
        return masses


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
    check_probability(epsilon, "epsilon")
    check_probability(delta, "delta")
    if not isinstance(model, NoiseModel):
        raise ValueError(f"model must be a NoiseModel, got {model!r}")
    k0 = max(1, math.ceil(-math.log2(epsilon) - 1e-9))
    m, b = zip(*(
        mod_perceptron_params(d, math.ldexp(math.pi, -k), delta / (k * (k + 1)), model.zeta, scale_m, scale_b)
        for k in range(1, k0 + 1)
    ))
    return Schedule(d, epsilon, m, b)


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

    ``succeeded`` is the last epoch's theta_after <= pi * epsilon for the
    schedule's epsilon. theta_after is the chain's angle to the oracle's
    target, which is the angle of ``final`` to it up to rounding.
    """

    final: np.ndarray
    traces: list[EpochTrace]
    succeeded: bool

    @property
    def total_labels(self) -> int:
        return sum(t.labels for t in self.traces)

    @property
    def total_unlabeled(self) -> int:
        return sum(t.unlabeled_draws for t in self.traces)


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


def _chunk_rows(a, pa, tape, coins, radius):
    """The rows of a tape chunk that the chain visits from (a, pa), as
    (xi, s tau1, s tau2, coin) with s = sqrt(1 - xi^2).

    When no coin of the chunk is set, a >= 0 and 2^-500 <= pa <= 2^500,
    only the rows that fire from (a, pa) are kept, those whose label at
    tx = xi a + pa s tau1 is -1 by :func:`oracles.negative_labels`: no other
    row can fire later in the chunk. This is exact, bit for bit:

    - with no coin set a row fires iff tx = xi a + pa s tau1 is not >= 0,
      so at a fire tx < 0, step = 2 xi tx <= 0 (margins are positive) and
      a - step >= a: a never falls below its value at the chunk's start;
    - the added term step (2 a - step) is then <= 0, so q <= fl(pa * pa).
      Rounding is monotone, and sqrt(fl(x * x)) == x while x * x is a
      normal float, as it is for the start's pa: pa never rises above its
      value at the chunk's start;
    - so a row with s tau1 >= 0 keeps both terms of tx >= 0, and a row
      with s tau1 < 0 has every later tx at least its tx at the start.

    Every other chunk (a label may flip, an obtuse or NaN start, pa near 0)
    visits all its rows.
    """
    margins, tau2 = tape.margins, tape.tau2
    s = np.sqrt((1.0 - margins) * (1.0 + margins))
    st1 = s * tape.tau1
    if not coins.any() and a >= 0.0 and 2.0**-500 <= pa <= 2.0**500:
        keep = negative_labels(margins * a + pa * st1, coins, radius)
        margins, s, st1, tau2, coins = margins[keep], s[keep], st1[keep], tau2[keep], coins[keep]
    return zip(margins.tolist(), st1.tolist(), (s * tau2).tolist(), coins.tolist())


def _run_chain(chain, tape, coins, radius) -> tuple[float, float, float]:
    """The iterations of a tape on (a, b, c) = (t . w, e . w, |rest of w|);
    returns the last state.

    The point of a step is x = xi w + s v, with s = sqrt(1 - xi^2) and v
    uniform on the unit sphere orthogonal to w, whose coordinates along
    u1 = (t - a w) / pa and u2 = (c e - b z) / pa (pa = sin(angle(w, t)) =
    |(b, c)|, z the direction of the rest of w) are the tape's (tau1, tau2).
    Then t . x = xi a + s pa tau1 and e . x = xi b + s (c tau2 - a b tau1) / pa.
    When pa = 0 (w = +-t), u1 = e and e . x = xi b + s tau1. A step fires iff
    its label is -1 by :func:`oracles.negative_labels`, written inline: a call
    costs more than a step. A step that does not fire changes nothing, so the
    loop visits only the rows of :func:`_chunk_rows`, which leaves out only
    rows that cannot fire.

    pa is carried, not recomputed from a: a fire that moves a by step sets
    pa^2 = 1 - (a - step)^2 = pa^2 + step (2 a - step) and c^2 = pa^2 - b^2,
    which keep their relative precision at angles where a rounds to 1. c
    stays exactly 0 until the first fire. Square roots of a negative, -0.0
    or NaN radicand read 0.0, and pa = 0 forces c = 0.
    """
    sqrt = math.sqrt
    a, b, c = chain
    pa = math.hypot(b, c)
    for xi, st1, st2, coin in _chunk_rows(a, pa, tape, coins, radius):
        tx = xi * a + pa * st1
        if (tx >= 0.0) == (coin and abs(tx) <= radius):
            ex = xi * b + ((c * st2 - a * b * st1) / pa if pa > 0.0 else st1)
            step = 2.0 * xi * tx
            q = pa * pa + step * (2.0 * a - step)
            a -= step
            b -= 2.0 * xi * ex
            if q > 0.0:
                pa = sqrt(q)
                q -= b * b
                c = sqrt(q) if q > 0.0 else 0.0
            else:
                pa = c = 0.0
    return a, b, c


def _chain_angle(chain) -> float:
    """The angle between the iterate and the target, atan2(|(b, c)|, a)."""
    a, b, c = chain
    return math.atan2(math.hypot(b, c), a)


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
    """Run the schedule's epochs from v0 as one chain; see the module docstring.

    Epoch k runs m_k iterations, each on one point of the band [b_k/2, b_k]
    around the current iterate. The active learner spends one label per
    iteration; with ``charge_rejected`` (the passive learner, which draws
    labeled pairs) each draw rejected by the band costs a label too, so
    labels equal draws. The randomness is drawn in chunks of at most
    TAPE_STEPS steps of an epoch: a :class:`geometry.BandTape` from ``rng``,
    then the label coins from the oracle's generator; at the end the final
    vector takes its residual direction from ``rng``. A step's draw count is
    one Geometric(p) number, so an epoch costs O(m) whatever its band mass p;
    a band of mass below MIN_BAND_MASS raises ValueError before the first
    draw, and so does a schedule for another dimension than v0's and the
    target's (DimensionMismatch).

    The acute start (angle(v0, target) <= pi/2) is the caller's
    responsibility; see the initialization module. Every angle is read off
    the chain state, as the angle to ``oracle.target``, at the start and at
    each epoch's end; ``succeeded`` is the last <= pi * schedule.epsilon.
    """
    v = geometry.check_unit(v0, "v0")
    target = oracle.target
    geometry.check_same_dimension(v, target)
    d = v.shape[0]
    if not isinstance(schedule, Schedule):
        raise ValueError(f"schedule must be a Schedule, got {schedule!r}")
    if schedule.d != d:
        raise geometry.DimensionMismatch(f"the schedule is for d = {schedule.d}, the run is in d = {d}")
    masses = schedule.band_masses()
    e, chain = _start_chain(target, v)
    theta = _chain_angle(chain)
    traces: list[EpochTrace] = []
    for k, (m, b, p) in enumerate(zip(schedule.m, schedule.b, masses), start=1):
        draws = 0
        for done in range(0, m, TAPE_STEPS):
            n = min(TAPE_STEPS, m - done)
            tape = geometry.draw_band_tape(d, b / 2.0, b, p, rng, n)
            chain = _run_chain(chain, tape, *oracle.flip_tape(n))
            draws += int(tape.draws.sum())
        labels = draws if charge_rejected else m
        oracle.charge_queries(labels)
        traces.append(EpochTrace(k, theta, _chain_angle(chain), labels, draws))
        theta = traces[-1].theta_after
    return RunReport(final=_iterate(target, e, chain, rng), traces=traces,
                     succeeded=theta <= math.pi * schedule.epsilon)
