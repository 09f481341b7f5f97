"""Span tracer that wraps the program's functions from outside.

Every public function of the layer modules (and the two private band
samplers, to tell the sampling paths apart) is replaced, at every module
attribute of the package that refers to it, by a wrapper that records a
span: name, start, end and the span that was open when it was called. So
``passive``'s own import of ``learner.modified_perceptron_step`` is wrapped
too. The cheap validators that run several times per label are counted,
not spanned. Spans stay in memory until the round ends.

A wrapper also observes some results (draws per point, update fired, label
flipped); that work is recorded as a child span, so it comes out of the
caller's self time. The wrapper's own book-keeping does not: self times
include about 1.6 us per spanned child call and 0.7 us per counted one, and
the difference between traced and untraced rounds is reported as the
overhead.
"""

from __future__ import annotations

import array
import functools
import inspect
import sys
import time
from collections import Counter

import numpy as np

from percband import bench, geometry, initialization, learner, oracles, passive, verify

LAYERS = (geometry, oracles, learner, passive, initialization, verify, bench)
COUNTED = {"geometry.check_unit", "geometry.check_same_dimension", "geometry.marginal_density"}
PRIVATE_SPANNED = {"geometry._sample_band_geometric", "geometry._sample_band_literal"}
METHODS = (
    (oracles.LabelingOracle, ("__init__", "query", "query_batch", "charge_queries")),
    (passive.LabeledExampleSource, ("draw_in_band",)),
)
OBSERVE = "tracer.observe"
# Tolerance for a traced Perceptron step against the reflection formula.
UPDATE_ATOL = 1e-9


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _noise_spec(model) -> str:
    return model.kind if model.kind == "realizable" else f"{model.kind}:{model.param:g}"


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self):
        self._targets = self._find_targets()
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = [OBSERVE]
        self._index = {OBSERVE: 0}
        self.span_name = array.array("i")
        self.span_parent = array.array("q")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        # noise spec -> labels, flips, slab mismatches, adversarial slabs
        self.flips: dict[str, dict] = {}

    # -- installation -------------------------------------------------------

    @staticmethod
    def _find_targets() -> dict[str, object]:
        found = {}
        for module in LAYERS:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(module).items():
                qual = f"{short}.{name}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and (not name.startswith("_") or qual in PRIVATE_SPANNED)):
                    found[qual] = obj
        for cls, methods in METHODS:
            short = cls.__module__.rsplit(".", 1)[-1]
            for name in methods:
                found[f"{short}.{cls.__name__}.{name}"] = vars(cls)[name]
        return found

    def install(self) -> None:
        observers = {
            "geometry.rejection_sample_band": self._obs_band_draws,
            "geometry.sample_uniform_sphere": self._obs_sphere_points,
            "learner.modified_perceptron_step": self._obs_fired,
            "oracles.LabelingOracle.query": self._obs_query,
            "oracles.LabelingOracle.query_batch": self._obs_query_batch,
            "passive.LabeledExampleSource.draw_in_band": self._obs_pairs,
        }
        by_id = {}
        for qual, fn in self._targets.items():
            wrapper = (self._counted(qual, fn) if qual in COUNTED
                       else self._spanned(qual, fn, observers.get(qual)))
            by_id[id(fn)] = (fn, wrapper)
        owners = [m for name, m in list(sys.modules.items())
                  if name == "percband" or name.startswith("percband.")]
        owners += [cls for cls, _ in METHODS]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                entry = by_id.get(id(value))
                if entry is not None and entry[0] is value:
                    self._restore.append((owner, attr, value))
                    setattr(owner, attr, entry[1])

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- wrappers -----------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _counted(self, qual, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[qual] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, qual, fn, observe):
        tracer = self
        idx = self._intern(qual)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            names, parents = tracer.span_name, tracer.span_parent
            starts, ends, stack = tracer.span_start, tracer.span_end, tracer._stack
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if observe is not None:
                observe(args, kwargs, out)
                names.append(0)
                parents.append(stack[-1])
                starts.append(t1)
                ends.append(clock())
            return out

        return wrapper

    # -- observers ----------------------------------------------------------

    def _obs_band_draws(self, args, kwargs, out):
        self.counts["band_draws"] += out[1]

    def _obs_pairs(self, args, kwargs, out):
        self.counts["pairs"] += out[2]

    def _obs_sphere_points(self, args, kwargs, out):
        n = _arg(args, kwargs, 2, "n")
        self.counts["sphere_points"] += 1 if n is None else int(n)

    def _obs_fired(self, args, kwargs, out):
        """Counts updates that fire, and steps whose result is not the unit
        reflection w - 2 1{y (w.x) < 0} (w.x) x."""
        w, x, y = _arg(args, kwargs, 0, "w"), _arg(args, kwargs, 1, "x"), _arg(args, kwargs, 2, "y")
        margin = float(np.dot(w, x))
        fired = y * margin < 0.0
        want = w - 2.0 * margin * np.asarray(x) if fired else np.asarray(w)
        self.counts["fired"] += fired
        self.counts["bad_updates"] += not (
            abs(float(np.linalg.norm(out)) - 1.0) <= UPDATE_ATOL
            and float(np.max(np.abs(out - want / np.linalg.norm(want)))) <= UPDATE_ATOL)

    def _tally(self, oracle) -> dict:
        spec = _noise_spec(oracle.model)
        t = self.flips.get(spec)
        if t is None:
            t = self.flips[spec] = {"labels": 0, "flips": 0, "slab_mismatches": 0, "slabs": set()}
        if oracle.model.kind == "adversarial":
            t["slabs"].add((oracle.dimension, oracle.model.nu, oracle.slab_threshold))
        return t

    def _obs_query(self, args, kwargs, out):
        oracle, x = args[0], _arg(args, kwargs, 1, "x")
        t = self._tally(oracle)
        dot = float(np.dot(oracle.target, np.asarray(x, dtype=np.float64)))
        flipped = out != (1 if dot >= 0.0 else -1)
        if oracle.model.kind == "adversarial":
            t["slab_mismatches"] += flipped != (abs(dot) <= oracle.slab_threshold)
        t["labels"] += 1
        t["flips"] += flipped
        self.counts["query_flips"] += flipped

    def _obs_query_batch(self, args, kwargs, out):
        oracle, points = args[0], _arg(args, kwargs, 1, "points")
        t = self._tally(oracle)
        dots = np.asarray(points, dtype=np.float64) @ oracle.target
        flipped = out != np.where(dots >= 0.0, 1, -1)
        if oracle.model.kind == "adversarial":
            t["slab_mismatches"] += int(np.count_nonzero(flipped != (np.abs(dots) <= oracle.slab_threshold)))
        t["labels"] += dots.size
        t["flips"] += int(np.count_nonzero(flipped))

    # -- summary ------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the round traced since the last reset."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        n = names.size
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        parent_name = np.where(has_parent, names[np.maximum(parent, 0)], -1)

        def ids(qual):
            return self._index.get(qual, -2)

        def mask(qual, under=None):
            m = names == ids(qual)
            return m if under is None else m & (parent_name == ids(under))

        def count(qual, under=None):
            return int(np.count_nonzero(mask(qual, under)))

        def total(qual):
            return float(dur[mask(qual)].sum())

        def mean(qual, scale=1.0):
            k = count(qual)
            return total(qual) / k * scale if k else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        steps = count("learner.modified_perceptron_step")
        active_steps = count("learner.modified_perceptron_step", "learner.mod_perceptron")
        passive_steps = count("learner.modified_perceptron_step", "passive.passive_mod_perceptron")
        geometric = count("geometry._sample_band_geometric")
        literal = count("geometry._sample_band_literal")
        queries = count("oracles.LabelingOracle.query")
        init = mask("initialization.acute_initialize")
        not_test = np.isin(names, [ids("learner.active_perceptron"), ids("learner.make_schedule"),
                                   ids(OBSERVE)])
        init_children = np.bincount(parent[has_parent & not_test], weights=dur[has_parent & not_test],
                                    minlength=n)
        writers = mask("bench.write_csv") | mask("bench.write_verify_csv")
        return {
            "learner.make_schedule_us": mean("learner.make_schedule", 1e6),
            "oracles.adversarial_threshold_ms": mean("oracles.adversarial_threshold", 1e3),
            "bench.trial_self_ms": ratio(float(self_time[mask("bench.run_trial")].sum()) * 1e3,
                                         count("bench.run_trial")),
            "bench.write_csv_ms": ratio(float(dur[writers].sum()) * 1e3, int(np.count_nonzero(writers))),
            "learner.steps": steps,
            "learner.step_us": mean("learner.modified_perceptron_step", 1e6),
            "learner.fire_rate": ratio(self.counts["fired"], steps),
            "learner.loop_us_per_step": ratio(
                float(self_time[mask("learner.mod_perceptron")].sum()) * 1e6, active_steps),
            "geometry.sample_geometric_us": mean("geometry._sample_band_geometric", 1e6),
            "geometry.sample_literal_us": mean("geometry._sample_band_literal", 1e6),
            "geometry.sphere_us_per_kpoint": ratio(total("geometry.sample_uniform_sphere") * 1e6,
                                                   self.counts["sphere_points"] / 1e3),
            "geometry.sphere_points": self.counts["sphere_points"],
            "geometry.literal_share": ratio(literal, literal + geometric),
            "geometry.draws_per_point": ratio(self.counts["band_draws"],
                                              count("geometry.rejection_sample_band")),
            "geometry.check_unit_per_step": ratio(self.counts["geometry.check_unit"], steps),
            "geometry.band_mass_calls": count("geometry.band_mass"),
            "geometry.band_mass_us": mean("geometry.band_mass", 1e6),
            "geometry.cond_moment_s": total("geometry.conditional_moment_oracle"),
            "oracles.queries": queries,
            "oracles.query_us": mean("oracles.LabelingOracle.query", 1e6),
            "oracles.corrupted_per_query": ratio(self.counts["query_flips"], queries),
            "passive.draw_us": mean("passive.LabeledExampleSource.draw_in_band", 1e6),
            "passive.pairs_per_point": ratio(self.counts["pairs"],
                                             count("passive.LabeledExampleSource.draw_in_band")),
            "passive.loop_us_per_step": ratio(
                float(self_time[mask("passive.passive_mod_perceptron")].sum()) * 1e6, passive_steps),
            "initialization.branch_s": ratio(
                float(dur[mask("learner.active_perceptron", "initialization.acute_initialize")].sum()),
                count("learner.active_perceptron", "initialization.acute_initialize")),
            "initialization.test_ms": ratio(float((dur - init_children)[init].sum()) * 1e3,
                                            int(np.count_nonzero(init))),
            "verify.error_angle_s": total("verify.check_error_angle_relation"),
            "verify.band_mass_s": total("verify.check_band_mass_bound"),
            "verify.cond_moments_s": total("verify.check_conditional_moments"),
            "verify.progress_s": total("verify.check_progress_measure"),
        }

    def save(self, path: str) -> None:
        """Write the round's spans: name table plus one row per span."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end),
        )
