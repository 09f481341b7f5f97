"""Metric tables: name, unit, direction (and bound, for end-to-end metrics).

BENCHMARK.json at the repository root lists the same metrics; keep the two
in step.
"""

END_TO_END = (
    # Median wall time of one round of the workload's cli.main calls, in a
    # process whose imports and first lazy numpy work have finished.
    ("wall_s", "s", "lower", 0.25),
    # wall_s per Perceptron update (trial workloads) or per Monte Carlo
    # sample (verify-1e6).
    ("us_per_step", "us", "lower", 0.25),
    # Median over fresh interpreters of importing percband.cli plus building
    # the round's configurations (argument parsing, schedules, oracles).
    ("setup_s", "s", "lower", 0.25),
    # Peak resident memory of the process that ran the rounds (MB = 2^20 B).
    ("peak_rss_mb", "MB", "lower", 0.1),
)

PER_LAYER = (
    ("setup.import_s", "s", "lower"),
    ("learner.make_schedule_us", "us", "lower"),
    ("oracles.adversarial_threshold_ms", "ms", "lower"),
    ("bench.trial_self_ms", "ms", "lower"),
    ("bench.write_csv_ms", "ms", "lower"),
    ("learner.steps", "count", "lower"),
    ("learner.step_us", "us", "lower"),
    ("learner.fire_rate", "share", "lower"),
    ("learner.loop_us_per_step", "us", "lower"),
    ("geometry.sample_geometric_us", "us", "lower"),
    ("geometry.sample_literal_us", "us", "lower"),
    ("geometry.sphere_us_per_kpoint", "us", "lower"),
    ("geometry.sphere_points", "count", "lower"),
    ("geometry.literal_share", "share", "lower"),
    ("geometry.draws_per_point", "count", "lower"),
    ("geometry.check_unit_per_step", "count", "lower"),
    ("geometry.band_mass_calls", "count", "lower"),
    ("geometry.band_mass_us", "us", "lower"),
    ("geometry.cond_moment_s", "s", "lower"),
    ("oracles.queries", "count", "lower"),
    ("oracles.query_us", "us", "lower"),
    ("oracles.corrupted_per_query", "share", "lower"),
    ("passive.draw_us", "us", "lower"),
    ("passive.pairs_per_point", "count", "lower"),
    ("passive.loop_us_per_step", "us", "lower"),
    ("initialization.branch_s", "s", "lower"),
    ("initialization.test_ms", "ms", "lower"),
    ("verify.error_angle_s", "s", "lower"),
    ("verify.band_mass_s", "s", "lower"),
    ("verify.cond_moments_s", "s", "lower"),
    ("verify.progress_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
