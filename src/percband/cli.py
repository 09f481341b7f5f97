"""Command-line interface for the benchmark harness.

Subcommands:

* ``run``      - seeded trials at a single configuration
* ``sweep``    - trials across one axis (d, eta, nu, epsilon)
* ``init-run`` - trials with the acute-initialization preamble
* ``verify``   - the statistical verification suite

Options can also come from a JSON configuration file with the same field
names (``--config``); explicit flags override file values. Exit status is 0
iff everything executed passed its gate (for verify: every check); a bad
flag or config-file value is a usage error with exit status 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import ExperimentConfig, SWEEP_AXES, config_for_value, run_single, run_sweep
from .oracles import NoiseModel
from .verify import all_passed

# Every setting: its built-in default and the type a config-file value must
# have (null is accepted where the default is None; an integer where a float
# is expected).
_FIELDS = {
    "mode": ("active", str),
    "d": (10, int),
    "noise": ("realizable", str),
    "eta": (None, float),
    "nu": (None, float),
    "epsilon": (0.05, float),
    "delta": (0.1, float),
    "trials": (20, int),
    "seed": (0, int),
    "scale_m": (None, float),
    "scale_b": (None, float),
    "out": (None, str),
    "jobs": (1, int),
    "sweep": (None, str),
    "timing": (False, bool),
    "samples": (1_000_000, int),
}
_DEFAULTS = {name: default for name, (default, _) in _FIELDS.items()}


def parse_noise(spec: str) -> NoiseModel:
    """Parse a noise spec: realizable | bounded:ETA | bounded_margin:ETA:M | adversarial:NU."""
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "realizable" and len(parts) == 1:
            return NoiseModel.realizable()
        if kind == "bounded" and len(parts) == 2:
            return NoiseModel.bounded(float(parts[1]))
        if kind == "bounded_margin" and len(parts) == 3:
            return NoiseModel.bounded_margin(float(parts[1]), float(parts[2]))
        if kind == "adversarial" and len(parts) == 2:
            return NoiseModel.adversarial(float(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad noise spec {spec!r}: {exc}") from exc
    raise argparse.ArgumentTypeError(f"bad noise spec {spec!r}")


def parse_sweep(spec: str) -> tuple[str, list[float]]:
    """Parse ``axis=v1,v2,...`` into an axis name and value list."""
    if "=" not in spec:
        raise argparse.ArgumentTypeError(f"sweep spec must be axis=v1,v2,..., got {spec!r}")
    axis, _, raw = spec.partition("=")
    axis = axis.strip()
    if axis not in SWEEP_AXES:
        raise argparse.ArgumentTypeError(f"sweep axis must be one of {SWEEP_AXES}")
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad sweep values in {spec!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"sweep spec has no values: {spec!r}")
    return axis, values


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--d", type=int, help="ambient dimension (>= 3)")
    p.add_argument("--noise", type=parse_noise, help="realizable | bounded:ETA | bounded_margin:ETA:M | adversarial:NU")
    p.add_argument("--eta", type=float, help="shortcut: bounded noise level")
    p.add_argument("--nu", type=float, help="shortcut: adversarial noise level")
    p.add_argument("--epsilon", type=float, help="target error")
    p.add_argument("--delta", type=float, help="failure probability")
    p.add_argument("--trials", type=int, help="seeded trials per setting")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--scale-m", dest="scale_m", type=float, help="sample-count scale constant")
    p.add_argument("--scale-b", dest="scale_b", type=float, help="band-width scale constant")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--jobs", type=int, help="parallel trial workers")
    p.add_argument("--timing", action="store_true", default=None,
                   help="record wall time per row (off by default: timed rows are not byte-reproducible)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="percband",
        description="Active halfspace learning benchmark on the unit sphere",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "seeded trials at one configuration"),
        ("sweep", "trials across one parameter axis"),
        ("init-run", "trials preceded by acute initialization"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "run":
            p.add_argument("--mode", choices=("active", "passive"),
                           help="trial mode (default active)")
        if name == "sweep":
            p.add_argument("--sweep", help="axis=v1,v2,... with axis in d|eta|nu|epsilon")
    pv = sub.add_parser("verify", help="run the statistical verification suite")
    pv.add_argument("--config", help="JSON config file; flags override its values")
    pv.add_argument("--seed", type=int, help="master seed")
    pv.add_argument("--samples", type=int, help="Monte Carlo sample count per check")
    pv.add_argument("--out", help="CSV output path for check rows")
    return parser


def merge_settings(args: argparse.Namespace) -> dict:
    """Built-in defaults, overlaid by the config file, overlaid by flags.

    Raises ValueError for a config file with unknown or mistyped fields.
    """
    settings = dict(_DEFAULTS)
    path = getattr(args, "config", None)
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        unknown = set(file_values) - set(settings)
        if unknown:
            raise ValueError(f"unknown config file fields: {sorted(unknown)}")
        settings.update({k: _typed(k, v) for k, v in file_values.items()})
    for key in settings:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    return settings


def _typed(name: str, value):
    """A config-file value checked against the type of its setting."""
    default, kind = _FIELDS[name]
    if value is None and default is None:
        return None
    if kind is float and type(value) is int:
        value = float(value)
    if type(value) is not kind:
        raise ValueError(f"config file field {name!r} must be {kind.__name__}, got {value!r}")
    return value


def _build_config(settings: dict, mode: str) -> ExperimentConfig:
    noise = settings["noise"]
    if isinstance(noise, str):
        noise = parse_noise(noise)
    if settings.get("eta") is not None:
        if noise.kind == "bounded_margin":
            noise = NoiseModel.bounded_margin(settings["eta"], noise.margin)
        else:
            noise = NoiseModel.bounded(settings["eta"])
    if settings.get("nu") is not None:
        noise = NoiseModel.adversarial(settings["nu"])
    kwargs = dict(
        mode=mode,
        d=settings["d"],
        noise=noise,
        epsilon=settings["epsilon"],
        delta=settings["delta"],
        trials=settings["trials"],
        master_seed=settings["seed"],
        output_path=settings["out"],
        jobs=settings["jobs"],
        measure_time=bool(settings["timing"]),
        samples=settings["samples"],
    )
    if settings.get("scale_m") is not None:
        kwargs["scale_m"] = settings["scale_m"]
    if settings.get("scale_b") is not None:
        kwargs["scale_b"] = settings["scale_b"]
    return ExperimentConfig(**kwargs)


def _mode(args: argparse.Namespace, settings: dict) -> str:
    if args.command == "verify":
        return "verify"
    if args.command == "init-run":
        return "init"
    if args.command == "run":
        return getattr(args, "mode", None) or (
            settings["mode"] if settings["mode"] in ("active", "passive") else "active"
        )
    return settings["mode"] if settings["mode"] != "verify" else "active"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = merge_settings(args)
        config = _build_config(settings, _mode(args, settings))
        if args.command == "sweep":
            raw = getattr(args, "sweep", None) or settings["sweep"]
            if not raw:
                raise ValueError("sweep requires --sweep axis=v1,v2,...")
            axis, values = parse_sweep(raw)
            for value in values:
                config_for_value(config, axis, value)
    except (OSError, ValueError, argparse.ArgumentTypeError) as exc:
        parser.error(str(exc))

    if args.command == "verify":
        results = run_single(config)
        for r in results:
            print(r.line())
        print(f"verify: {sum(r.passed for r in results)}/{len(results)} checks passed")
        return 0 if all_passed(results) else 1

    if args.command == "sweep":
        _, summaries = run_sweep(config, axis, values)
        for s in summaries:
            print(s.line())
        return 0

    _print_rows_summary(run_single(config))
    return 0


def _print_rows_summary(rows) -> None:
    n = len(rows)
    successes = sum(r.succeeded for r in rows)
    import numpy as np

    print(
        f"{n} trials: {successes} succeeded "
        f"(median labels {np.median([r.labels for r in rows]):g}, "
        f"median unlabeled draws {np.median([r.unlabeled_draws for r in rows]):g})"
    )


if __name__ == "__main__":
    sys.exit(main())
