"""Property tests of the library's and the CLI's boundaries.

Each public constructor and entry point gets one argument from a hostile
pool and valid values for the others: the call returns, or raises a
ValueError (DimensionMismatch included) whose message names the argument.
The CLI gets argv drawn from ``cli.SETTINGS``: it exits 0, 1 or 2, a usage
error prints exactly one ``error:`` line, and nothing prints a traceback.
"""

import contextlib
import io
import math
import re

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from percband import cli
from percband.bench import MODES, ExperimentConfig
from percband.geometry import check_dimension, check_unit
from percband.learner import Schedule, make_schedule
from percband.oracles import NoiseModel
from percband.verify import run_suite

HOSTILE = st.one_of(
    st.sampled_from([
        math.nan, math.inf, -math.inf, -0.0, 5e-324, -5e-324, 1e-310, True, False,
        np.float64(0.25), np.float32(0.5), np.int64(5), np.bool_(True),
        "0.1", "5", "", None, 10**400, -(10**400), 2**64,
    ]),
    st.floats(),
    st.integers(-(10**6), 10**6),
)

# (callable, valid arguments, the name a message must use for each argument).
# A tuple argument takes the hostile value whole or as its last entry.
CASES = [
    (NoiseModel, dict(kind="bounded", param=0.2), dict(kind="kind", param="eta")),
    (NoiseModel, dict(kind="adversarial", param=0.01), dict(param="nu")),
    (NoiseModel, dict(kind="realizable", param=0.0), dict(param="param")),
    (Schedule, dict(d=10, epsilon=0.1, m=(5, 5), b=(0.1, 0.05)),
     dict(d="d", epsilon="epsilon", m="m(_k)?", b="b(_k)?")),
    (make_schedule, dict(d=10, epsilon=0.1, delta=0.1, model=NoiseModel.bounded(0.2), scale_m=4.0, scale_b=0.5),
     {name: name for name in ("d", "epsilon", "delta", "model", "scale_m", "scale_b")}),
    (ExperimentConfig, dict(epsilon=0.3, trials=1),
     {name: name for name in ("mode", "d", "noise", "epsilon", "delta", "scale_m", "scale_b",
                              "trials", "master_seed", "measure_time")}),
    (check_unit, dict(v=(1.0, 0.0, 0.0), name="v0"), dict(v="v0")),
    (check_dimension, dict(d=10), dict(d="d")),
    (run_suite, dict(seed=0, n_samples=5), dict(seed="seed", n_samples="n_samples")),
]


@given(case=st.sampled_from(CASES), data=st.data())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_library_returns_or_refuses_by_name(case, data):
    fn, base, names = case
    arg = data.draw(st.sampled_from(sorted(names)))
    value = data.draw(HOSTILE)
    if fn is run_suite and arg == "n_samples":
        # A valid sample count runs the suite: keep it small.
        assume(not (isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value > 10))
    valid = base.get(arg)
    given_value = valid[:-1] + (value,) if isinstance(valid, tuple) and data.draw(st.booleans()) else value
    try:
        fn(**{**base, arg: given_value})
    except ValueError as exc:
        assert re.search(rf"\b{names[arg]}\b", str(exc)), (fn.__name__, arg, value, str(exc))


# Each setting's valid tokens, and the hostile ones of its type.
VALID = {
    "mode": list(MODES), "d": ["3", "5", "8"], "noise": ["realizable", "bounded:0.2", "adversarial:0.01"],
    "epsilon": ["0.3", "0.2", "0.1"], "delta": ["0.1", "0.3"], "trials": ["1", "2"], "seed": ["0", "7"],
    "scale_m": ["1", "4.0"], "scale_b": ["0.25", "0.5"], "jobs": ["1"], "max_steps": ["2000", "100000"],
    "sweep": ["d=3,5", "epsilon=0.3,0.2", "noise=realizable,bounded:0.1"], "samples": ["1", "5"],
}
HOSTILE_TOKENS = {
    int: ["0", "-1", "2.5", "1e3", "x", "", "1" + "0" * 30],
    float: ["0", "-0", "nan", "inf", "-1", "1.5", "5e-324", "1e-300", "x", ""],
    str: ["x", "", "bounded:0.6", "bounded:", "verify", "d=", "x=1", "epsilon=0.5,,0.2", "d=2.5"],
}
# Given whenever the command reads them, so that every call stays small.
ALWAYS = {"samples", "max_steps", "sweep"}


@given(data=st.data())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_cli_exits_0_1_or_2_without_a_traceback(tmp_path_factory, data):
    tmp = tmp_path_factory.getbasetemp()
    command = data.draw(st.sampled_from(sorted(cli.COMMANDS)))
    names = [name for name, (_, commands, _) in cli.SETTINGS.items()
             if command in commands and (name in ALWAYS or data.draw(st.booleans()))]
    # At most one setting takes a hostile token; with none, an argv may
    # end in a flag the command does not know or one without its value.
    bad = data.draw(st.none() | st.sampled_from(names))
    argv = [command]
    for name in names:
        kind = cli.SETTINGS[name][0]
        argv.append("--" + name.replace("_", "-"))
        if kind is bool:
            continue
        if name == "out":
            tokens = [str(tmp), str(tmp / "missing" / "out.csv"), ""] if name == bad else [str(tmp / "out.csv")]
        else:
            tokens = HOSTILE_TOKENS[kind] if name == bad else VALID[name]
        argv.append(data.draw(st.sampled_from(tokens)))
    if bad is None:
        argv += data.draw(st.sampled_from([[]] * 4 + [["--bogus"], ["--d"]]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert len([line for line in err.getvalue().splitlines() if "error:" in line]) == 1, argv
