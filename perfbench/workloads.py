"""Workload definitions: the CLI calls one round of each workload makes.

Standard library only, so the set-up probe can load it without pulling
numpy in ahead of the import it times.
"""

from __future__ import annotations

from dataclasses import dataclass

# Miss-rate ceilings of the acceptance gates (>= 18/20 successes, >= 16/20
# for bounded:0.3); misses are tested against these, never counted as failures.
GATE_MISS_RATE = {"bounded:0.3": 0.2}
DEFAULT_GATE_MISS_RATE = 0.1

# verify's Monte Carlo checks carry 3-SE margins (~0.3% false failures each),
# so it keeps the CLI's default seed: its inputs never depend on --seed.
VERIFY_SEED = 0


@dataclass(frozen=True)
class Call:
    """One ``percband`` command line of a workload round."""

    command: str  # "run", "init-run" or "verify"
    mode: str = "active"  # "active" or "passive" for "run"; "init" for "init-run"
    d: int = 10
    noise: str = "realizable"
    epsilon: float = 0.05
    delta: float = 0.1
    trials: int = 1
    samples: int = 1_000_000

    @property
    def tag(self) -> str:
        if self.command == "verify":
            return "verify"
        return f"{self.mode}-d{self.d}-{self.noise.replace(':', '')}"

    def argv(self, seed: int, out: str) -> list[str]:
        if self.command == "verify":
            return ["verify", "--samples", str(self.samples), "--out", out]
        argv = [self.command]
        if self.command == "run":
            argv += ["--mode", self.mode]
        return argv + [
            "--d", str(self.d), "--noise", self.noise,
            "--epsilon", repr(self.epsilon), "--delta", repr(self.delta),
            "--trials", str(self.trials), "--seed", str(seed),
            "--jobs", "1", "--out", out,
        ]

    def noise_kind_param(self) -> tuple[str, float]:
        kind, _, param = self.noise.partition(":")
        return kind, float(param) if param else 0.0

    @property
    def zeta(self) -> float:
        kind, param = self.noise_kind_param()
        return 1.0 - 2.0 * param if kind == "bounded" else 1.0

    @property
    def gate_miss_rate(self) -> float:
        return GATE_MISS_RATE.get(self.noise, DEFAULT_GATE_MISS_RATE)

    def warmup(self) -> "Call":
        """A cheap call down the same code paths, run before any timing."""
        if self.command == "verify":
            return Call("verify", samples=2000)
        return Call(self.command, self.mode, 10, self.noise, 0.4, self.delta, 1)


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]

    def program_seed(self, seed: int) -> int:
        return VERIFY_SEED if self.calls[0].command == "verify" else seed


D10_NOISES = ("realizable", "bounded:0.2", "bounded:0.3", "adversarial:0.005")

# Why each workload exists: see BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("active-d10", tuple(Call("run", "active", 10, n, trials=2) for n in D10_NOISES)),
        Workload("active-d100", (Call("run", "active", 100, "realizable", trials=1),)),
        Workload(
            "passive-init-d10",
            (
                Call("run", "passive", 10, "bounded:0.2", trials=2),
                Call("init-run", "init", 10, "bounded:0.2", trials=1),
            ),
        ),
        Workload("verify-1e6", (Call("verify", samples=1_000_000),)),
    )
}
