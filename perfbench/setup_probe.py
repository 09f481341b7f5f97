"""Set-up cost in a fresh interpreter: import percband.cli, build the configs.

Building a workload's configurations means what each of its CLI calls does
before the first label: parse the arguments and, for trial calls, make the
schedules (both for init-run: main and branch) and construct a labeling
oracle, which for adversarial noise root-finds the slab width. Prints one
JSON line with the import time and the total.

    python3 perfbench/setup_probe.py --workload NAME --seed N
"""

import sys
import time

from workloads import WORKLOADS


def main() -> None:
    name = sys.argv[sys.argv.index("--workload") + 1]
    seed = int(sys.argv[sys.argv.index("--seed") + 1])
    workload = WORKLOADS[name]

    t0 = time.perf_counter()
    from percband import cli
    import percband as pb
    import numpy as np

    t1 = time.perf_counter()
    for call in workload.calls:
        cli.build_parser().parse_args(call.argv(workload.program_seed(seed), "unused.csv"))
        if call.command == "verify":
            continue
        kind, param = call.noise_kind_param()
        noise = pb.NoiseModel.realizable() if kind == "realizable" else getattr(pb.NoiseModel, kind)(param)
        pb.make_schedule(call.d, call.epsilon, call.delta, noise)
        if call.mode == "init":
            pb.make_schedule(call.d, call.zeta / 16.0, call.delta / 3.0, noise)
        rng = np.random.default_rng(seed)
        pb.LabelingOracle(pb.sample_uniform_sphere(call.d, rng), noise, rng)
    t2 = time.perf_counter()
    print(f'{{"import_s": {t1 - t0!r}, "setup_s": {t2 - t0!r}}}')


if __name__ == "__main__":
    main()
