"""Set-up time of bbgkz in a fresh interpreter, started by run.py.

    python3 perfbench/setup_worker.py PROBLEM.json...

Times `import bbgkz` plus, per problem, load_problem, build_semigroup and
resolve_x, before importing anything else that bbgkz might share, then
samples the host-speed gauge.  The last line printed is one JSON object.
"""

import sys
from time import perf_counter


def main(paths):
    t0 = perf_counter()
    from bbgkz import cli
    for path in paths:
        spec = cli.load_problem(path)
        S = cli.build_semigroup(spec.group, spec.vectors)
        spec.resolve_x(S)
    took = perf_counter() - t0
    import json
    import worker
    print(json.dumps({"setup_s": took,
                      "reference_s": worker.gauge(worker.SETUP_GAUGE_SHARE * took)}))


if __name__ == "__main__":
    main(sys.argv[1:])
