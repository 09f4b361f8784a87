"""One set-up sample: build every simulator of a workload in a fresh process.

Started by ``run.py`` with ``REPRO_CODEGEN_CACHE`` pointing at an empty
directory, so the first build of each model emits its module, exactly as a
user's first process would.  Host-speed probes run just before and just
after the build.  Prints ``{"seconds": ..., "probe_seconds": ...}`` as its
last line: the build's host seconds and the probes' mean.

    python3 perfbench/setup_worker.py --workload fig10-generated --seed 1
"""

from __future__ import annotations

import argparse
import json
import statistics

import checkout
import hostspeed

#: Probes run on each side of the build.
PROBES = 3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    checkout.use_checkout_source()
    import cells

    plan = cells.make_plan(args.workload, args.seed, smoke=args.smoke)
    probes = [hostspeed.probe() for _ in range(PROBES)]
    seconds = cells.build_all(plan)
    probes += [hostspeed.probe() for _ in range(PROBES)]
    print(json.dumps({"seconds": seconds, "probe_seconds": statistics.fmean(probes)}))


if __name__ == "__main__":
    main()
