"""One ``setup_s`` sample: a fresh interpreter made ready for records.

Imports the library, loads and warms the kernel library (compiling it
on first use), builds the schema, plans the grids and constructs the
model (batch) or collector and service (stream), then prints three
lines: ``time.perf_counter()`` at that moment (the parent reads this
system-wide monotonic clock against its own reading taken just before
it started the interpreter), one host calibration taken right after
(see ``host.calibration_s``), and the backend serving each kernel as
JSON.

Usage: python3 felipbench/setup_probe.py <workload> <checkpoint_dir>
"""

import json
import sys
import time


def main(argv) -> int:
    workload, checkpoint_dir = argv[1], argv[2]
    from repro.fo import kernels

    import scenarios

    kernels.warm()
    scenario = scenarios.SCENARIOS[workload]
    scenarios.construct(scenario, scenarios.build_schema(),
                        checkpoint_dir=checkpoint_dir)
    ready = time.perf_counter()
    import host  # the benchmark's own module, outside the measured interval
    calibration = host.calibration_s()
    print(repr(ready))
    print(repr(calibration))
    print(json.dumps(kernels.backend_report()["active"], sort_keys=True),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
