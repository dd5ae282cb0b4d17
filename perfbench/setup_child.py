"""One timed benchmark set-up in a fresh interpreter.

Usage: python3 setup_child.py TEMPLATE_JSON SEED[,SEED...] OUT_DIR

Imports fleetcharge, generates one scenario per seed, dumps each to
OUT_DIR/scenarioK.json and loads it back, then prints the elapsed seconds
as JSON. The clock starts before the package import, so import time is
part of set-up.
"""

import time

_start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import fleetcharge  # noqa: E402


def main() -> int:
    template_json, seeds, out_dir = sys.argv[1:4]
    template = fleetcharge.ScenarioTemplate.from_dict(json.loads(template_json))
    for k, seed in enumerate(seeds.split(",")):
        scenario = fleetcharge.generate_scenario(template, int(seed))
        path = str(Path(out_dir) / f"scenario{k}.json")
        fleetcharge.dump_scenario(scenario, path)
        if fleetcharge.load_scenario(path) != scenario:
            print(f"scenario {k} changed in a dump/load round trip", file=sys.stderr)
            return 1
    print(json.dumps({"setup_s": time.perf_counter() - _start}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
