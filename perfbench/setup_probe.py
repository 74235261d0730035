"""Set-up a user pays before the first result, in a fresh interpreter.

    python3 perfbench/setup_probe.py INPUT_JSON [INPUT_JSON ...]

Imports ``poppersim.cli``, then loads and validates the workload's inputs:
each file holds one scenario document or a list of them.  No oracle
operation runs.  Prints {"import_s": ...}, the time the import alone took;
the caller times the whole process.
"""

import json
import sys
import time


def main() -> int:
    start = time.perf_counter()
    from poppersim.experiments import Scenario
    import poppersim.cli  # noqa: F401
    import_s = time.perf_counter() - start
    for path in sys.argv[1:]:
        with open(path) as fh:
            doc = json.load(fh)
        for scenario in doc if isinstance(doc, list) else [doc]:
            Scenario.from_dict(scenario)
    print(json.dumps({"import_s": import_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
