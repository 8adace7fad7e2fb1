"""Write reference.json: each workload's op 0 at seed 0.

The file pins the outputs of the commit that defined the benchmark; the
checks in workloads.py compare every op against it. Regenerating it moves
the gate, so run this only when a change is meant to alter results, and
say so with the change:

    python3 perfbench/record.py
"""

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from spans import NullTracer  # noqa: E402
from workloads import REFERENCE, REFERENCE_ARRAYS, WORKLOADS  # noqa: E402


def main():
    null = NullTracer()
    ref, arrays = {}, {}
    for name, wl in WORKLOADS.items():
        summary = wl.op(wl.setup(0, null), null, 0)
        ref[name] = {}
        for field, value in summary.items():
            if isinstance(value, np.ndarray):
                arrays[f"{name}.{field}"] = value
            else:
                ref[name][field] = value
        print(f"{name}: recorded", file=sys.stderr)
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    np.savez_compressed(REFERENCE_ARRAYS, **arrays)


if __name__ == "__main__":
    main()
