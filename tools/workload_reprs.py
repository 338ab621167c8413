"""Print every benchmark operation's result at seed 1, one line each.

Usage: python tools/workload_reprs.py CHECKOUT > reprs.txt

Imports CHECKOUT/perfbench/workloads.py with CHECKOUT/src first on the path,
runs each operation of every workload at seed 1 and prints its workload, its
label, the repr of its result (for a convergence curve, the values of its
tau_grid, frobenius and squared_frobenius_mean arrays, whose float reprs
round-trip) and its check errors. Two checkouts whose results are
bit-identical print byte-identical output, so `cmp` of the two files is the
check. A full run takes about 50 s on a 2-core host.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

SEED = 1
CURVE_ARRAYS = ("tau_grid", "frobenius", "squared_frobenius_mean")


def _describe(result) -> str:
    if hasattr(result, "frobenius"):  # an rmt.ConvergenceCurve
        values = {name: getattr(result, name) for name in CURVE_ARRAYS}
        return " ".join(f"{name}={None if a is None else a.tolist()!r}" for name, a in values.items())
    return repr(result)


def main(checkout: str) -> None:
    root = Path(checkout).resolve()
    sys.path.insert(0, str(root / "src"))
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name, build in workloads.WORKLOADS.items():
        for op in build(SEED):
            result = op.run()
            print(f"{name} {op.label} {_describe(result)} errors={op.check(result)}", flush=True)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
