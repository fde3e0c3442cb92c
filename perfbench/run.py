"""End-to-end benchmark of simulate -> fit -> predict.

Run from the repository root::

    python3 perfbench/run.py --workload ci-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` alternates untraced and traced passes and reports the per-layer
metrics derived from the traced ones.  A readable report goes to standard
error; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Workloads and
metrics are described in ``perfbench/README.md``.
"""

import argparse
import contextlib
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="simulate -> fit -> predict")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**31:
        parser.error("--seed must be in [0, 2**31)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    started = time.perf_counter()
    from perfbench import runner
    from perfbench.workloads import WORKLOADS
    import_s = time.perf_counter() - started
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    scratch = Path.cwd() / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        workload = WORKLOADS[args.workload](seed=args.seed, root=root)
        ledger = runner.Ledger(workload)
        if args.trace:
            metrics = runner.trace(workload, args.seconds, ledger)
        else:
            metrics = runner.measure(workload, args.seconds, ledger, import_s)
        result = runner.report(workload, args, metrics, ledger)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            scratch.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
