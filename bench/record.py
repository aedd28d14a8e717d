"""Record the output digests that `run.py --seed 1` checks, in bench/expected.json.

Run from the root of a checkout, only when the program's output is meant to
change:  python3 bench/record.py
"""

import json
import os
import shutil
import sys
from pathlib import Path

import run


def main() -> None:
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.ROOT / "src"))
    recorded = {"seed": run.DIGEST_SEED, "sha256": {}, "calls": {}}
    for workload in run.WORKLOADS:
        work = Path(".bench_work") / f"{workload}-seed{run.DIGEST_SEED}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            _, cli, _, argvs = run.set_up(workload, run.DIGEST_SEED, work)
            results = [run.invoke(cli, argv) for argv in argvs]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        recorded["sha256"][workload] = run.digest(argvs, results)
        recorded["calls"][workload] = [run.call_digest(a, r) for a, r in zip(argvs, results)]
        print(workload, recorded["sha256"][workload])
    run.EXPECTED.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
