"""Record per-op output digests for the default seed into goldens/.

    python3 perfbench/record_goldens.py [workload ...]

Run it only on a commit whose outputs are known to be right: the benchmark
then fails every op whose output bytes differ from these.
"""

from __future__ import annotations

import json
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the benchmark dir

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    env = run.child_env()
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names:
        _, result = run.worker(env, "--workload", name, "--seed",
                               str(workloads.DEFAULT_SEED), "--mode",
                               "digests")
        path = workloads.GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps({
            "seed": workloads.DEFAULT_SEED,
            "commit": run.git_commit(),
            "digests": result["digests"]}, indent=1) + "\n")
        print(f"{path.name}: {len(result['digests'])} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
