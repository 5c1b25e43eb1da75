#!/usr/bin/env python3
"""Build the perfbench executable from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload pull-egate --seed 1 --seconds 10 --trace 0

Workloads: pull-egate, fleet-churn, dissem-feed. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer ledger. The last line of
standard output is one JSON object; build output goes to standard error.
The exit code is non-zero when the sources are missing, the build fails,
or a served view differs from its golden view.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile(os.path.join(root, "dune-project"))
            and os.path.isdir(os.path.join(root, "lib"))):
        print("perfbench: the sdds sources (dune-project, lib/) are missing",
              file=sys.stderr)
        return 2
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune is not on PATH", file=sys.stderr)
        return 2
    # The shared dune cache lives outside the checkout; keep every build
    # artifact inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            [dune, "build", "--root", root, "./perfbench/main.exe"],
            cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 2
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    try:
        run = subprocess.run([exe] + sys.argv[1:], cwd=root, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 2
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
