"""Run a command, keep its standard output, and fail unless it exits with
the expected code and its peak RSS stays under a limit.

    python .github/peak_rss.py --exit CODE --limit-mb MB --out FILE [--head N] -- COMMAND...

Writes the command's standard output to FILE, prints its first N lines
(every line without --head) and then "exit <code>, peak RSS <MB> MB, wall
<seconds> s", and exits 0 only when both checks hold; the wall time is
printed so the log shows where time went, and is not checked. The peak
RSS is that of the largest process this script waited for, so it reaches
through a wrapper such as ``timeout`` to the command it runs.
"""

import argparse
import resource
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    if "--" not in argv:
        sys.exit("usage: peak_rss.py --exit CODE --limit-mb MB --out FILE [--head N] -- COMMAND...")
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="peak_rss.py")
    parser.add_argument("--exit", type=int, required=True, dest="code")
    parser.add_argument("--limit-mb", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--head", type=int)
    args = parser.parse_args(argv[:split])
    start = time.perf_counter()
    run = subprocess.run(argv[split + 1 :], capture_output=True, text=True)
    wall = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    with open(args.out, "w") as out:
        out.write(run.stdout)
    lines = run.stdout.splitlines()
    print(*lines[: args.head], f"exit {run.returncode}, peak RSS {peak_mb:.0f} MB, wall {wall:.1f} s", sep="\n")
    return 0 if run.returncode == args.code and peak_mb < args.limit_mb else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
