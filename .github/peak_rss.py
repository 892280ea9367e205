"""Run a command and bound the peak resident set size of its processes.

    python3 .github/peak_rss.py LIMIT_MB cmd [arg ...]

Prints "peak RSS <x> MB" on stderr, the largest ru_maxrss among the
waited-for children, and exits 3 when it exceeds LIMIT_MB, else with the
command's exit code.
"""

import resource
import subprocess
import sys

limit_mb = float(sys.argv[1])
code = subprocess.call(sys.argv[2:])
rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB on Linux
print(f"peak RSS {rss / 1024:.1f} MB", file=sys.stderr)
sys.exit(3 if rss > limit_mb * 1024 else code)
