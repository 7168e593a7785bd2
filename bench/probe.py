"""Set-up probe, run in a fresh interpreter by run.py.

Times `import cpsdlab.cli` and then one command, and prints both as JSON:

    python3 bench/probe.py SRC_DIR '["factorize", "in.json", "--out", "out.json"]'
"""

import json
import sys
import time

src, argv = sys.argv[1], json.loads(sys.argv[2])
sys.path.insert(0, src)
t0 = time.perf_counter()
import cpsdlab.cli  # noqa: E402

t1 = time.perf_counter()
code = cpsdlab.cli.main(argv)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "op_s": t2 - t1, "exit": code}))
