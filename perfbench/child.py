"""One benchmark child process: start the interpreter, import the CLI, run it.

    python3 child.py SRC import            # set-up only: import intersum.cli
    python3 child.py SRC run ARGV...       # intersum.cli.main(ARGV), untouched
    python3 child.py SRC trace SPANS ARGV...  # same, with layer spans to SPANS

The exit code is the CLI's own.
"""
import sys
from pathlib import Path

src, mode, rest = sys.argv[1], sys.argv[2], sys.argv[3:]
sys.path.insert(0, src)

import intersum.cli as cli  # noqa: E402

if mode == "import":
    sys.exit(0)
if mode == "run":
    sys.exit(cli.main(rest))
if mode != "trace":
    sys.exit(f"unknown mode {mode!r}")

from spans import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
try:
    code = tracer.wrap("cli.main", cli.main)(rest[1:])
finally:
    tracer.restore()
    tracer.dump(Path(rest[0]))
sys.exit(code)
