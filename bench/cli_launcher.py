"""Run ``probuchi.cli.main()`` with spans, for the traced cli_roundtrip run.

Usage: ``BENCH_SPANS=out.json python3 bench/cli_launcher.py ARGS...``
behaves like ``python -m probuchi.cli ARGS...`` and, on exit, writes the
spans, counts, the monotonic time this script started and the import time
of ``probuchi.cli`` to ``BENCH_SPANS``.
"""

import time

START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402

t0 = time.monotonic()
import probuchi.cli  # noqa: E402

import_s = time.monotonic() - t0
tracer = spans.Tracer()
tracer.install()
code = 0
try:
    probuchi.cli.main()
except SystemExit as exc:
    code = exc.code
finally:
    sys.stdout.flush()
    record = dict(tracer.export(), start=START, import_s=import_s)
    Path(os.environ["BENCH_SPANS"]).write_text(json.dumps(record))
sys.exit(code)
