"""Start ``repro serve`` with the span recorder installed.

    python3 perfbench/serve_launcher.py --trace-out SPANS.json serve --tcp ...

Everything after ``--trace-out FILE`` is handed to the ``repro`` command
line unchanged.  The recorder wraps the same layer entry points as the
in-process workloads, plus the serve tier's ``json.dumps`` of each
envelope; the spans are written to FILE when the server exits (on
SIGINT).
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from spans import SpanRecorder  # noqa: E402


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[1] != "--trace-out":
        raise SystemExit(__doc__)
    trace_out, argv = sys.argv[2], sys.argv[3:]
    import repro.engine.serve as serve_module
    from repro.cli import main as repro_main

    recorder = SpanRecorder()
    recorder.install(serve_module)
    try:
        return repro_main(argv)
    finally:
        recorder.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main())
