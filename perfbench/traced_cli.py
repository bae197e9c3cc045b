"""Run the tailbound CLI in-process with the span tracer installed.

    python3 perfbench/traced_cli.py SPANS.jsonl <tailbound arguments...>

Exits with the CLI's own exit code after writing the spans.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    import tailbound.cli
    try:
        return tailbound.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write_jsonl(spans_path)


if __name__ == "__main__":
    sys.exit(main())
