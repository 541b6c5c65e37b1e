"""Check the result line of one ``perfbench/run.py`` run.

Usage::

    python3 .github/scripts/check_perf_result.py OUTPUT_FILE TRACE

The last line of ``OUTPUT_FILE`` must be strict JSON (``NaN`` and
``Infinity`` are rejected), report ``correct: true`` and ``failed: 0``, and
carry in ``metrics`` every metric ``BENCHMARK.json`` names for the mode:
the ``end_to_end`` metrics for ``TRACE`` 0, the ``per_layer`` metrics for
``TRACE`` 1.  Exits 0 when all hold, 1 otherwise.
"""

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def main(argv):
    output, trace = argv[1], argv[2]
    lines = Path(output).read_text(encoding="utf-8").splitlines()
    if not lines:
        print(f"{output}: no output")
        return 1
    try:
        result = json.loads(lines[-1], parse_constant=_reject_constant)
    except ValueError as exc:
        print(f"{output}: last line is not strict JSON: {exc}")
        return 1
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        print(f"{output}: last line is not a result object with metrics")
        return 1
    section = "per_layer" if trace == "1" else "end_to_end"
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())[section]]
    missing = [name for name in names if name not in result["metrics"]]
    print({k: result.get(k) for k in ("correct", "attempted", "failed")})
    if missing:
        print(f"{output}: missing {section} metrics: {', '.join(missing)}")
        return 1
    return 0 if result.get("correct") is True and result.get("failed") == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
