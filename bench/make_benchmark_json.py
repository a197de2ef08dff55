"""Write ``BENCHMARK.json`` at the repository root from ``metrics.py``.

Usage: ``python3 bench/make_benchmark_json.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import metrics

RUN_SECONDS = 20


def document() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w, "why": metrics.WORKLOAD_INFO[w]["why"]} for w in metrics.WORKLOADS
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in metrics.END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in metrics.PER_LAYER],
    }


if __name__ == "__main__":
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    path.write_text(json.dumps(document(), indent=2) + "\n", encoding="utf-8")
