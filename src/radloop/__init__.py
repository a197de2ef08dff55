"""Toolkit for grounded-radiology instruction data: task generation,
box-aware augmentation, error-aware curriculum sampling, grounded-output
parsing, union-merge IoU evaluation, and LLM-judge hallucination analysis.
The names below load their module at first use (PEP 562), not at import.
"""

import importlib

__version__ = "0.24.0"

_EXPORTS = {
    **dict.fromkeys(("AnnotationRecord", "DataSourceId", "Finding", "InstructionInstance",
                     "NormBox", "Split", "Task", "TaskFamily", "clamp_box",
                     "load_records_jsonl"), "core"),
    "RadloopError": "errors",
}

__all__ = [*_EXPORTS, "__version__"]


def main() -> None:
    """The ``radloop`` script: run ``radloop.cli`` as ``__main__``, so it parses, then imports."""
    import runpy
    runpy.run_module("radloop.cli", run_name="__main__", alter_sys=True)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
