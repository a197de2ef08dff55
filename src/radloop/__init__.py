"""Toolkit for grounded-radiology instruction data: task generation,
box-aware augmentation, error-aware curriculum sampling, grounded-output
parsing, union-merge IoU evaluation, and LLM-judge hallucination analysis.
"""

__version__ = "0.4.0"

from .core import (
    AnnotationRecord,
    DataSourceId,
    Finding,
    InstructionInstance,
    NormBox,
    Split,
    Task,
    TaskFamily,
    clamp_box,
    load_records_jsonl,
)
from .errors import RadloopError

__all__ = [
    "AnnotationRecord",
    "DataSourceId",
    "Finding",
    "InstructionInstance",
    "NormBox",
    "RadloopError",
    "Split",
    "Task",
    "TaskFamily",
    "clamp_box",
    "load_records_jsonl",
    "__version__",
]
