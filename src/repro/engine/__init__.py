"""Execution engines that run QPlan trees directly: the Volcano interpreter
and the vectorized columnar engine."""
from .vectorized import ColumnBatch, VectorizedEngine
from .volcano import VolcanoEngine, execute

__all__ = ["ColumnBatch", "VectorizedEngine", "VolcanoEngine", "execute"]
