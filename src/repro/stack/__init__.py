"""The DSL-stack machinery: languages, transformations, principles, pipelines."""
from .context import CompilationContext, OptimizationFlags
from .language import (ALL_LANGUAGES, C_PY, Language, LanguageError, QMONAD, QPLAN,
                       SCALITE, SCALITE_LIST, SCALITE_MAP_LIST)
from .pipeline import CompilationResult, DslStack, PhaseResult, StackValidationError
from .transformation import (FixpointReport, FunctionOptimization, Lowering,
                             Optimization, Transformation, TransformationError,
                             apply_fixpoint)

__all__ = [
    "CompilationContext", "OptimizationFlags",
    "ALL_LANGUAGES", "C_PY", "Language", "LanguageError", "QMONAD", "QPLAN",
    "SCALITE", "SCALITE_LIST", "SCALITE_MAP_LIST",
    "CompilationResult", "DslStack", "PhaseResult", "StackValidationError",
    "FixpointReport", "FunctionOptimization", "Lowering", "Optimization",
    "Transformation", "TransformationError", "apply_fixpoint",
]
