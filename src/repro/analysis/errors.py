"""The error type shared by every verifier of the analysis package."""
from __future__ import annotations

from typing import Optional


class VerificationError(Exception):
    """A verifier rejected a program (or generated source).

    Attributes:
        check: which verifier fired (``"scope"``, ``"types"``, ``"effects"``,
            ``"language"``, ``"codelint"``, ``"plan"``, ``"fixpoint"``).
        phase: the transformation / pipeline phase that produced the program,
            when known — this is the attribution that turns "query Q19 is
            wrong" into "``dce[ScaLite]`` dropped a live binding".
        binding: the offending symbol / name, when the failure is about one.
    """

    def __init__(self, message: str, *, check: str = "verifier",
                 phase: Optional[str] = None,
                 binding: Optional[str] = None) -> None:
        self.check = check
        self.phase = phase
        self.binding = binding
        self.detail = message
        parts = [f"[{check}]"]
        if phase:
            parts.append(f"after {phase}:")
        parts.append(message)
        if binding:
            parts.append(f"(binding: {binding})")
        super().__init__(" ".join(parts))

    def with_phase(self, phase: str) -> "VerificationError":
        """A copy of this error attributed to ``phase`` (if not already)."""
        if self.phase is not None:
            return self
        return VerificationError(self.detail, check=self.check, phase=phase,
                                 binding=self.binding)
