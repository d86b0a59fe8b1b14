"""Diagnostic records and error types shared across all modules."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"
    ADVISORY = "advisory"


@dataclass(frozen=True)
class Diagnostic:
    severity: Severity
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity.value}: [{self.code}] {self.message}"


def error(code: str, message: str) -> Diagnostic:
    return Diagnostic(Severity.ERROR, code, message)


def warning(code: str, message: str) -> Diagnostic:
    return Diagnostic(Severity.WARNING, code, message)


def advisory(code: str, message: str) -> Diagnostic:
    return Diagnostic(Severity.ADVISORY, code, message)


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diagnostics)


class HdceError(Exception):
    """Base class for all library errors: main() prints its diagnostics and exits with its exit_status."""

    code = "invalid-input"  # the class defaults, which a raise site may override
    exit_status = 1

    def __init__(self, message: str, *, code: str | None = None, exit_status: int | None = None):
        super().__init__(message)
        self.code, self.exit_status = code or self.code, exit_status or self.exit_status
        self.diagnostics = [error(self.code, message)]


class InputFormatError(HdceError):
    """Malformed input file or record (schema violation, bad CSV row, ...)."""

    code = "input-format"


class EmptyInputError(InputFormatError):
    """An input file with no usable content; surfaced as a usage error."""

    code = "empty-input"
    exit_status = 2


class ModelValidationError(HdceError):
    """An operation was invoked on a model or characterization that fails validation."""

    def __init__(self, diagnostics: list[Diagnostic]):
        summary = "; ".join(str(d) for d in diagnostics if d.severity is Severity.ERROR)
        super().__init__(summary or "validation failed")
        self.diagnostics = list(diagnostics)
