"""Exception types shared across the package, and its one JSON reader.

Everything raised on purpose derives from BiantError so callers (and the CLI)
can distinguish expected failures from bugs.
"""

from __future__ import annotations

import json
from pathlib import Path


class BiantError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(BiantError):
    """A configuration value violates its documented constraints."""


class DuplicateName(BiantError):
    """A vocabulary document lists the same verb or noun twice."""


class EmptyVocabulary(BiantError):
    """A vocabulary document has an empty verb or noun list."""


class UnknownLabel(BiantError):
    """A verb/noun name or index is not part of the bound vocabulary."""


class ParseError(BiantError):
    """An input document or string does not match its schema."""


class InvalidBackwardSplit(BiantError):
    """The reversed observation length leaves no future to predict."""


class ContextOverflow(BiantError):
    """An encoded sequence exceeds the model context length."""


class GrammarViolation(BiantError):
    """A generated token is not admissible in its grammar state."""


class TruncatedOutput(BiantError):
    """A generated emission ended without a terminator."""


class ShapeMismatch(BiantError):
    """Array shapes passed to a numeric op are inconsistent."""


class NumericalDivergence(BiantError):
    """A loss or gradient became non-finite during training."""


class EmptySupport(BiantError):
    """A sampling mask admits no token."""


class EmptyReference(BiantError):
    """A normalized score was requested against an empty reference."""


class EmptyTestSet(BiantError):
    """Evaluation was requested with no anticipation instances."""


class EmptyTrainingSet(BiantError):
    """Training was requested with no anticipation instances."""


class InsufficientVocabulary(BiantError):
    """The vocabulary is too small for the requested scenario."""


def load_json(path: str | Path):
    """Parse a JSON file; undecodable content raises ParseError, a missing
    file stays FileNotFoundError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as err:  # JSONDecodeError, UnicodeDecodeError
            raise ParseError(f"{path}: not valid JSON: {type(err).__name__}: {err}") from err
