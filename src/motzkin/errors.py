"""The `MotzkinError` hierarchy, and `shown`, the one rule for what a
message shows of a caller's value."""

# Longest caller value a message shows in full.
MAX_SHOWN_CHARS = 80


def shown(value) -> str:
    """`value` as a message shows it: in full up to `MAX_SHOWN_CHARS`
    characters (text as its repr, an integer with its sign), past that text
    by its length and an integer by the bound alone.  A longer integer never
    goes through `str()`, so no message trips Python's int-to-str limit."""
    if not isinstance(value, str):
        fits = -10 ** (MAX_SHOWN_CHARS - 1) < value < 10 ** MAX_SHOWN_CHARS
        return str(value) if fits else f"an integer of more than {MAX_SHOWN_CHARS} characters"
    return repr(value) if len(value) <= MAX_SHOWN_CHARS else f"a value of {len(value)} characters"


class MotzkinError(ValueError):
    """Base class for every domain error raised by this package."""


class EmptyInputError(MotzkinError):
    pass


class IllegalCharacterError(MotzkinError):
    def __init__(self, position: int, char: str):
        super().__init__(f"illegal character {char!r} at position {position}")
        self.position = position
        self.char = char


class UnbalancedError(MotzkinError):
    """Parentheses do not balance: `position` is the index, counted from
    one, of the first unmatched ')', or None for an unclosed '('."""

    def __init__(self, position: "int | None"):
        if position is None:
            super().__init__("unbalanced word: unclosed '('")
        else:
            super().__init__(f"unbalanced word: unmatched ')' at position {position}")
        self.position = position


class NotCanonicalError(MotzkinError):
    """A word with leading zeros where a canonical one is required."""


class DomainViolationError(MotzkinError):
    """Arguments outside the defining domain of an operation."""


class RangeTooLargeError(MotzkinError):
    """A request over a size guard: exhaustive enumeration or composition."""


class IntersectsError(MotzkinError):
    """Partial addition hit two non-zero symbols in the same position."""

    def __init__(self, position: int):
        super().__init__(f"operands intersect at position {position}")
        self.position = position


class NestedOperandsError(MotzkinError):
    """Partial addition of operands whose block intervals nest or cross."""


class NotSubwordError(MotzkinError):
    """Subtraction of a symbol the left operand does not carry."""

    def __init__(self, position: int):
        super().__init__(f"right operand is not a subword: mismatch at position {position}")
        self.position = position


class NotTopLevelError(MotzkinError):
    """Subtraction of blocks that are not top-level blocks of the left operand."""


class OverlapError(MotzkinError):
    """Pair spans that cross each other."""


class PositionConflictError(MotzkinError):
    """The same position claimed by more than one bracket."""
