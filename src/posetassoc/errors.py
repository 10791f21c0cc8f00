"""Exception types for the package.

Class names double as machine-readable error codes in CLI output, so they
stay in CamelCase noun form.
"""


class DomainError(Exception):
    """Base class for every input or domain error raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


class MalformedInput(DomainError):
    """Input text or structure does not match the documented schema."""


class DuplicateElement(DomainError):
    """An element label appears more than once."""


class UnknownElement(DomainError):
    """A relation or subset references a label that was never declared."""


class CyclicRelation(DomainError):
    """The transitive closure of the given relations is not irreflexive."""


class EmptyComposition(DomainError):
    """A composition needs at least one part."""


class ElementNotFound(DomainError):
    """The named element is not in the poset."""


class LabelClash(DomainError):
    """Two posets being combined share element labels."""


class NotAutonomous(DomainError):
    """The given subset is not autonomous in the poset."""


class DisconnectedPoset(DomainError):
    """Operation requires a poset whose Hasse diagram is connected."""


class TooSmall(DomainError):
    """Operation requires at least two elements."""


class NotATubing(DomainError):
    """The given tube collection is not a proper tubing."""


class StructureViolation(DomainError):
    """Internal consistency check failed; indicates a bug, not bad input."""


class PosetTooLarge(DomainError):
    """Enumeration refused without --force; the poset exceeds the size guard."""
