"""Exception hierarchy for the toolkit.

Every error that names concrete offending data carries it as attributes, so
callers (and the CLI) can render diagnostics without parsing messages.
"""


class ToposError(Exception):
    """Base class for all toolkit errors."""


# --- category / presheaf construction ---------------------------------------

class IllTypedComposite(ToposError):
    def __init__(self, g, f, result, reason):
        self.g, self.f, self.result, self.reason = g, f, result, reason
        super().__init__(f"composite {g}*{f} = {result}: {reason}")


class IdentityViolation(ToposError):
    def __init__(self, identity, morphism, side, result):
        self.identity, self.morphism, self.side, self.result = identity, morphism, side, result
        super().__init__(
            f"identity law broken: {side} composition of {identity} with "
            f"{morphism} gives {result}")


class AssociativityViolation(ToposError):
    def __init__(self, h, g, f, left, right):
        self.h, self.g, self.f, self.left, self.right = h, g, f, left, right
        super().__init__(
            f"associativity broken on ({h},{g},{f}): ({h}*{g})*{f} = {left} "
            f"but {h}*({g}*{f}) = {right}")


class UnknownObject(ToposError):
    pass


class UnknownMorphism(ToposError):
    pass


class ElementNotInCarrier(ToposError):
    pass


class NonRepresentableSource(ToposError):
    pass


class NotParallel(ToposError):
    pass


class FunctorialityViolation(ToposError):
    pass


class NaturalityViolation(ToposError):
    pass


class BudgetExceeded(ToposError):
    """An enumeration would exceed the configured size budget."""

    def __init__(self, size, cap, what="representable carrier"):
        self.size, self.cap, self.what = size, cap, what
        super().__init__(f"{what} has size {size}, exceeding the budget {cap}")


# --- classifier-level operations ---------------------------------------------

class SiteMismatch(ToposError):
    pass


class ObjectMismatch(ToposError):
    pass


# --- groups -------------------------------------------------------------------

class NotAGroup(ToposError):
    pass


class NotASubgroup(ToposError):
    pass


class NotACongruenceOfSubgroupForm(ToposError):
    """The identity block of a congruence on a group site is not a subgroup.

    No element of Xi is such a partition, but `RepCongruence.from_labels` can build one.
    """


# --- internal filters ----------------------------------------------------------

class FilterViolation(ToposError):
    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class NotSubpresheaf(FilterViolation):
    pass


class NotUpwardClosed(FilterViolation):
    pass


class MissingTop(FilterViolation):
    pass


class NotMeetClosed(FilterViolation):
    pass


# --- words / automata -----------------------------------------------------------

class RegexSyntaxError(ToposError):
    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at index {position})")


class SymbolOutsideAlphabet(ToposError):
    def __init__(self, symbol, alphabet, position=None):
        self.symbol, self.alphabet, self.position = symbol, tuple(alphabet), position
        at = f" at index {position}" if position is not None else ""
        super().__init__(f"symbol {symbol!r}{at} not in alphabet {''.join(alphabet)!r}")


class UnknownState(ToposError):
    pass


class AlphabetMismatch(ToposError):
    pass


# --- file ingestion ---------------------------------------------------------------

class InputFormatError(ToposError):
    """Malformed input file; `details` lists the individual problems."""

    def __init__(self, message, details=()):
        self.details = list(details)
        super().__init__(message)
