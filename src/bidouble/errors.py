"""Exception hierarchy shared by all bidouble modules.

Input-side problems derive from DomainError (a ValueError): the caller gave
us a triple, a lattice, or a search request that violates a precondition.
ConsistencyError is different in kind: it means two independent computation
routes that must agree did not, i.e. an implementation bug, never a user
error.  The CLI maps DomainError to exit code 2 and ConsistencyError to 3.
Messages quote numbers through ``number_text``, and triples through
``tuple_text``, which name a number of more than 30 digits by its digit
count, so that a huge input ends in one short line.
"""

from math import log10

SHOWN_LIMIT = 10**30  # numbers from here on are named by their digit count


def number_text(value) -> str:
    """``value`` in decimal, or ``<a number of N digits>`` past 30 digits;
    a value that is no integer is written as its ``repr``."""
    if not isinstance(value, int):
        return repr(value)
    size = abs(value)
    if size < SHOWN_LIMIT:
        return str(value)
    exponent = int(log10(size))  # the float can be one off near a power of ten
    exponent += (size >= 10 ** (exponent + 1)) - (size < 10**exponent)
    return f"<a number of {exponent + 1} digits>"


def tuple_text(values) -> str:
    """``values`` written as a tuple, each through ``number_text``."""
    return f"({', '.join(map(number_text, values))})"


class DomainError(ValueError):
    """Invalid input: a precondition on the arguments does not hold."""


class ShapeError(DomainError):
    """Coordinate vector length does not match the ambient lattice rank."""


class ParityError(DomainError):
    """Branch degrees of mixed parity (cf. Def. 2.7)."""


class DisconnectedError(DomainError):
    """Two or more zero branch degrees: the cover would be disconnected."""


class ExcludedCaseError(DomainError):
    """Input lies in a case the rank-two recipe explicitly excludes."""


class ConsistencyError(RuntimeError):
    """Two routes that must agree disagreed.  Always an implementation bug."""
