"""Exception hierarchy.

Errors fall into two families: input/definition problems (bad primes,
mismatched fields, elements outside their declared level) and verification
outcomes (a constructed object fails the checks it must satisfy).  The CLI
maps the first family to exit code 3 and the second to exit code 2.
"""


class TameStrataError(Exception):
    """Base class for all library errors."""


# --- input / definition errors ---------------------------------------------

class NotPrime(TameStrataError):
    pass


class ReducibleModulus(TameStrataError):
    pass


class DivisionByZero(TameStrataError, ZeroDivisionError):
    pass


class FieldMismatch(TameStrataError):
    pass


class BadDegree(TameStrataError):
    pass


class NotTame(TameStrataError):
    pass


class RootOfUnityMissing(TameStrataError):
    pass


class NotASubgroup(TameStrataError):
    pass


class BadChain(TameStrataError):
    pass


class TowerMismatch(TameStrataError):
    pass


class NotInLevel(TameStrataError):
    pass


class ZeroToPrecision(TameStrataError):
    pass


class PrecisionExhausted(TameStrataError):
    pass


class NotSplitForm(TameStrataError):
    pass


class BadLevel(TameStrataError):
    pass


class OrderMismatch(TameStrataError):
    pass


class OracleRequired(TameStrataError):
    pass


class TooLarge(TameStrataError):
    pass


class UsageError(TameStrataError):
    """A command line the parser rejects."""


# --- verification outcomes --------------------------------------------------

class VerificationError(TameStrataError):
    """Base for failures of checkable mathematical conditions."""


class NotDecomposable(VerificationError):
    pass


class NotMinimalSummand(VerificationError):
    pass


class ValuationOrder(VerificationError):
    pass


class VerificationFailed(VerificationError):
    pass


class NotNested(VerificationError):
    pass

