"""Exception types shared across the package."""


class Sk1Error(Exception):
    """Base class for all errors raised by this package."""


class NonOddPrime(Sk1Error):
    """The prime given to ``make_group`` is not an odd prime."""


class NotPPower(Sk1Error):
    """A cyclic factor order given to ``make_group`` is not an integer
    positive power of the prime."""


class TooLarge(Sk1Error):
    """A resource guard tripped before an exhaustive computation."""


class BadParams(Sk1Error):
    """Parameters lie outside the domain of a closed-form formula or of
    ``make_metacyclic``: p is not an odd prime, or n, i or m is not an
    integer in range."""


class DomainViolation(Sk1Error):
    """An element lies outside the centralizer it was required to belong to."""
