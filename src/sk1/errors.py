"""Exception types shared across the package."""


class Sk1Error(Exception):
    """Base class for all errors raised by this package."""


class NonOddPrime(Sk1Error):
    """The prime parameter is not an odd prime."""


class NotPPower(Sk1Error):
    """A cyclic factor order is not a positive power of the prime."""


class TooLarge(Sk1Error):
    """A resource guard tripped before an exhaustive computation."""


class BadParams(Sk1Error):
    """Parameters lie outside the domain of a closed-form formula."""


class DomainViolation(Sk1Error):
    """An element lies outside the centralizer it was required to belong to."""
