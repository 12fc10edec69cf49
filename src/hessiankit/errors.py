"""Exception types shared across the toolkit."""


class ArgumentError(ValueError):
    """An input fails structural validation (shape, range, type)."""


class DomainError(ValueError):
    """An input is structurally fine but lies outside the mathematical
    domain of the operation (e.g. an eigenvalue vector outside the cone)."""


class ExtrapolationError(DomainError):
    """A curve was queried beyond the interval it is defined on."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to meet the requested tolerance.

    Carries the achieved absolute error estimate in ``achieved``.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


def spec_number(text: str, spec: str) -> float:
    """The number ``text`` read from the input spec ``spec``.

    A malformed number raises :class:`ArgumentError` naming the spec, so the
    command line reports a usage error instead of a traceback.
    """
    try:
        return float(text)
    except ValueError:
        raise ArgumentError(f"{spec!r}: {text!r} is not a number") from None
