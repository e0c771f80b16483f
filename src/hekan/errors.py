"""Exception types shared across the package. A type's base class is its
category (``UsageError``, ``NumericalFailure``, or plain ``HeKanError`` for
a broken internal invariant), and ``hekan.cli`` maps categories to exit codes.
"""


class HeKanError(Exception):
    """Base class for all library errors."""


class UsageError(HeKanError):
    """The caller's input is wrong: an argument, file, model or input the
    library rejects before computing."""


class NumericalFailure(HeKanError):
    """The input was accepted but the computation failed numerically."""


class InvalidArgument(UsageError, ValueError):
    """An argument outside its domain: a negative degree, an empty
    interval, a grid with g < 1 or k < 0, no target column."""


# --- SIMD backend ---

class LengthMismatch(HeKanError):
    """Operand slot vectors have different lengths or belong to different backends."""


class DepthExhausted(HeKanError):
    """A multiplication would drive the remaining level below zero."""


class InputTooLong(HeKanError):
    """Vector to encrypt exceeds the slot count."""


# --- polynomial approximation ---

class EmptySamples(UsageError):
    """Range estimation called with no samples."""


class IllConditioned(NumericalFailure):
    """The least-squares normal system is numerically singular."""


class RemezNonConvergence(NumericalFailure):
    """Remez exchange failed to level the error within the iteration cap."""


class InputOutOfRange(UsageError):
    """A value outside its grid's [-R, R]: a layer's input (the range
    contract, KanModel.check_input_range) or a knot (GridMatrix)."""


# --- B-spline machinery ---

class PackingOverflow(UsageError):
    """Repeat packing does not fit in the available slots."""


class IndexOutOfRange(HeKanError):
    """Column selection outside the grid matrix bounds."""


class InsufficientKnots(HeKanError):
    """Knot vector too short for the requested spline degree."""


class DimensionMismatch(UsageError):
    """Matrix/vector shapes incompatible."""


# --- model ---

class SingularSystem(NumericalFailure):
    """Layer fit produced a singular system (grid too fine for the data)."""


class SchemaMismatch(UsageError):
    """Model JSON does not match the expected schema."""


class CorruptFile(UsageError):
    """Model file is not parseable."""


class ShapeMismatch(UsageError):
    """Input tensor shape disagrees with the model."""


class NonFiniteInput(UsageError):
    """Input to encrypt, a grid's knots or R, or a layer's weights hold
    NaN or infinity."""


# --- inference ---

class UnsupportedLayer(UsageError):
    """Layer the encrypted pipeline cannot evaluate (spline degree k = 0)."""


class NonFiniteOutput(NumericalFailure):
    """A decrypted output holds NaN or infinity: the encrypted computation
    diverged (e.g. under backend noise far above the data's precision)."""


class DepthBudgetInfeasible(HeKanError):
    """Planned depth exceeds the available budget.

    Carries the per-stage breakdown so callers can report which stage
    exhausts the budget.
    """

    def __init__(self, message, plan=None):
        super().__init__(message)
        self.plan = plan
