"""Exception types shared across the package."""


class HeKanError(Exception):
    """Base class for all library errors."""


# --- SIMD backend ---

class LengthMismatch(HeKanError):
    """Operand slot vectors have different lengths or belong to different backends."""


class DepthExhausted(HeKanError):
    """A multiplication would drive the remaining level below zero."""


class InputTooLong(HeKanError):
    """Vector to encrypt/encode exceeds the slot count."""


# --- polynomial approximation ---

class EmptySamples(HeKanError):
    """Range estimation called with no samples."""


class IllConditioned(HeKanError):
    """The least-squares normal system is numerically singular."""


class RemezNonConvergence(HeKanError):
    """Remez exchange failed to level the error within the iteration cap."""


class InputOutOfRange(HeKanError):
    """Debug check: comparator input outside its certified range."""


# --- B-spline machinery ---

class PackingOverflow(HeKanError):
    """Repeat packing does not fit in the available slots."""


class IndexOutOfRange(HeKanError):
    """Column selection outside the grid matrix bounds."""


class InsufficientKnots(HeKanError):
    """Knot vector too short for the requested spline degree."""


class DimensionMismatch(HeKanError):
    """Matrix/vector shapes incompatible."""


# --- model ---

class SingularSystem(HeKanError):
    """Layer fit produced a singular system (grid too fine for the data)."""


class SchemaMismatch(HeKanError):
    """Model JSON does not match the expected schema."""


class CorruptFile(HeKanError):
    """Model file is not parseable."""


class ShapeMismatch(HeKanError):
    """Input tensor shape disagrees with the model."""


class NonFiniteInput(HeKanError):
    """Input to encrypt, or a grid's knots or R, holds NaN or infinity."""


# --- inference ---

class UnsupportedLayer(HeKanError):
    """Layer the encrypted pipeline cannot evaluate (spline degree k = 0)."""


class NonFiniteOutput(HeKanError):
    """A decrypted output holds NaN or infinity: the encrypted computation
    diverged (e.g. the composite comparator under backend noise)."""


class DepthBudgetInfeasible(HeKanError):
    """Planned depth exceeds the available budget.

    Carries the per-stage breakdown so callers can report which stage
    exhausts the budget.
    """

    def __init__(self, message, plan=None):
        super().__init__(message)
        self.plan = plan
