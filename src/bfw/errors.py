"""Exception types shared across the workbench."""


class BfwError(Exception):
    """Base class for workbench errors."""


class FamilyMismatchError(BfwError):
    """A label or point was used with a dual object of a different group family."""


class WeightSpecError(BfwError):
    """Invalid weight recipe (bad grammar or out-of-range parameter)."""


class LabelCapError(BfwError):
    """A label scan grew past the configured cap."""

    def __init__(self, cap, size):
        self.cap = cap
        self.size = size
        super().__init__(f"label support of size {size} exceeded cap {cap}")


class WeightOverflowError(BfwError):
    """A weight value overflowed the floating-point range."""


class UnsupportedBranchingError(BfwError):
    """The requested subgroup/quotient pair is not implemented."""


class IntertwinerSynthesisError(BfwError):
    """Numerical construction of an intertwiner failed its residual checks."""


class QuadratureConvergenceError(BfwError):
    """Coefficients did not agree across a grid refinement."""

    def __init__(self, coarse, fine, deviation):
        self.coarse = coarse
        self.fine = fine
        self.deviation = deviation
        super().__init__(f"quadrature deviation {deviation:.3e} across refinement")


class InsufficientCutoffError(BfwError):
    """A coefficient truncation left too much mass outside the cutoff."""

    def __init__(self, defect, cutoff):
        self.defect = defect
        self.cutoff = cutoff
        super().__init__(f"tail mass {defect:.3e} outside cutoff {cutoff}")
