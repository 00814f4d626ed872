"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: ContractError, NumericDomainError and
GenerationError -> 1, FormatError and other I/O failures -> 2, verification
failures -> 3.
"""


class ContractError(ValueError):
    """A caller violated a documented precondition."""


class NumericDomainError(ArithmeticError):
    """A numeric operation left its valid domain (log(<=0), div by 0, NaN/Inf)."""


class FormatError(IOError):
    """A serialized artifact (dataset/checkpoint file) is malformed."""


class GenerationError(RuntimeError):
    """A synthetic data generator exhausted its rejection budget."""
