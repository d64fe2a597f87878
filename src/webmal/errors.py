"""Shared exception hierarchy.

Three broad categories map onto CLI exit codes: bad input data (1),
numerical failure (2), bad configuration (3).
"""


class WebmalError(Exception):
    """Base class for all package errors."""


class InputError(WebmalError):
    """Malformed or insufficient input data."""


class NumericalError(WebmalError):
    """A numerical routine failed to produce a usable result."""


class ConfigError(WebmalError):
    """Invalid run configuration."""


# pld extraction / graph construction

class MalformedRule(InputError):
    pass


class NoHost(InputError):
    pass


class SuffixOnly(InputError):
    pass


class UnknownSuffix(InputError):
    pass


class EmptyInput(InputError):
    pass


# heavy-tail fitting

class InvalidParams(InputError):
    pass


class TooFewPoints(InputError):
    pass


class OptimizerFailure(NumericalError):
    pass


class NoValidCandidate(NumericalError):
    pass


# reputation

class EmptyVector(InputError):
    pass


class MissingVerdict(InputError):
    pass


class EmptyProfile(InputError):
    pass


# dga scoring

class EmptyCorpus(InputError):
    pass


class UntrainedTable(InputError):
    pass


# prediction

class UnknownFeatureSet(ConfigError):
    pass


class KeyMismatch(InputError):
    pass


class TooFewPositives(InputError):
    pass


class SingleClass(InputError):
    pass


class NonFiniteInput(InputError):
    pass


class DimensionMismatch(InputError):
    pass


# synthetic corpora

class InfeasibleSpec(ConfigError):
    pass


# reports

class EmptyData(InputError):
    pass
