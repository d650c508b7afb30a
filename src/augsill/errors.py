"""Exception types shared across the package, and the INI and CSV readers
that turn malformed data files into them.

Two families matter for the CLI exit-code contract: DomainError covers bad
inputs, parameters, or configuration (exit code 2); NumericalError covers
failures that arise while computing (exit code 3).
"""

import configparser
import csv
import io
import math


class DomainError(ValueError):
    """Invalid input, parameter, or configuration."""


class ParameterDomainError(DomainError):
    """Non-finite input or out-of-domain parameter (e.g. steepness <= 0)."""


class DimensionMismatchError(DomainError):
    """Shapes or dimensions disagree."""


class UnsupportedFamilyError(DomainError):
    """Operation not defined for this dictionary family."""


class HypothesisViolationError(DomainError):
    """Evaluation point sits on (or too close to) a center, so the
    off-center hypothesis behind the limit approximations fails."""


class DataError(DomainError):
    """Non-finite or otherwise unusable data."""


class EvaluationWindowError(DomainError):
    """No admissible evaluation windows (trajectories too short)."""


class PoolError(DomainError):
    """Candidate pool unusable (empty, or smaller than requested size)."""


class ConfigError(DomainError):
    """Bad CLI/config-file values."""


class NumericalError(RuntimeError):
    """Numerical failure during an otherwise valid computation."""


class DivergenceError(NumericalError):
    """State exceeded the divergence threshold during integration."""

    def __init__(self, message, step_index=None):
        super().__init__(message)
        self.step_index = step_index


class IntegrationAccuracyError(NumericalError):
    """Quadrature failed to reach the requested accuracy."""


class TrainingDivergedError(NumericalError):
    """Training loss became non-finite."""

    def __init__(self, message, last_finite_epoch=None):
        super().__init__(message)
        self.last_finite_epoch = last_finite_epoch


class RateFitError(NumericalError):
    """Rate fit impossible (non-finite or non-positive errors)."""


class IllConditionedWarning(UserWarning):
    """Lifted data matrix is rank deficient or badly conditioned."""


def parse_ini(text, source):
    """ConfigParser over INI text; text that does not parse as INI raises
    DataError naming source, the file or text it came from."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text, str(source))
    except configparser.Error as exc:
        raise DataError(f"{source}: not a valid INI file: {exc}") from None
    return cp


def read_text(path, newline=None):
    """The contents of one UTF-8 text file, newlines handled as open() does;
    bytes that are not UTF-8 raise DataError naming the file."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None


def read_ini(path):
    """parse_ini over the contents of one UTF-8 file."""
    return parse_ini(read_text(path), path)


def read_csv(path):
    """csv.reader over the rows of one UTF-8 file."""
    return csv.reader(io.StringIO(read_text(path, newline=""), newline=""))


def finite_floats(text):
    """Whitespace-separated finite numbers; ValueError otherwise."""
    values = tuple(float(v) for v in text.split())
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{text!r} is not finite")
    return values


def positive_float(text):
    """One finite number > 0; ValueError otherwise."""
    (value,) = finite_floats(text)
    if value <= 0:
        raise ValueError(f"{text!r} is not > 0")
    return value


def nonnegative_float(text):
    """One finite number >= 0; ValueError otherwise."""
    (value,) = finite_floats(text)
    if value < 0:
        raise ValueError(f"{text!r} is not >= 0")
    return value


def positive_int(text):
    """One integer >= 1; ValueError otherwise."""
    value = int(text)
    if value < 1:
        raise ValueError(f"{text!r} is not >= 1")
    return value


def ini_field(cp, section, key, parse, path):
    """parse() of one field of a parsed INI file; a missing section or field,
    or a value parse() rejects, raises DataError naming the file and field."""
    try:
        return parse(cp[section][key])
    except (KeyError, ValueError, configparser.Error) as exc:
        raise DataError(
            f"{path}: missing or malformed [{section}] {key}: {exc}"
        ) from None
