"""Exception types shared across the package, the one reader of input files
(its every refusal a ParseError naming the file), the readers of a saved
dataset's digest and array image (each None where it cannot read), the one
reader of an integer written as text, and the config checker: each field of
a :class:`Schema` dataclass declares its rule next to it."""

import hashlib
import json
import math
import operator
import os
import zipfile
from dataclasses import MISSING, field, fields
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np


class SplitGnnError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(SplitGnnError):
    """Operand shapes do not conform."""


class DomainError(SplitGnnError):
    """An input value is outside the operation's domain."""


class ContractError(SplitGnnError):
    """A caller violated an operation's contract (wrong usage, not bad data)."""


class ParseError(SplitGnnError):
    """An input file could not be read or parsed; the message starts with its path."""


def open_text(path):
    """``path`` opened as UTF-8 text, each byte that is not UTF-8 kept as a
    lone surrogate; a file that cannot be opened is a ParseError naming it."""
    try:
        return open(path, encoding="utf-8", errors="surrogateescape")
    except (FileNotFoundError, ValueError):  # a path holding NUL names no file
        raise ParseError(f"{path}: missing file") from None
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from None


def text_lines(path):
    """``(line number, line)`` of :func:`open_text`'s file; the first line
    holding a byte that is not UTF-8 (kept as a surrogate, which does not
    encode) is a ``path:line`` ParseError."""
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii() and line.encode("utf-8", "ignore").decode() != line:
                raise ParseError(f"{path}:{lineno}: not valid UTF-8")
            yield lineno, line


def read_json(path):
    """The value of a JSON file, read by :func:`text_lines`; JSON that does
    not parse is a ``path:line:col`` ParseError."""
    try:
        return json.loads("".join(line for _, line in text_lines(path)))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None


# the bytes file_digest reads at a time
DIGEST_CHUNK = 1 << 20


def file_digest(paths) -> str | None:
    """The SHA-256, in hex, of the files ``paths`` names, in order: each
    file's name, its length and its bytes, read ``DIGEST_CHUNK`` at a time.
    None when a file cannot be opened or read, or changes length while it
    is read."""
    digest = hashlib.sha256()
    try:
        for path in paths:
            with open(path, "rb") as fh:
                name, size = os.fsencode(Path(path).name), os.fstat(fh.fileno()).st_size
                digest.update(len(name).to_bytes(8, "little") + name
                              + size.to_bytes(8, "little"))
                while chunk := fh.read(DIGEST_CHUNK):
                    digest.update(chunk)
                    size -= len(chunk)
            if size:
                return None
    except (OSError, ValueError):  # a path holding NUL names no file
        return None
    return digest.hexdigest()


def read_arrays(path) -> dict[str, np.ndarray] | None:
    """The arrays of the ``np.savez`` file at ``path``, by name; None when
    it is missing, truncated, corrupt, holds pickled objects or is not an
    ``.npz`` archive."""
    try:
        with np.load(path, allow_pickle=False) as image:
            return {name: image[name] for name in image.files}
    # TypeError: a lone .npy array, which ``with`` cannot enter
    except (OSError, ValueError, EOFError, TypeError, zipfile.BadZipFile):
        return None


def canonical_int(text: str) -> int | None:
    """The int ``n`` for which ``str(n) == text``, else None: an optional
    ``-``, then ASCII digits with no leading zero.  ``-0``, ``+1``, ``01``,
    ``1_0``, whitespace, non-ASCII digits and the empty string are refused,
    so no integer has two spellings, and so is a digit string past the
    interpreter's limit, which ``str`` cannot write."""
    # unsigned first, with no slice: a dataset's every class index comes here
    if (text.isdigit() and text.isascii() and (text[0] != "0" or text == "0")
            or text[:1] == "-" and text[1:].isdigit() and text[1:].isascii() and text[1] != "0"):
        try:
            return int(text)
        except ValueError:   # longer than sys.get_int_max_str_digits()
            return None
    return None


class ConfigError(SplitGnnError):
    """An invalid configuration value or combination."""


class GraphSchemaError(SplitGnnError):
    """A graph element is inconsistent with the graph's schema."""


class ProtocolError(SplitGnnError):
    """A split-session message or state transition broke the protocol."""


class RoleError(SplitGnnError):
    """An operation was attempted by a party lacking the required role."""


class NumericError(SplitGnnError):
    """A numeric failure (NaN/Inf) that must abort the current round."""


class CryptoError(SplitGnnError):
    """Key generation or ciphertext handling failed."""


# ---------------------------------------------------------------------------
# config schemas: each dataclass field declares its rule next to it


class Rule(NamedTuple):
    """What a field's value must be: ``want`` words it for the error and ``ok``
    tests it; the ``ok`` of a nested spec raises that spec's own ConfigError."""

    want: str
    ok: Callable[[object], bool]


def checked(rule: Rule, default=MISSING, *, factory=MISSING):
    """A field of a :class:`Schema` dataclass, held to ``rule``."""
    return field(default=default, default_factory=factory, metadata={"rule": rule})


_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


def _bounded(kind: str, is_kind, *bounds: str) -> Rule:
    """``is_kind`` values within every bound, such as ``">= 0"`` and ``"< 1"``."""
    tests = [(_COMPARE[op], float(limit)) for op, limit in map(str.split, bounds)]
    return Rule(" ".join([kind, " and ".join(bounds)]).rstrip(),
                lambda x: is_kind(x) and all(op(x, limit) for op, limit in tests))


integer = partial(_bounded, "an integer", lambda x: type(x) is int)
number = partial(_bounded, "a finite number",
                 lambda x: type(x) is int or type(x) is float and math.isfinite(x))


def choice(options) -> Rule:
    options = tuple(options)   # of one type: 512.0 is no key size
    return Rule(f"one of {options}", lambda x: type(x) is type(options[0]) and x in options)


def optional(rule: Rule) -> Rule:
    return Rule(f"null or {rule.want}", lambda x: x is None or rule.ok(x))


def list_of(rule: Rule) -> Rule:
    return Rule(f"a non-empty list, each {rule.want}",
                lambda x: type(x) is list and len(x) > 0 and all(map(rule.ok, x)))


BOOL = Rule("true or false", lambda x: type(x) is bool)
TEXT = Rule("a non-empty string", lambda x: type(x) is str and x != "")


class Schema:
    """Base of a dataclass whose fields declare their rules with
    :func:`checked`: it holds every field to its rule as it is built."""

    def __post_init__(self):
        for f in fields(self):
            rule, value = f.metadata["rule"], getattr(self, f.name)
            try:
                ok = rule.ok(value)
            except ConfigError as exc:
                raise ConfigError(f"{f.name}: {exc}") from None
            if not ok:
                raise ConfigError(f"{f.name}: must be {rule.want}, got {value!r}")

    @classmethod
    def from_json(cls, payload):
        """The instance a JSON object describes: it names only fields, and
        every field without a default."""
        if type(payload) is not dict:
            raise ConfigError(f"must be a JSON object, got {payload!r}")
        for f in fields(cls):
            if f.name not in payload and f.default is f.default_factory is MISSING:
                raise ConfigError(f"{f.name}: required")
        names = {f.name for f in fields(cls)}
        for key in payload:
            if key not in names:
                raise ConfigError(f"{key}: no such field")
        return cls(**payload)
