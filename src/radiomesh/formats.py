"""The labeling file format.

Graphs are named by (m, n) and built, never read from a file; labelings
are the one thing written and read. A labeling file holds one
``<vertex_id> <label>`` line per vertex, sorted by id, plus a trailing
``# span <S>`` comment that is re-checked on parse; a second span
comment is an error. The parser has two paths. A numpy kernel takes the
layout :func:`format_labeling` writes: ASCII decimal fields of at most
18 digits, ids 0..N-1 in order, spaces or tabs between fields, ``\\n``
line ends, blank lines, and a comment only as the last line.
:func:`read_text` reads with universal newlines, so a ``\\r\\n`` file
read through it qualifies. Any other text (non-ASCII, a sign, an
underscore, a longer number, a ``\\r`` or another line break, a comment
before the last line, ids out of order) and any file that breaks a rule
takes one walk over the lines, which parses it or names its first bad
line.

A file that breaks these rules raises :class:`FormatError`, naming the
offending line when there is one.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .labeling import Labeling


class FormatError(ValueError):
    """The text does not follow the expected file format."""


def _ints(fields: list[str], lineno: int) -> list[int]:
    try:
        return [int(x) for x in fields]
    except ValueError:
        raise FormatError(f"line {lineno}: expected integers, got {' '.join(fields)!r}") from None


def format_labeling(labeling: Labeling) -> str:
    """Labeling file text: one ``<vertex_id> <label>`` line per vertex, then the span comment.

    Written by one ``%`` fill of a ``"%d %d\\n"`` template of N lines.
    """
    labels = labeling.labels
    fields = [0] * (2 * len(labels))
    fields[0::2] = range(len(labels))
    fields[1::2] = labels.tolist()
    return ("%d %d\n" * len(labels)) % tuple(fields) + f"# span {labeling.span}\n"


# longest field the kernel converts: 10**18 - 1 still fits in int64
_MAX_DIGITS = 18


def _parse_in_bulk(text: str) -> tuple[np.ndarray, int | None] | None:
    """Labels by vertex id and declared span, for text laid out as :func:`format_labeling` writes it.

    The kernel: the last line is read once, and if it is a comment it is
    peeled off; the bytes of the rest are checked and converted in a few
    array passes. It takes ASCII text whose other lines are blank or two
    decimal fields of at most :data:`_MAX_DIGITS` digits, between spaces
    and tabs, each line ended by ``\\n``, with ids 0..N-1 in order and
    N >= 1. It returns None for any other text, a malformed span comment,
    a ``#`` before the last line or a ``\\r`` included: the line walk
    then parses the file or names its fault. :func:`read_text` turns
    every ``\\r\\n`` of a file into ``\\n``, so only text handed straight
    to :func:`parse_labeling` holds one.
    """
    if not text.isascii():
        return None
    declared_span = None
    # the last line, read only by the line walk's own rules
    body_end = text.rfind("\n", 0, len(text) - 1) + 1
    last = text[body_end:].splitlines()
    if len(last) == 1 and last[0].lstrip().startswith("#"):
        words = last[0].lstrip()[1:].split()
        if words[:1] == ["span"]:
            try:
                (declared_span,) = map(int, words[1:])
            except ValueError:
                return None  # not exactly one integer after "span"
        text = text[:body_end]
    # newlines at both ends: every field has a non-digit on either side
    body = f"\n{text}\n".encode("ascii")
    data = np.frombuffer(body, dtype=np.uint8)
    digit = data - 48 < 10  # uint8 wraps below "0"
    newlines = np.flatnonzero(data == 10)
    blanks = np.count_nonzero(data == 32) + np.count_nonzero(data == 9)
    if np.count_nonzero(digit) + len(newlines) + blanks != len(data):
        return None  # a character outside the alphabet
    bounds = np.flatnonzero(digit[1:] != digit[:-1]) + 1
    starts, ends = bounds[0::2], bounds[1::2]
    fields_before = np.searchsorted(starts, newlines)
    if ((np.diff(fields_before) | 2) != 2).any():
        return None  # a line with a field count other than 0 or 2
    if not len(starts) or (ends - starts).max() > _MAX_DIGITS:
        return None  # no label line, or a field of more than _MAX_DIGITS digits
    fields = np.fromstring(body, dtype=np.int64, sep=" ")
    vids, labels = fields[0::2], fields[1::2]
    if not np.array_equal(vids, np.arange(len(vids))):
        return None  # ids other than 0..N-1 in order
    return labels, declared_span


def _walk_lines(text: str) -> tuple[list[int], int | None]:
    """Labels by vertex id and declared span, from one pass over the lines.

    The path for text the kernel declines. Raises the error of the
    first line that breaks a line rule, or of the whole file.
    """
    entries: dict[int, int] = {}
    declared_span = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields:
            continue
        if fields[0][0] == "#":
            words = line.lstrip()[1:].split()
            if words[:1] == ["span"]:
                if declared_span is not None:
                    raise FormatError(f"line {lineno}: second span comment")
                if len(words) != 2:
                    raise FormatError(f"line {lineno}: malformed span comment")
                (declared_span,) = _ints(words[1:], lineno)
            continue
        if len(fields) != 2:
            raise FormatError(f"line {lineno}: expected '<vertex_id> <label>'")
        vid, label = _ints(fields, lineno)
        if vid in entries:
            raise FormatError(f"line {lineno}: duplicate vertex id {vid}")
        if label < 0:
            raise FormatError(f"line {lineno}: negative label {label}")
        entries[vid] = label
    if not entries:
        raise FormatError("empty labeling file")
    if min(entries) != 0 or max(entries) != len(entries) - 1:
        raise FormatError("vertex ids must be exactly 0..N-1")
    return [entries[vid] for vid in range(len(entries))], declared_span


def parse_labeling(text: str) -> Labeling:
    """Parse a labeling file, re-checking the span comment when present.

    Line rules: a line is blank, a comment (its first field starts with
    ``#``) or ``<vertex_id> <label>`` with integer fields; every vertex
    id appears once, labels are non-negative, and at most one
    ``# span <S>`` comment is allowed. A file that breaks one raises
    :class:`FormatError` naming the first bad line. The whole file must
    then hold at least one label, ids exactly 0..N-1 and, when declared,
    the true span.

    Text in the writer's layout (see :func:`_parse_in_bulk`) is parsed
    in bulk; anything else, and every file with a fault, takes the line
    walk of :func:`_walk_lines`.
    """
    parsed = _parse_in_bulk(text)
    if parsed is None:
        parsed = _walk_lines(text)
    labels, declared_span = parsed
    labeling = Labeling(labels)
    if declared_span is not None and declared_span != labeling.span:
        raise FormatError(
            f"span comment says {declared_span}, labels span {labeling.span}"
        )
    return labeling


def write_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def read_text(path: str | Path) -> str:
    """The file's UTF-8 text, read with universal newlines: no ``\\r`` is left."""
    return Path(path).read_text(encoding="utf-8")
