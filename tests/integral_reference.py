"""A per-line reference parser for the integral text format.

reference_parse reads a document line by line, as parse_integrals did
before its orbit rules became one array pass: each line is split, checked
rule by rule, canonicalized through the explicit orbit of its index tuple,
and stored or refused before the next line is read.  parse_integrals must
give the same table, or refuse the same line with the same message.
"""

import math

from ionsynth.integrals import (
    IntegralError,
    IntegralParseError,
    IntegralTable,
    SymmetryConflictError,
)

TOL = 1e-12


def _plain(token: str) -> bool:
    return token.isascii() and "_" not in token


def orbit(key: tuple, reality: str) -> list[tuple[tuple, bool]]:
    """(member, conjugating) over the symmetry orbit of a one- or two-body key."""
    conjugating = reality == "complex"
    if len(key) == 2:
        p, q = key
        return [((p, q), False), ((q, p), conjugating)]
    p, q, r, s = key
    members = [((p, q, r, s), False), ((q, p, s, r), False),
               ((r, s, p, q), conjugating), ((s, r, q, p), conjugating)]
    if not conjugating:
        members += [(m, False) for m in ((r, q, p, s), (s, p, q, r), (p, s, r, q), (q, r, s, p))]
    return members


def _set(table: IntegralTable, store: dict, key: tuple, value: complex) -> None:
    """IntegralTable._set on a key already in range: the first entry of an
    orbit is stored at the orbit's least member, conjugated when a conjugating
    member reaches it; a later one must agree with it."""
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise IntegralError(f"value {value!r} is not finite")
    if table.reality == "real" and abs(value.imag) > TOL:
        raise IntegralError("real table cannot hold an imaginary part")
    members = orbit(key, table.reality)
    rep = min(member for member, _ in members)
    flags = {flag for member, flag in members if member == rep}
    if len(flags) == 2 and abs(value.imag) > TOL:
        raise SymmetryConflictError(key, rep, value, value.conjugate())
    at_rep = value.conjugate() if True in flags else value
    if rep in store:
        if abs(store[rep] - at_rep) > TOL:
            raise SymmetryConflictError(key, table._sources[rep], value, store[rep])
        return
    store[rep] = at_rep
    table._sources[rep] = key


def reference_parse(document: str) -> IntegralTable:
    table = None
    constant_seen = False
    lines = document.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if table is None:
            if len(tokens) != 4 or tokens[0] != "norb" or tokens[2] != "reality":
                raise IntegralParseError(
                    line_no, "expected header 'norb <n> reality <real|complex>'")
            try:
                if not _plain(tokens[1]):
                    raise ValueError
                n = int(tokens[1])
            except ValueError:
                raise IntegralParseError(line_no, f"bad mode count {tokens[1]!r}") from None
            if tokens[3] not in ("real", "complex"):
                raise IntegralParseError(line_no, f"bad reality class {tokens[3]!r}")
            if n < 1:
                raise IntegralParseError(line_no, "need at least one mode")
            table = IntegralTable(n, tokens[3])
            continue
        if len(tokens) == 5:
            value_tokens, index_tokens = tokens[:1], tokens[1:]
        elif len(tokens) == 6:
            if table.reality == "real":
                raise IntegralParseError(line_no, "imaginary column in a table declared real")
            value_tokens, index_tokens = tokens[:2], tokens[2:]
        else:
            raise IntegralParseError(line_no, f"expected 5 or 6 fields, found {len(tokens)}")
        bad = next((t for t in tokens if not _plain(t)), None)
        if bad is not None:
            raise IntegralParseError(line_no, f"field {bad!r} is not plain ASCII without '_'")
        try:
            numbers = [float(t) for t in value_tokens]
            indices = [int(t) for t in index_tokens]
        except ValueError as exc:
            raise IntegralParseError(line_no, str(exc)) from None
        value = complex(numbers[0], numbers[1] if len(numbers) == 2 else 0.0)
        p, q, r, s = indices
        if any(i < 0 or i > table.n_modes for i in indices):
            raise IntegralParseError(line_no, f"index outside 1..{table.n_modes}")
        try:
            if p == q == r == s == 0:
                if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                    raise IntegralError(f"value {value!r} is not finite")
                if abs(value.imag) > TOL:
                    raise IntegralError("constant shift must be real")
                if not constant_seen:
                    table.constant = value.real
                    constant_seen = True
                elif abs(table.constant - value.real) > TOL:
                    raise IntegralError(f"conflicting constant {value.real} after {table.constant}")
            elif r == 0 and s == 0:
                if p == 0 or q == 0:
                    raise IntegralError("one-electron entry needs two positive indices")
                _set(table, table._one, (p - 1, q - 1), value)
            elif 0 in indices:
                raise IntegralError("mixed zero and nonzero indices")
            else:
                _set(table, table._two, (p - 1, q - 1, r - 1, s - 1), value)
        except IntegralError as exc:
            raise IntegralParseError(line_no, str(exc)) from None
    if table is None:
        raise IntegralParseError(max(len(lines), 1), "empty document, missing header line")
    return table
