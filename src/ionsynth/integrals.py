"""Electronic-integral tables with symmetry-canonical storage.

A table keeps one value per permutation-symmetry orbit and answers lookups
for any index order, conjugating where Hermiticity demands it.  Complex
tables close each two-electron entry over the four-element group
h(p,q,r,s) = h(q,p,s,r) = h(r,s,p,q)* = h(s,r,q,p)*; real tables add the
four transpositions h(r,q,p,s) = h(s,p,q,r) = h(p,s,r,q) = h(q,r,s,p).

The text format understood by parse_integrals:

    norb <n> reality <real|complex>
    <re> [<im>] p q r s

with 1-based indices, r = s = 0 marking a one-electron entry and all four
indices zero marking the constant shift.  The <im> column is only legal in
complex tables.  Blank lines and text after '#' are ignored.  The count and
every value and index are plain ASCII without '_': int() and float() would
also read '1_2' as 12 and non-ASCII digits as ASCII ones.

parse_integrals checks each line's fields, tokens, indices and value as it
reads it and keeps each entry's line number, indices and value in flat array
columns, one set for one-body and one for two-body entries.  It then runs
the orbit rules of set_one_body and set_two_body (an imaginary part on a
self-conjugate orbit, a repeat that disagrees with the first entry of its
orbit) in one array pass over all the entries, through _least_codes, the
orbit helper term_list uses too.  The first failing line wins, refused with
the message a line-by-line read gives; the table keeps each orbit's first
entry, as set_one_body and set_two_body would.

term_list keeps the order of a loop over all n^4 lookups, because float
addition is not associative: any other order could move a summed coefficient,
and with it a serialized angle, by its last bit.  Its two-body part is one
numpy pass over every index tuple in index order.  Each tuple finds its value
through its orbit representative, the least member code, conjugated as a
lookup would; its two quartic calls are laid out tuple by tuple, first call
then second, and np.bincount adds each term's coefficients one after another
in that order.  The one-body terms and the quartic totals go to the
HamiltonianTerms constructor, which merges, drops and orders them.  So every
coefficient is the same float sum, operand for operand, as the loop's, and
the result is bit-identical to it.
"""

import itertools
from array import array
from importlib import resources

import numpy as np

from .circuit import _unplain
from .fermion import (
    _DROP_EPS, HamiltonianTerms, _code_digits, _digit_codes, _quartic_terms, density_term, single,
)
from .pauli import _complex, _index, _real

__all__ = [
    "IntegralError",
    "IntegralParseError",
    "SymmetryConflictError",
    "IntegralTable",
    "parse_integrals",
    "term_list",
    "h3plus_table",
    "h3plus_builtin",
]

_CONFLICT_TOL = 1e-12


class IntegralError(Exception):
    """Bad table construction or lookup."""


class IntegralParseError(IntegralError):
    """Malformed integral document; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SymmetryConflictError(IntegralError):
    """Two entries in the same symmetry orbit disagree."""

    def __init__(self, new_key, old_key, new_value, old_value):
        super().__init__(
            f"entry {new_key} with value {new_value} conflicts with the "
            f"symmetry-equivalent entry {old_key} holding {old_value}"
        )
        self.new_key = new_key
        self.old_key = old_key


def _one_body_orbit(key, reality):
    p, q = key
    return (((p, q), False), ((q, p), reality == "complex"))


def _two_body_orbit(key, reality):
    p, q, r, s = key
    conjugating = reality == "complex"
    members = (((p, q, r, s), False), ((q, p, s, r), False),
               ((r, s, p, q), conjugating), ((s, r, q, p), conjugating))
    if conjugating:
        return members
    return members + tuple(
        (k, False) for k in ((r, q, p, s), (s, p, q, r), (p, s, r, q), (q, r, s, p))
    )


def _canonical(orbit):
    """Lexicographic minimum of the orbit and the flags that reach it.

    A flag pair {False, True} on the representative means the orbit relates
    the entry to its own conjugate, which pins the value to the real axis.
    """
    rep = min(k for k, _ in orbit)
    flags = frozenset(f for k, f in orbit if k == rep)
    return rep, flags


class IntegralTable:
    """One- and two-electron coefficients stored by orbit representative.

    Instances are filled once and treated as immutable afterwards; lookups
    are pure and safe to share across threads.
    """

    def __init__(self, n_modes: int, reality: str, constant: float = 0.0):
        if reality not in ("real", "complex"):
            raise IntegralError(f"unknown reality class {reality!r}")
        n = _index(n_modes, "mode count", IntegralError)
        if n < 1:
            raise IntegralError("need at least one mode")
        self.n_modes = n
        self.reality = reality
        self.constant = _real(constant, "constant", IntegralError)
        self._one: dict[tuple, complex] = {}
        self._two: dict[tuple, complex] = {}
        # original input tuple per representative, for conflict messages
        self._sources: dict[tuple, tuple] = {}

    def _check_modes(self, key) -> tuple[int, ...]:
        """key as ints, each a mode of this table.  A bool or a float is
        refused, not truncated: 2.5 would store or read the entry of mode 2."""
        return tuple([_index(m, "mode", IntegralError, self.n_modes) for m in key])

    def _set(self, store, key, value, orbit) -> None:
        value = _complex(value, "value", IntegralError)
        key = self._check_modes(key)
        if self.reality == "real" and abs(value.imag) > _CONFLICT_TOL:
            raise IntegralError("real table cannot hold an imaginary part")
        rep, flags = _canonical(orbit(key, self.reality))
        if len(flags) == 2 and abs(value.imag) > _CONFLICT_TOL:
            raise SymmetryConflictError(key, rep, value, value.conjugate())
        at_rep = value.conjugate() if True in flags else value
        if rep in store:
            if abs(store[rep] - at_rep) > _CONFLICT_TOL:
                raise SymmetryConflictError(
                    key, self._sources[rep], value, store[rep]
                )
            return
        store[rep] = at_rep
        self._sources[rep] = key

    def _lookup(self, store, key, orbit) -> complex:
        key = self._check_modes(key)
        rep, flags = _canonical(orbit(key, self.reality))
        value = store.get(rep, 0j)
        return value.conjugate() if flags == {True} else value

    def set_one_body(self, p: int, q: int, value) -> None:
        self._set(self._one, (p, q), value, _one_body_orbit)

    def set_two_body(self, p: int, q: int, r: int, s: int, value) -> None:
        self._set(self._two, (p, q, r, s), value, _two_body_orbit)

    def one_body_value(self, p: int, q: int) -> complex:
        return self._lookup(self._one, (p, q), _one_body_orbit)

    def two_body_value(self, p: int, q: int, r: int, s: int) -> complex:
        return self._lookup(self._two, (p, q, r, s), _two_body_orbit)

    def __repr__(self) -> str:
        """The constructor's arguments, then each stored orbit's representative,
        in sorted order, with the value that set_one_body / set_two_body takes
        to store it: the stored value, conjugated in a self-conjugate orbit.
        Setting the listed entries on a new table rebuilds this one."""

        def entries(store, orbit) -> str:
            out = []
            for rep in sorted(store):
                _, flags = _canonical(orbit(rep, self.reality))
                value = store[rep].conjugate() if True in flags else store[rep]
                # complex(re, im) reads back exactly; the repr of 0.5-0j does not.
                out.append(f"{rep}: complex({value.real!r}, {value.imag!r})")
            return "{" + ", ".join(out) + "}"

        return (f"IntegralTable({self.n_modes}, {self.reality!r}, {self.constant!r}, "
                f"one_body={entries(self._one, _one_body_orbit)}, "
                f"two_body={entries(self._two, _two_body_orbit)})")

    @property
    def one_body(self):
        """Read-only view of the stored one-electron representatives."""
        return dict(self._one)

    @property
    def two_body(self):
        """Read-only view of the stored two-electron representatives."""
        return dict(self._two)


def _least_codes(n: int, orbit, reality: str, key) -> tuple:
    """The least code (the digits in base n, fermion._digit_codes) of a plain
    member and of a conjugating member of each key's orbit, for key a tuple
    of unsigned index arrays; n ** len(key) where the orbit has no such
    member.  The lesser is the representative that _canonical gives, and a
    flag is among its flags where that flag's code reaches it."""
    none = n ** len(key)
    code_type = np.min_scalar_type(none)
    plain = np.full(len(key[0]), none, code_type)
    conjugating = plain.copy()
    for member, flag in orbit(key, reality):
        least = conjugating if flag else plain
        np.minimum(least, _digit_codes(n, code_type, member), out=least)
    return plain, conjugating


def _header(line_no: int, tokens: list[str]) -> IntegralTable:
    if len(tokens) != 4 or tokens[0] != "norb" or tokens[2] != "reality":
        raise IntegralParseError(line_no, "expected header 'norb <n> reality <real|complex>'")
    try:
        if _unplain(tokens[1:2]):
            raise ValueError
        n = int(tokens[1])
    except ValueError:
        raise IntegralParseError(line_no, f"bad mode count {tokens[1]!r}") from None
    if tokens[3] not in ("real", "complex"):
        raise IntegralParseError(line_no, f"bad reality class {tokens[3]!r}")
    if n < 1:
        raise IntegralParseError(line_no, "need at least one mode")
    return IntegralTable(n, tokens[3])


def _columns(n: int) -> tuple:
    """Empty columns for the entries of a table of ``n`` modes: the line
    number and 0-based indices of each entry, flat (an array of unsigned
    64-bit ints where every index fits one, a list otherwise), and the real
    and imaginary part of its value, flat."""
    return array("Q") if n <= 2**64 else [], array("d")


def _store(table: IntegralTable, store: dict, columns: tuple, orbit,
           width: int) -> tuple[int, str] | None:
    """Store the entries of ``width`` indices in ``columns`` (see _columns) as
    _set would one by one, keeping the first entry of each orbit at its
    representative, or return the first entry that _set would refuse, as
    (line number, message)."""
    numbers, parts = columns
    if not parts:
        return None
    n = table.n_modes
    rows = np.asarray(numbers).reshape(-1, 1 + width)
    key = tuple(rows[:, 1:].T.astype(np.min_scalar_type(n - 1)))
    plain, conjugating = _least_codes(n, orbit, table.reality, key)
    codes = np.minimum(plain, conjugating)
    value = np.frombuffer(parts, complex)
    stored = np.where(conjugating <= plain, value.conj(), value)
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    # an imaginary part on a self-conjugate orbit, which pins the value to the real axis
    off_axis = (conjugating == plain) & (np.abs(value.imag) > _CONFLICT_TOL)
    clash = off_axis | (np.abs(stored - stored[first[inverse]]) > _CONFLICT_TOL)
    if clash.any():
        i = int(clash.argmax())
        line_no, *new = rows[i].tolist()
        new, v = tuple(new), value[i].item()
        if off_axis[i]:
            old, held = _canonical(orbit(new, table.reality))[0], v.conjugate()
        else:
            j = first[inverse[i]]
            old, held = tuple(rows[j, 1:].tolist()), stored[j].item()
        return line_no, str(SymmetryConflictError(new, old, v, held))
    first.sort()  # the line order in which _set would store them
    reps = list(zip(*_code_digits(n, codes[first], width)[1:]))
    store.update(zip(reps, stored[first].tolist()))
    table._sources.update(zip(reps, zip(*(column.tolist() for column in rows[first, 1:].T))))
    return None


def parse_integrals(document: str) -> IntegralTable:
    """Parse the integral text format into a canonical table, or refuse the
    first failing line (see the module docstring)."""
    table = refusal = None
    line_no = 0
    for line_no, raw in enumerate(document.splitlines(), start=1):
        line = raw.partition("#")[0]
        tokens = line.split()
        if not tokens:
            continue
        if table is None:
            table, constant_seen = _header(line_no, tokens), False
            n = table.n_modes
            one, two = _columns(n), _columns(n)  # the one- and two-body entries
            continue
        try:
            if len(tokens) != 5:
                if len(tokens) != 6:
                    raise IntegralError(f"expected 5 or 6 fields, found {len(tokens)}")
                if table.reality == "real":
                    raise IntegralError("imaginary column in a table declared real")
            if (not line.isascii() or "_" in line) and (bad := _unplain(tokens)):
                raise IntegralError(f"field {bad!r} is not plain ASCII without '_'")
            try:
                value = complex(*map(float, tokens[:-4]))
                p, q, r, s = map(int, tokens[-4:])
            except ValueError as exc:
                raise IntegralError(str(exc)) from None
            if not (0 <= p <= n and 0 <= q <= n and 0 <= r <= n and 0 <= s <= n):
                raise IntegralError(f"index outside 1..{n}")
            if r == s == 0:
                if (p == 0) != (q == 0):
                    raise IntegralError("one-electron entry needs two positive indices")
            elif not (p and q and r and s):
                raise IntegralError("mixed zero and nonzero indices")
            value = _complex(value, "value", IntegralError)
            if p == 0:  # the constant: the rules above leave no other entry with p == 0
                if abs(value.imag) > _CONFLICT_TOL:
                    raise IntegralError("constant shift must be real")
                if not constant_seen:
                    table.constant, constant_seen = value.real, True
                elif abs(table.constant - value.real) > _CONFLICT_TOL:
                    raise IntegralError(f"conflicting constant {value.real} after {table.constant}")
            elif r == 0:
                one[0].extend((line_no, p - 1, q - 1))
                one[1].extend((value.real, value.imag))
            else:
                two[0].extend((line_no, p - 1, q - 1, r - 1, s - 1))
                two[1].extend((value.real, value.imag))
        except IntegralError as exc:
            refusal = IntegralParseError(line_no, str(exc))
            break
    if table is None:
        raise IntegralParseError(max(line_no, 1), "empty document, missing header line")
    # the orbit rules, on the entries before any refusal above: the first failing line wins
    kinds = ((table._one, one, _one_body_orbit, 2), (table._two, two, _two_body_orbit, 4))
    if conflicts := [c for kind in kinds if (c := _store(table, *kind))]:
        raise IntegralParseError(*min(conflicts))
    if refusal:
        raise refusal
    return table


def _two_body_entries(table: IntegralTable):
    """The index tuples (p, q, r, s) whose two_body_value exceeds _DROP_EPS in
    magnitude (in its real part for a real table), in index order, as arrays
    p, q, r, s and the values h: real for a real table, complex otherwise.

    Each tuple looks its value up as _lookup does: the representative is the
    least code over its orbit members (_least_codes), and the stored value is
    conjugated when only conjugating members reach it."""
    n = table.n_modes
    size = n**4
    tuples = tuple(np.indices((n,) * 4, dtype=np.min_scalar_type(n - 1)).reshape(4, -1))
    plain, conjugating = _least_codes(n, _two_body_orbit, table.reality, tuples)
    conjugated = conjugating < plain
    rep = np.minimum(plain, conjugating, out=plain)
    del conjugating
    # the entry filter, on each stored value once; |conj(h)| == |h| exactly
    store = table._two
    if table.reality == "real":
        values = np.zeros(size)
        kept = [v.real if abs(v.real) > _DROP_EPS else 0.0 for v in store.values()]
    else:
        values = np.zeros(size, complex)
        kept = [v if abs(v) > _DROP_EPS else 0j for v in store.values()]
    stored = np.array(list(store), dtype=tuples[0].dtype).reshape(-1, 4)
    values[_digit_codes(n, rep.dtype, stored.T)] = kept
    del stored, kept
    h = values[rep]
    del values, rep
    np.conjugate(h, out=h, where=conjugated)
    nonzero = h != 0
    return (*(m[nonzero] for m in tuples), h[nonzero])


def term_list(table: IntegralTable) -> HamiltonianTerms:
    """Decompose the table's Hamiltonian into weighted generators and local terms.

    Complex tables split into the antisymmetrized family (imaginary parts,
    weight 1/2 quadratic and 1/4 quartic) plus the symmetrized family (real
    parts, same weights).  Real tables produce only symmetrized terms; the
    quartic pass uses the exchange-coupled grouping
    h/8 * (sym(p,q;r,s) + sym(p,s;r,q)), whose partner terms land on the same
    four-mode window with tied weights.  Quadratic diagonal entries become
    density terms, two-mode-overlap quartics become coulomb terms.

    The result is the one an index-order loop over every lookup gives, bit
    for bit: the one-body pass is that loop over the n^2 pairs, whose terms
    the HamiltonianTerms constructor merges in loop order, and the two-body
    pass is one array pass over the n^4 tuples in index order, each tuple's
    two calls laid out first then second, whose coefficients np.bincount
    sums per term in that order (fermion._quartic_terms).
    """
    n = table.n_modes
    local, excitations = [], []
    for p, q in itertools.product(range(n), repeat=2):
        h = table.one_body_value(p, q)
        if abs(h) <= _DROP_EPS:
            continue
        if p == q:
            local.append(density_term(p, 0.5 * h.real))
            continue
        if table.reality == "complex" and abs(h.imag) > _DROP_EPS:
            excitations.append(single(p, q, 0.5 * h.imag, symmetrized=False))
        excitations.append(single(p, q, 0.5 * h.real, symmetrized=True))
    p, q, r, s, h = _two_body_entries(table)
    if table.reality == "real":
        weight = np.repeat(h / 8.0, 2)
        del h
        calls = (np.repeat(p, 2), np.column_stack((q, s)).ravel(),
                 np.repeat(r, 2), np.column_stack((s, q)).ravel())
        symmetrized = np.ones(len(weight), bool)
    else:
        weight = np.column_stack((h.imag / 4.0, h.real / 4.0)).ravel()
        del h
        calls = tuple(np.repeat(m, 2) for m in (p, q, r, s))
        symmetrized = np.tile((False, True), len(p))
    del p, q, r, s
    coulombs, quartics = _quartic_terms(n, *calls, weight, symmetrized)
    return HamiltonianTerms(n, table.reality, table.constant,
                            local + coulombs, excitations + quartics)


def h3plus_table() -> IntegralTable:
    """Parse the packaged H3+ dataset (STO-3G, equilibrium geometry)."""
    text = (
        resources.files("ionsynth").joinpath("data/h3plus.ints").read_text()
    )
    return parse_integrals(text)


def h3plus_builtin() -> HamiltonianTerms:
    """The packaged H3+ dataset as a term list: ``term_list(h3plus_table())``.

    Mode order is alpha0, beta0, alpha1, beta1, alpha2, beta2 for the three
    lowest spatial orbitals of the equilibrium STO-3G molecule.
    """
    return term_list(h3plus_table())
