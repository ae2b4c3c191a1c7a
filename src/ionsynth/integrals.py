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
from importlib import resources

import numpy as np

from .circuit import _unplain
from .fermion import _DROP_EPS, HamiltonianTerms, _digit_codes, _quartic_terms, density_term, single
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


def parse_integrals(document: str) -> IntegralTable:
    """Parse the integral text format into a canonical table."""
    table = None
    constant_seen = False
    for line_no, raw in enumerate(document.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if table is None:
            if (len(tokens) != 4 or tokens[0] != "norb"
                    or tokens[2] != "reality"):
                raise IntegralParseError(
                    line_no, "expected header 'norb <n> reality <real|complex>'"
                )
            try:
                if _unplain(tokens[1:2]):
                    raise ValueError
                n = int(tokens[1])
            except ValueError:
                raise IntegralParseError(
                    line_no, f"bad mode count {tokens[1]!r}"
                ) from None
            if tokens[3] not in ("real", "complex"):
                raise IntegralParseError(
                    line_no, f"bad reality class {tokens[3]!r}"
                )
            if n < 1:
                raise IntegralParseError(line_no, "need at least one mode")
            table = IntegralTable(n, tokens[3])
            continue
        if len(tokens) == 5:
            value_tokens, index_tokens = tokens[:1], tokens[1:]
        elif len(tokens) == 6:
            if table.reality == "real":
                raise IntegralParseError(
                    line_no, "imaginary column in a table declared real"
                )
            value_tokens, index_tokens = tokens[:2], tokens[2:]
        else:
            raise IntegralParseError(
                line_no, f"expected 5 or 6 fields, found {len(tokens)}"
            )
        if (not line.isascii() or "_" in line) and (bad := _unplain(tokens)):
            raise IntegralParseError(line_no, f"field {bad!r} is not plain ASCII without '_'")
        try:
            numbers = [float(t) for t in value_tokens]
            indices = [int(t) for t in index_tokens]
        except ValueError as exc:
            raise IntegralParseError(line_no, str(exc)) from None
        value = complex(numbers[0], numbers[1] if len(numbers) == 2 else 0.0)
        p, q, r, s = indices
        if any(i < 0 or i > table.n_modes for i in indices):
            raise IntegralParseError(
                line_no, f"index outside 1..{table.n_modes}"
            )
        try:
            if p == q == r == s == 0:
                _complex(value, "value", IntegralError)
                if abs(value.imag) > _CONFLICT_TOL:
                    raise IntegralError("constant shift must be real")
                if not constant_seen:
                    table.constant = value.real
                    constant_seen = True
                elif abs(table.constant - value.real) > _CONFLICT_TOL:
                    raise IntegralError(
                        f"conflicting constant {value.real} after {table.constant}"
                    )
            elif r == 0 and s == 0:
                if p == 0 or q == 0:
                    raise IntegralError(
                        "one-electron entry needs two positive indices"
                    )
                table.set_one_body(p - 1, q - 1, value)
            elif 0 in indices:
                raise IntegralError("mixed zero and nonzero indices")
            else:
                table.set_two_body(p - 1, q - 1, r - 1, s - 1, value)
        except IntegralParseError:
            raise
        except IntegralError as exc:
            raise IntegralParseError(line_no, str(exc)) from None
    if table is None:
        raise IntegralParseError(0, "empty document, missing header line")
    return table


def _two_body_entries(table: IntegralTable):
    """The index tuples (p, q, r, s) whose two_body_value exceeds _DROP_EPS in
    magnitude (in its real part for a real table), in index order, as arrays
    p, q, r, s and the values h: real for a real table, complex otherwise.

    Each tuple looks its value up as _lookup does: the representative is the
    least index-order code (the digits p, q, r, s in base n) over its orbit
    members, and the stored value is conjugated when only conjugating members
    reach it."""
    n = table.n_modes
    size = n**4
    code_type = np.min_scalar_type(size - 1)
    tuples = tuple(np.indices((n,) * 4, dtype=np.min_scalar_type(n - 1)).reshape(4, -1))
    plain = np.full(size, np.iinfo(code_type).max, code_type)
    conjugating = plain.copy()
    for member, flag in _two_body_orbit(tuples, table.reality):
        least = conjugating if flag else plain
        np.minimum(least, _digit_codes(n, code_type, member), out=least)
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
    values[_digit_codes(n, code_type, stored.T)] = kept
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
