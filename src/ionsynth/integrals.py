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
complex tables.  Blank lines and text after '#' are ignored.
"""

import cmath
from importlib import resources

from .fermion import (
    HamiltonianTerms,
    controlled_single,
    coulomb_term,
    density_term,
    double,
    split_hamiltonian,
)

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


def _finite(value) -> complex:
    value = complex(value)
    if not cmath.isfinite(value):
        raise IntegralError(f"value {value} is not finite")
    return value


def _one_body_orbit(p, q, reality):
    if reality == "complex":
        return (((p, q), False), ((q, p), True))
    return (((p, q), False), ((q, p), False))


def _two_body_orbit(key, reality):
    p, q, r, s = key
    members = [
        ((p, q, r, s), False),
        ((q, p, s, r), False),
        ((r, s, p, q), True),
        ((s, r, q, p), True),
    ]
    if reality == "real":
        members = [(k, False) for k, _ in members]
        members += [
            ((r, q, p, s), False),
            ((s, p, q, r), False),
            ((p, s, r, q), False),
            ((q, r, s, p), False),
        ]
    return tuple(members)


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
        if n_modes < 1:
            raise IntegralError("need at least one mode")
        self.n_modes = int(n_modes)
        self.reality = reality
        self.constant = _finite(constant).real
        self._one: dict[tuple, complex] = {}
        self._two: dict[tuple, complex] = {}
        # original input tuple per representative, for conflict messages
        self._sources: dict[tuple, tuple] = {}

    def _check_modes(self, key):
        for m in key:
            if not 0 <= m < self.n_modes:
                raise IntegralError(
                    f"mode {m} outside table of {self.n_modes} modes"
                )

    def _store(self, store, key, value, orbit):
        rep, flags = _canonical(orbit)
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

    def set_one_body(self, p: int, q: int, value) -> None:
        value = _finite(value)
        self._check_modes((p, q))
        if self.reality == "real" and abs(value.imag) > _CONFLICT_TOL:
            raise IntegralError("real table cannot hold an imaginary part")
        self._store(self._one, (p, q), value,
                    _one_body_orbit(p, q, self.reality))

    def set_two_body(self, p: int, q: int, r: int, s: int, value) -> None:
        value = _finite(value)
        self._check_modes((p, q, r, s))
        if self.reality == "real" and abs(value.imag) > _CONFLICT_TOL:
            raise IntegralError("real table cannot hold an imaginary part")
        self._store(self._two, (p, q, r, s), value,
                    _two_body_orbit((p, q, r, s), self.reality))

    def one_body_value(self, p: int, q: int) -> complex:
        self._check_modes((p, q))
        rep, flags = _canonical(_one_body_orbit(p, q, self.reality))
        value = self._one.get(rep, 0j)
        return value.conjugate() if (True in flags and False not in flags) else value

    def two_body_value(self, p: int, q: int, r: int, s: int) -> complex:
        self._check_modes((p, q, r, s))
        rep, flags = _canonical(_two_body_orbit((p, q, r, s), self.reality))
        value = self._two.get(rep, 0j)
        return value.conjugate() if (True in flags and False not in flags) else value

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
                _finite(value)
                if abs(value.imag) > _CONFLICT_TOL:
                    raise IntegralError("constant shift must be real")
                if constant_seen and abs(table.constant - value.real) > _CONFLICT_TOL:
                    raise IntegralError(
                        f"conflicting constant {value.real} after {table.constant}"
                    )
                table.constant = value.real
                constant_seen = True
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


def term_list(table: IntegralTable) -> HamiltonianTerms:
    """Weighted generator decomposition of the table's Hamiltonian."""
    return split_hamiltonian(table)


def h3plus_table() -> IntegralTable:
    """Parse the packaged H3+ dataset (STO-3G, equilibrium geometry)."""
    text = (
        resources.files("ionsynth").joinpath("data/h3plus.ints").read_text()
    )
    return parse_integrals(text)


def h3plus_builtin() -> HamiltonianTerms:
    """Prebuilt H3+ term list in the alternating spin-orbital convention.

    Mode order is alpha0, beta0, alpha1, beta1, alpha2, beta2 for the three
    lowest spatial orbitals of the equilibrium STO-3G molecule.  Values are
    the 3-decimal Hartree coefficients of the dominant terms; sub-0.07 Ha
    entries are truncated from the dataset.
    """
    local = [
        density_term(0, -0.917),
        density_term(1, -0.917),
        density_term(2, -0.535),
        density_term(3, -0.535),
        density_term(4, -0.535),
        density_term(5, -0.535),
    ]
    pair_repulsion = {
        (0, 1): -0.307,
        (2, 3): -0.337, (4, 5): -0.337,
        (0, 3): -0.298, (1, 2): -0.298, (0, 5): -0.298, (1, 4): -0.298,
        (2, 5): -0.265, (3, 4): -0.265,
        (2, 4): -0.229, (3, 5): -0.229,
        (0, 2): -0.226, (0, 4): -0.226, (1, 3): -0.226, (1, 5): -0.226,
    }
    local += [coulomb_term(p, q, c) for (p, q), c in pair_repulsion.items()]
    sym = {"symmetrized": True}
    excitations = [
        # exchange-coupled double pairs on the (0,1)->(2,3) and (0,1)->(4,5)
        # windows; the factories fold ordering swaps into the sign
        double(0, 1, 2, 3, -0.142, **sym),
        double(0, 3, 2, 1, -0.142, **sym),
        double(0, 1, 4, 5, -0.142, **sym),
        double(0, 5, 4, 1, -0.142, **sym),
        # shared-mode quartics: same core excitation 0->2 (or 1->3) gated by
        # the occupation of the spectator mode
        controlled_single(0, 2, 3, -0.090, **sym),
        controlled_single(1, 3, 2, -0.090, **sym),
        controlled_single(0, 2, 5, +0.090, **sym),
        controlled_single(1, 3, 4, +0.090, **sym),
        double(0, 3, 4, 5, +0.090, **sym),
        double(0, 5, 4, 3, +0.090, **sym),
        double(2, 1, 4, 5, +0.090, **sym),
        double(2, 5, 4, 1, +0.090, **sym),
        double(2, 3, 4, 5, -0.072, **sym),
        double(2, 5, 4, 3, -0.072, **sym),
    ]
    return HamiltonianTerms.assemble(6, "real", 0.0, local, excitations)
