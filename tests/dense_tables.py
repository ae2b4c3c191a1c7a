"""Seeded dense integral tables and the reconstruction defect, shared by the
integral and acceptance tests.

Each table sets every symmetry orbit of its reality class once, with values
rounded to three decimals drawn from the caller's numpy generator, so each
test module keeps its own seeded stream.
"""

import itertools

import numpy as np

from ionsynth.integrals import IntegralTable, term_list
from ionsynth.verify import dense_hamiltonian, dense_sum


def _draw(rng) -> float:
    return round(float(rng.normal()), 3)


def fill_real_table(n: int, rng) -> IntegralTable:
    table = IntegralTable(n, "real")
    for p in range(n):
        for q in range(p, n):
            table.set_one_body(p, q, _draw(rng))
    seen = set()
    for key in itertools.product(range(n), repeat=4):
        p, q, r, s = key
        orbit = {key, (q, p, s, r), (r, s, p, q), (s, r, q, p),
                 (r, q, p, s), (s, p, q, r), (p, s, r, q), (q, r, s, p)}
        rep = min(orbit)
        if rep not in seen:
            seen.add(rep)
            table.set_two_body(*rep, _draw(rng))
    return table


def fill_complex_table(n: int, rng) -> IntegralTable:
    """Self-conjugate orbits, and the diagonal one-body entries, get real values."""
    table = IntegralTable(n, "complex")
    for p in range(n):
        for q in range(p, n):
            imag = 0.0 if p == q else _draw(rng)
            table.set_one_body(p, q, complex(_draw(rng), imag))
    seen = set()
    for key in itertools.product(range(n), repeat=4):
        p, q, r, s = key
        plain = {key, (q, p, s, r)}
        conjugated = {(r, s, p, q), (s, r, q, p)}
        rep = min(plain | conjugated)
        if rep not in seen:
            seen.add(rep)
            imag = 0.0 if plain & conjugated else _draw(rng)
            table.set_two_body(*rep, complex(_draw(rng), imag))
    return table


def reconstruction_defect(table: IntegralTable) -> float:
    """Largest entry gap between the dense forms of term_list's Pauli sum and
    of the table's raw ladder Hamiltonian (verify.dense_hamiltonian)."""
    direct = dense_sum(term_list(table).pauli_sum())
    via_ladder = dense_hamiltonian(table)
    return float(np.abs(direct - via_ladder).max())
