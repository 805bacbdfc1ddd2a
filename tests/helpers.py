"""Shared test utilities: random unitaries and structured random states."""

import numpy as np

from triqent import PureState


def random_unitary(rng, n=2):
    """Haar-random unitary via QR with positive diagonal phase fix."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_qubit(rng):
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return z / np.linalg.norm(z)


def random_pair(rng):
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return z / np.linalg.norm(z)


def random_product_state(rng):
    a, b, c = random_qubit(rng), random_qubit(rng), random_qubit(rng)
    return PureState(np.einsum("i,j,k->ijk", a, b, c).reshape(8))


def random_biseparable(rng, separable_qubit="A"):
    """Random single qubit times a random (generically entangled) pair."""
    s = random_qubit(rng)
    p = random_pair(rng).reshape(2, 2)
    if separable_qubit == "A":
        t = np.einsum("i,jk->ijk", s, p)
    elif separable_qubit == "B":
        t = np.einsum("j,ik->ijk", s, p)
    else:
        t = np.einsum("k,ij->ijk", s, p)
    return PureState(t.reshape(8))


def nonzero_coefficients(rng, n, min_mag=0.1):
    """n complex coefficients, normalized, all magnitudes >= min_mag."""
    while True:
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z /= np.linalg.norm(z)
        if np.abs(z).min() >= min_mag:
            return z


def near_separable_state(rng, exponent):
    """A random product or biseparable state plus a random perturbation of norm 10**-exponent.

    The separable qubit (or full product) is drawn at random.  Exponents
    from 2 to 16 sweep the impurities and reduced negativities through
    the 1e-9..1e-7 decade around the default zero tolerance, where
    classify_pure flags its verdicts as ambiguous.
    """
    kind = rng.integers(4)
    base = random_product_state(rng) if kind == 3 else random_biseparable(rng, "ABC"[kind])
    z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v = base.amplitudes + 10.0 ** -exponent * z / np.linalg.norm(z)
    return PureState(v / np.linalg.norm(v))


def near_separable_corpus(rng, count):
    """`count` near-separable states with exponents drawn uniformly from [2, 16]."""
    return [near_separable_state(rng, rng.uniform(2.0, 16.0)) for _ in range(count)]
