"""Shared test utilities: random unitaries, structured random states and references."""

import functools

import numpy as np

from triqent import NotNormalizedError, PureState, ghz, w_prime
from triqent.cli import _SWEEP_COLUMNS, ORACLE_FIELDS
from triqent.measures import (
    _HYPERDET_PIECES,
    _MINORS,
    _SPIN_FLIP_PIECES,
    _UNFOLD,
    _entropy_of_spectrum,
    _geometric_mean3,
    _negativity_of_spectrum,
    _pair_negativity,
    _pure_pair_concurrence,
    _spectrum_2x2,
)


#: the sweepable families whose states are density matrices
MIXED_FAMILIES = ("ghz_w_mix", "ghz_noise", "rho_epsilon", "sigma_b")

#: each sweepable family's domain as (low, high, open); the grid holds both
#: ends, or the nearest floats inside an open domain
DOMAINS = {
    "ghz_like": (0.0, 1.0, False),
    "ghz_w_mix": (0.0, 1.0, False),
    "ghz_noise": (0.0, 1.0, False),
    "rho_epsilon": (-1.0, 1.0, False),
    "sigma_b": (0.0, 1.0, True),
}


def domain_grid(family, n=2000, seed=0):
    """The family's endpoints, its middle and ``n`` uniform points inside its domain."""
    low, high, is_open = DOMAINS[family]
    ends = [np.nextafter(low, high), np.nextafter(high, low)] if is_open else [low, high]
    inside = np.random.default_rng(seed).uniform(low, high, n)
    return tuple((float(p),) for p in (*ends, (low + high) / 2, *inside))

#: how far the real route of a float stack may lie from the complex route of
#: its complex copy: on the stacks of ``test_measures.TestRealRoute`` the
#: largest distance is 1.2e-15 (an n_q of the ghz_w_mix grid and of the
#: rank-3 draws)
REAL_ROUTE_ATOL = 1e-14


def real_gaussian_draws(seed, n, rank=8):
    """n density matrices G G^T / Tr with G a real Gaussian 8 x rank matrix, as a complex stack."""
    g = np.random.default_rng(seed).standard_normal((n, 8, rank))
    m = g @ g.swapaxes(-1, -2)
    return (m / np.trace(m, axis1=-2, axis2=-1)[:, np.newaxis, np.newaxis]).astype(complex)


def default_rng_haar_amplitudes(seed):
    """The amplitudes of Haar state ``seed`` drawn by ``np.random.default_rng`` itself.

    The 16 normals are the real parts, then the imaginary parts, normalized
    as ``sample_haar_pure`` normalizes them.
    """
    x = np.random.default_rng(seed).standard_normal(16)
    z = x[:8] + 1j * x[8:]
    return z / np.sqrt((np.abs(z) ** 2).sum())


def default_rng_haar_stack(seed, count):
    """States 0 .. count - 1 of ``random --seed seed``, drawn by ``np.random.default_rng`` itself.

    Row i is row i of ``default_rng(seed).standard_normal((count, 16))``:
    the real parts, then the imaginary parts, each row normalized alone.
    """
    x = np.random.default_rng(seed).standard_normal((count, 16))
    z = x[:, :8] + 1j * x[:, 8:]
    return np.array([row / np.sqrt((np.abs(row) ** 2).sum()) for row in z])


def near_unit_norm_corpus(seed, count, size=8):
    """``count`` rows of ``size`` complex entries at the edge of the norm tolerance, as a read-only stack.

    Each row is a Haar-random unit vector, drawn as ``default_rng_haar_stack``
    draws it, scaled to norm 1 + 1e-10 - u * 1e-16 with u uniform on
    [0, 3), so it lies within a few rounding errors of NORM_ATOL: whether
    a row passes a norm check turns on the order its squares are summed
    in.  About two thirds of the 8-entry rows pass ``PureState``.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((count, 2 * size))
    z = x[:, :size] + 1j * x[:, size:]
    scale = 1.0 + 1e-10 - rng.uniform(0.0, 3.0, count) * 1e-16
    rows = z * (scale / np.sqrt((np.abs(z) ** 2).sum(axis=1)))[:, np.newaxis]
    rows.setflags(write=False)
    return rows


def accepted_pure_states(rows):
    """A PureState of each amplitude row that PureState accepts, in row order; the rest are skipped."""
    states = []
    for amps in rows:
        try:
            states.append(PureState(amps))
        except NotNormalizedError:
            pass
    return states


def nested(depth, leaf=0.0):
    """``leaf`` inside ``depth`` one-entry lists: numpy cannot iterate over more than 32 axes."""
    for _ in range(depth):
        leaf = [leaf]
    return leaf


def random_unitary(rng, n=2):
    """Haar-random unitary via QR with positive diagonal phase fix."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_local_unitary(rng):
    """u_a x u_b x u_c of three Haar-random one-qubit unitaries, drawn in that order."""
    return np.kron(np.kron(random_unitary(rng), random_unitary(rng)), random_unitary(rng))


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


def _canonical_w_amplitudes(rng):
    c = rng.uniform(0.3, 1.0, 3) * np.exp(2j * np.pi * rng.uniform(size=3))
    amps = np.zeros(8, dtype=complex)
    amps[[0, 6, 5]] = c / np.linalg.norm(c)
    return amps


def hidden_w_state(rng):
    """A W-class state hidden by random local unitaries.

    Canonical alpha, delta, epsilon (the |000>, |110>, |101> amplitudes)
    get magnitudes uniform in [0.3, 1] and uniform phases; beta and
    omega are exactly 0.  Each qubit is then rotated by a Haar-random
    unitary, so the pencil det(T0 + z T1) has a double root at a random z.
    """
    amps = _canonical_w_amplitudes(rng)
    return PureState(random_local_unitary(rng) @ amps)


def near_swap_w_state(rng):
    """A W-class state whose qubit A is rotated to within 1e-8..1e-6 rad of a swap.

    The canonical coefficients are drawn as in hidden_w_state.  Qubit A
    gets the swap |0> <-> |1>, then a real rotation by 10**-uniform(6, 8)
    rad and random phases; qubits B and C get Haar-random unitaries.  So
    det T1 ~ 0 and the pencil's double root sits near z = infinity.
    """
    amps = _canonical_w_amplitudes(rng)
    theta = 10.0 ** -rng.uniform(6.0, 8.0)
    rotation = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    u_a = np.diag(np.exp(2j * np.pi * rng.uniform(size=2))) @ rotation @ np.array([[0, 1], [1, 0]])
    u = np.kron(np.kron(u_a, random_unitary(rng)), random_unitary(rng))
    return PureState(u @ amps)


def bell_bc_plus(delta):
    """|0>_A Bell_BC + delta |101>, normalized: a W-class state with n_A and c_AB, c_AC linear in delta."""
    v = np.zeros(8, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    v[5] = delta
    return PureState(v / np.linalg.norm(v))


def hidden_canonical_corpus(rng, count):
    """``count`` each of hidden W states, near-swap W states, and near-separable states under random local unitaries."""
    states = [hidden_w_state(rng) for _ in range(count)]
    states += [near_swap_w_state(rng) for _ in range(count)]
    states += [PureState(random_local_unitary(rng) @ psi.amplitudes) for psi in near_separable_corpus(rng, count)]
    return states


def sparse_canonical_state(rng):
    """A canonical form with a random zero pattern and magnitudes log-uniform in [1e-7, 1].

    Each of alpha, beta, delta, epsilon and omega is kept with probability
    1/2 (at least one is), with a uniform phase.  Products of two small
    kept coefficients land on either side of the default zero tolerance,
    so the pattern turns on the products, not on the coefficients alone.
    """
    keep = np.zeros(5, dtype=bool)
    while not keep.any():
        keep = rng.random(5) < 0.5
    c = keep * 10.0 ** rng.uniform(-7.0, 0.0, 5) * np.exp(2j * np.pi * rng.uniform(size=5))
    amps = np.zeros(8, dtype=complex)
    amps[[0, 4, 6, 5, 7]] = c / np.linalg.norm(c)
    return PureState(amps)


def sparse_canonical_corpus(rng, count):
    """``count`` sparse canonical forms, every second one hidden by random local unitaries."""
    states = [sparse_canonical_state(rng) for _ in range(count)]
    return [PureState(random_local_unitary(rng) @ psi.amplitudes) if i % 2 else psi for i, psi in enumerate(states)]


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
    from 2 to 16 sweep the one-vs-two negativities and reduced
    concurrences, which are of the order of the perturbation, through
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


SIGMA_YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


def sqrt_rho_concurrence(matrix):
    """Two-qubit concurrence through the Hermitian sqrt(rho) rho~ sqrt(rho), in plain numpy.

    rho~ = (sy x sy) rho^* (sy x sy) is the spin flip.  The descending
    eigenvalues l of sqrt(rho) rho~ sqrt(rho) below 1e-13 * max(1, l1)
    are set to zero before the square root, and the concurrence is
    sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4), clipped to [0, 1].
    """
    h = (matrix + matrix.conj().T) / 2
    w, v = np.linalg.eigh(h)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    root = (root + root.conj().T) / 2
    m = root @ SIGMA_YY @ h.conj() @ SIGMA_YY @ root
    lam = np.linalg.eigvalsh((m + m.conj().T) / 2)[::-1]
    lam = np.where(lam < 1e-13 * max(1.0, lam[0]), 0.0, lam)
    s = np.sqrt(lam)
    return float(min(1.0, max(0.0, s[0] - s[1:].sum())))


def reference_oracle(family, params):
    """The closed-form oracle values of one family member, one Python evaluation per point.

    The reference for ``families._oracle_columns``: each formula is the
    one written out per family, on the parameter tuple ``params``.
    Returns None for a family with no closed form.
    """
    if family == "ghz":
        return {"n_a_bc": 1.0, "n_b_ac": 1.0, "n_c_ab": 1.0, "n_abc": 1.0,
                "n_red_bc": 0.0, "n_red_ac": 0.0, "n_red_ab": 0.0}
    if family in ("w", "w_prime"):
        n = 2.0 * np.sqrt(2.0) / 3.0
        r = (np.sqrt(5.0) - 1.0) / 3.0
        return {"n_a_bc": n, "n_b_ac": n, "n_c_ab": n, "n_abc": n,
                "n_red_bc": r, "n_red_ac": r, "n_red_ab": r}
    if family == "ghz_like":
        (alpha,) = params
        n = 2.0 * abs(alpha) * np.sqrt(max(0.0, 1.0 - alpha * alpha))
        return {"n_a_bc": n, "n_b_ac": n, "n_c_ab": n, "n_abc": n,
                "n_red_bc": 0.0, "n_red_ac": 0.0, "n_red_ab": 0.0}
    if family == "w_canonical":
        a, e, d = (abs(x) for x in params)
        return {
            "n_red_bc": np.sqrt(a**4 + 4 * (e * d) ** 2) - a**2,
            "n_red_ac": np.sqrt(d**4 + 4 * (e * a) ** 2) - d**2,
            "n_red_ab": np.sqrt(e**4 + 4 * (a * d) ** 2) - e**2,
        }
    if family == "ghz_w_mix":
        (p,) = params
        n = (np.sqrt(41 * p * p - 64 * p + 32) + 2 * np.sqrt(10 * p * p - 2 * p + 1) - p - 2) / 6.0
        return {"n_a_bc": n, "n_b_ac": n, "n_c_ab": n, "n_abc": n}
    if family == "ghz_noise":
        (p,) = params
        return {"n_abc": 0.0 if p <= 0.2 else (5.0 * p - 1.0) / 4.0}
    if family == "sigma_b":
        (b,) = params
        n = (np.sqrt(3.0 * b * b + 1.0) - 2.0 * b) / (7.0 * b + 1.0)
        return {"n_a_bc": 0.0, "n_b_ac": n, "n_c_ab": n, "n_abc": 0.0}
    if family == "rho_epsilon":
        (eps,) = params
        return {"n_a_bc": 0.0, "n_red_bc": abs(eps)}
    return None


def spy_on_lapack(monkeypatch):
    """Record (name, shape, dtype kind) of the first argument of each np.linalg eigh, eigvalsh and svd call.

    The kind is 'f' for a real matrix and 'c' for a complex one, so it
    names the LAPACK routine that runs (dsyevd or zheevd, and so on).
    """
    calls = []

    def spy(name):
        real = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            calls.append((name, np.shape(a), np.asarray(a).dtype.kind))
            return real(a, *args, **kwargs)
        return call

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, spy(name))
    return calls


@functools.cache
def pure_corpora():
    """The pure property corpora as read-only (N, 8) amplitude stacks, by name.

    2000 Haar draws, the near-separable, hidden-canonical and sparse
    canonical corpora, and the rows |000>, GHZ and W.
    """
    product = np.zeros(8, dtype=complex)
    product[0] = 1.0
    corpora = {
        "haar": default_rng_haar_stack(2026, 2000),
        "near": [psi.amplitudes for psi in near_separable_corpus(np.random.default_rng(7), 1500)],
        "hidden": [psi.amplitudes for psi in hidden_canonical_corpus(np.random.default_rng(77), 300)],
        "sparse": [psi.amplitudes for psi in sparse_canonical_corpus(np.random.default_rng(5), 3000)],
        "named": [product, ghz().amplitudes, w_prime().amplitudes],
    }
    stacks = {name: np.array(rows) for name, rows in corpora.items()}
    for stack in stacks.values():
        stack.setflags(write=False)
    return stacks


@functools.cache
def near_product_corpus():
    """20 000 product states plus a perturbation of norm 10**-uniform(1, 16), as a read-only (N, 8) stack.

    Each qubit of the product is a random unit vector.  Every third
    perturbation is along a biseparable direction: one qubit of the
    product, drawn at random, times a random pair, so that qubit stays
    factorizable while the other two n_q grow with the perturbation.
    The rest are random in all eight amplitudes.  The n_q run from the
    negativity floor of ``measures`` up to about 0.2, and about half the
    rows have one or more of them floored to zero.
    """
    count = 20000
    rng = np.random.default_rng(2030)
    qubits = rng.standard_normal((3, count, 2)) + 1j * rng.standard_normal((3, count, 2))
    a, b, c = qubits / np.linalg.norm(qubits, axis=-1, keepdims=True)
    z = rng.standard_normal((count, 8)) + 1j * rng.standard_normal((count, 8))
    pair = z[:, :4].reshape(count, 2, 2)
    along = (np.einsum("ni,njk->nijk", a, pair), np.einsum("nj,nik->nijk", b, pair),
             np.einsum("nk,nij->nijk", c, pair))
    kept = rng.integers(3, size=count)
    biseparable = np.arange(count) % 3 == 0
    direction = z.reshape(count, 2, 2, 2)
    for q in range(3):
        rows = biseparable & (kept == q)
        direction[rows] = along[q][rows]
    direction = direction.reshape(count, 8) / np.linalg.norm(direction.reshape(count, 8), axis=1, keepdims=True)
    v = np.einsum("ni,nj,nk->nijk", a, b, c).reshape(count, 8)
    v = v + 10.0 ** -rng.uniform(1.0, 16.0, (count, 1)) * direction
    stack = v / np.linalg.norm(v, axis=1, keepdims=True)
    stack.setflags(write=False)
    return stack


def product_differences(amps, table):
    """a_i a_j - a_i' a_j' for each entry [[i, j], [i', j']] of ``table``, per state: one gather per table."""
    f = amps[:, table]
    return f[..., 0, 0] * f[..., 0, 1] - f[..., 1, 0] * f[..., 1, 1]


def reference_pure_closed_form_table(amps):
    """The pure closed-form table as it was made with one gather of products per table.

    Each of the minors, the spin-flip pieces and the hyperdeterminant
    pieces gathers and multiplies its own amplitude pairs, and n_q is
    the negativity of the cut spectrum s1^2, s2^2, s1 s2, -s1 s2.
    """
    n = amps.shape[0]
    det = (np.abs(product_differences(amps, _MINORS)) ** 2).sum(axis=-1, keepdims=True)
    schmidt = np.sqrt(det)
    trace = (np.abs(amps) ** 2).sum(axis=-1)[:, np.newaxis, np.newaxis]
    cut_spectrum = np.concatenate([_spectrum_2x2(trace, det), schmidt, -schmidt], axis=-1)
    entropy = _entropy_of_spectrum(cut_spectrum[..., :2])
    n_side = _negativity_of_spectrum(cut_spectrum)
    c_red = _pure_pair_concurrence(product_differences(amps, _SPIN_FLIP_PIECES))
    pieces = product_differences(amps, _HYPERDET_PIECES)
    lin = pieces[:, 0, 0] + pieces[:, 0, 1]
    hyperdet = lin * lin - 4.0 * pieces[:, 1, 0] * pieces[:, 1, 1]
    cut_tangle = n_side * n_side
    tangle = np.minimum(np.minimum(1.0, 4.0 * np.abs(hyperdet)), cut_tangle.min(axis=-1))
    means = _geometric_mean3(np.concatenate([n_side, cut_tangle, entropy], axis=1).reshape(n, 3, 3))
    n_red = np.full((n, 3), np.nan)
    return np.concatenate(
        [n_side, means[:, :1], n_red, c_red, entropy, means[:, 1:], tangle[:, np.newaxis]], axis=1
    )


def reference_pure_measure_table(amps):
    """``reference_pure_closed_form_table`` with n_red_* from the batched pair eigensolve of M^T M^*."""
    table = reference_pure_closed_form_table(amps)
    m = amps[:, _UNFOLD]
    table[:, 4:7] = _pair_negativity(m.swapaxes(-1, -2) @ m.conj())
    return table


def per_line_sweep_chunk(family, chunk):
    """The CSV lines of one chunk of ``families._sweep_chunks``, one % call per line.

    The reference for ``cli._write_sweep_chunk``, which formats a whole
    chunk with one % call: one template per line, the verdict a %s cell.
    """
    width = chunk.table.shape[1]
    fields = [f for f in ORACLE_FIELDS if f in chunk.oracle]
    oracle_cells = ["%.12g" if f in chunk.oracle else "" for f in ORACLE_FIELDS]
    measure_cells = ["%.12g" if c < width else "" for c in _SWEEP_COLUMNS]
    line = ",".join([family, "%.12g", *measure_cells, "%s", *oracle_cells, *oracle_cells]) + "\n"
    n = len(chunk.params)
    head = np.column_stack([chunk.params[:, 0], chunk.table[:, [c for c in _SWEEP_COLUMNS if c < width]]])
    tail = np.array([chunk.oracle[f] for f in fields] + [chunk.deviations[f] for f in fields], dtype=float)
    tail = tail.reshape(2 * len(fields), n).T
    return "".join([line % (*h, v, *t) for h, v, t in zip(head.tolist(), chunk.verdicts, tail.tolist())])
