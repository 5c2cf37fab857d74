"""Relations that hold for every channel, golden values or none.

A map's `validate` verdict and its capacity belong to the map, not to
how its generators are written: adding a cancelling pair `(a W, +1)`,
`(a W, -1)`, or splitting a generator V into two copies of V / sqrt(2),
leaves both as they are.  The maps are seeded, and each base channel
takes a different path: amplitude damping is a CP qubit map (the Pauli
step), `gamma3` is not CP, and `gamma5` is a qutrit map (the ket step).
An exact pair leaves the channel when it is built, so every reader of
the generators, the size budget included, sees the base map bit for bit.

Capacity itself obeys two more relations: it does not depend on the
order of a product's factors, and processing data cannot raise it,
`C(G2 o G1) <= min(C(G1), C(G2))` for CP maps.

Every tolerance below comes from the stop rule: a reported capacity is
`I(pi)` of the returned ensemble, so it never exceeds the capacity, and
a run stops once `decimal_places` decimals of it settle, which these
tests take to fix it within `10 ** -decimal_places` below the capacity.
"""

import numpy as np
import pytest

import qcap
from qcap import (
    Channel,
    SolverConfig,
    apply,
    choi,
    dual_apply,
    entanglement,
    multi_start,
    tensor,
    validate,
)
from qcap.cli import _require_budget
from support import PAULI_X, PAULI_Z, product, random_density, random_hermitian

# Amplitude damping at gamma = 0.3.
AMPLITUDE_DAMPING = np.array(
    [[[1, 0], [0, np.sqrt(0.7)]], [[0, np.sqrt(0.3)], [0, 0]]], dtype=complex
)


def base_channel(name):
    if name == "amplitude-damping":
        return Channel(AMPLITUDE_DAMPING)
    ch = qcap.fixture_channel(name)
    return Channel(ch.kraus, ch.signs)  # without the affine data, as its rewrites are


def rewritten(ch, how):
    # The same map with its generators written another way.
    K, s = ch.kraus, ch.signs
    if how == "split":
        half = K[:1] / np.sqrt(2)
        return Channel(np.concatenate([half, half, K[1:]]), np.concatenate([s[:1], s]))
    a = float(how.removeprefix("pair-"))
    d = ch.dim_in
    G = np.random.default_rng(21).standard_normal((2, d, d))
    U, _ = np.linalg.qr(G[0] + 1j * G[1])
    return Channel(np.concatenate([K, [a * U, a * U]]), np.concatenate([s, [1.0, -1.0]]))


@pytest.mark.parametrize("how", ["pair-1e4", "pair-1e5", "split"])
@pytest.mark.parametrize("name", ["amplitude-damping", "gamma3", "gamma5"])
def test_rewritten_generators_keep_verdict_and_capacity(name, how):
    ch = base_channel(name)
    new = rewritten(ch, how)
    before, after = validate(ch), validate(new)
    assert (after.tp_ok, after.cp_ok, after.passed) == (before.tp_ok, before.cp_ok, before.passed)
    assert before.tp_ok and before.cp_ok == (name != "gamma3")
    cfg = SolverConfig(seed=3)
    # Both solves meet one stop rule, which fixes a capacity to
    # `decimal_places` decimals, and the rewritten map equals the original
    # only up to the rounding of its summed terms, which `validate` allows
    # as `4 eps sum_k ||V_k||_F^2` on the Choi operator.
    size = np.vdot(new.kraus, new.kraus).real
    tol = 10.0 ** -cfg.decimal_places + 4 * np.finfo(float).eps * size
    res, base = multi_start(new, cfg), multi_start(ch, cfg)
    assert abs(res.capacity - base.capacity) <= tol
    if how.startswith("pair-"):
        # A pair of bit-identical generators with opposite signs cancels
        # exactly, so it leaves the channel when the channel is built, and
        # every reader of the generators sees the base channel's, bit for bit.
        assert new.kraus.tobytes() == ch.kraus.tobytes()
        assert new.signs.tobytes() == ch.signs.tobytes()
        assert after == before
        assert choi(new).tobytes() == choi(ch).tobytes()
        rng = np.random.default_rng(4)
        rho = random_density(rng, ch.dim_in)
        Y = random_hermitian(rng, ch.dim_out)
        assert apply(new, rho).tobytes() == apply(ch, rho).tobytes()
        assert dual_apply(new, Y).tobytes() == dual_apply(ch, Y).tobytes()
        g1 = qcap.fixture_channel("gamma1")
        assert tensor(new, g1)._transfer.tobytes() == tensor(ch, g1)._transfer.tobytes()
        assert (res.capacity, res.iterations_used) == (base.capacity, base.iterations_used)


@pytest.mark.parametrize("how", ["pair-1e4", "pair-1e5"])
def test_cancelling_pair_cannot_hide_a_non_cp_part(how):
    # Amplitude damping plus the non-CP part `(b X, -1)`, `(b Z, +1)` at
    # b = 1e-3 is exactly trace preserving, with Choi eigenvalue -1.0e-6.
    # Were the pair's generators counted, the rounding allowance
    # `4 eps sum_k ||V_k||_F^2` would reach 3.6e-5 at a = 1e5 and pass that
    # eigenvalue; the channel drops the pair, so the report is the base
    # map's, field by field.
    X, Z = PAULI_X * 1e-3, PAULI_Z * 1e-3
    ch = Channel(np.concatenate([AMPLITUDE_DAMPING, [X, Z]]), [1.0, 1.0, -1.0, 1.0])
    report = validate(rewritten(ch, how))
    assert not report.cp_ok
    assert report == validate(ch)


def test_cancelling_pairs_leave_the_size_budget():
    # Four factors of six generators would make 6^4 > 256 products; less
    # the pair each has gamma1's four, and 4^4 = 256 is within the budget.
    g1 = rewritten(qcap.fixture_channel("gamma1"), "pair-1e4")
    assert g1.n_generators == 4
    _require_budget([g1] * 4)


def test_a_stack_that_cancels_entirely_is_refused():
    W = AMPLITUDE_DAMPING[0]
    with pytest.raises(ValueError, match="all cancel in pairs"):
        Channel([W, W, 2 * W, 2 * W], [1.0, -1.0, -1.0, 1.0])


def compose(outer, inner):
    # `outer o inner`: the generators `W_j V_i`, with the products of their signs.
    K = outer.kraus[:, None] @ inner.kraus[None]
    signs = np.outer(outer.signs, inner.signs).ravel()
    return Channel(K.reshape(-1, outer.dim_out, inner.dim_in), signs)


CP_QUBIT_MAPS = ["gamma1", "gamma2", "gamma4"]


@pytest.mark.parametrize("second", CP_QUBIT_MAPS)
@pytest.mark.parametrize("first", CP_QUBIT_MAPS)
def test_processing_never_raises_capacity(first, second):
    g1, g2 = qcap.fixture_channel(first), qcap.fixture_channel(second)
    assert validate(g1).passed and validate(g2).passed  # the relation needs CP maps
    cfg = SolverConfig(seed=3)
    # The composite's reported capacity is at most its capacity, which is
    # at most min(C(G1), C(G2)), and each factor's reported capacity lies
    # at most 10^-places below its own: a one-sided bound.
    bound = min(multi_start(g, cfg).capacity for g in (g1, g2)) + 10.0 ** -cfg.decimal_places
    assert multi_start(compose(g2, g1), cfg).capacity <= bound


@pytest.mark.slow
def test_factor_order_keeps_capacity_and_entanglement():
    a, b = qcap.fixture_channel("gamma5"), qcap.fixture_channel("gamma6")
    cfg = SolverConfig(seed=3)
    ab = multi_start(product("gamma5", "gamma6"), cfg)
    ba = multi_start(product("gamma6", "gamma5"), cfg)
    # `A (x) B` and `B (x) A` are one map up to a swap of the factors, so
    # both solves approach one capacity from below and settle within
    # 10^-places of it.  The entanglement each reports, with `ent_dims`
    # swapped along with the factors, is held to the same decimals.
    tol = 10.0 ** -cfg.decimal_places
    assert abs(ab.capacity - ba.capacity) <= tol
    ent_ab = entanglement(ab.ensemble, a.dim_in, b.dim_in)
    ent_ba = entanglement(ba.ensemble, b.dim_in, a.dim_in)
    assert abs(ent_ab - ent_ba) <= tol
