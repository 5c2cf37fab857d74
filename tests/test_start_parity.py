"""Every start of a fixed set keeps the iteration count and capacity it had.

Each change to the step on kets must leave every start taking the same
iterations to the same capacity, within rounding.  This pins that rule
on a fixed set of 84 starts: every start `multi_start` makes (default
configs, seeds 1 and 23) on `gamma1` over 3 and 4 copies, the three
qutrit products, `gamma2 (x) gamma4`, `gamma1 (x) gamma3`,
`gamma1 (x) gamma5`, `gamma5` and `gamma6`.  The literals were recorded
with the step on complex matrices, before it moved to real Hermitian
coordinates, with one BLAS thread.
"""

import functools

import pytest

import qcap
from qcap import SolverConfig, initial_ensemble, tensor

# A capacity moves at second order in the states near the optimum, so a
# rounding-level change in the step moves it by rounding alone (1.6e-15
# at most here when the step moved to real coordinates).
TOL = 1e-12

# (factors, seed): (iterations, capacity) of each start, in start order.
RECORDED = {
    (("gamma1", "gamma1", "gamma1"), 1): [
        (65, 0.41449617017171736),
        (51, 0.4144960824778412),
        (73, 0.414495288828165),
        (78, 0.4144944617626396),
        (103, 0.41449438513600256),
    ],
    (("gamma1", "gamma1", "gamma1"), 23): [
        (87, 0.41449439654831055),
        (155, 0.41449438396030014),
        (111, 0.4144943984101679),
        (92, 0.41449439574345237),
        (82, 0.4144944604075087),
    ],
    (("gamma1", "gamma1", "gamma1", "gamma1"), 1): [
        (132, 0.5526602402129015),
        (155, 0.5526544946690719),
        (100, 0.5526593237108637),
    ],
    (("gamma1", "gamma1", "gamma1", "gamma1"), 23): [
        (115, 0.5526593507869229),
        (93, 0.5526584945135338),
        (134, 0.5526593482750006),
    ],
    (("gamma5", "gamma5"), 1): [
        (182, 1.3547142785905895),
        (190, 1.354714290750535),
        (182, 1.354714259227999),
    ],
    (("gamma5", "gamma5"), 23): [
        (186, 1.3547142551472127),
        (181, 1.354714276297362),
        (182, 1.3547142868190634),
    ],
    (("gamma6", "gamma6"), 1): [
        (57, 1.659160103037611),
        (51, 1.6591601097343425),
        (53, 1.6591600262059063),
    ],
    (("gamma6", "gamma6"), 23): [
        (47, 1.6591601076436187),
        (51, 1.659160096041953),
        (55, 1.659160032342256),
    ],
    (("gamma5", "gamma6"), 1): [
        (163, 1.50693639407745),
        (166, 1.5069364085262982),
        (167, 1.506936388122858),
    ],
    (("gamma5", "gamma6"), 23): [
        (165, 1.5069363726476506),
        (170, 1.5069364254008264),
        (167, 1.5069363750375335),
    ],
    (("gamma2", "gamma4"), 1): [
        (39, 0.34850115422792993),
        (60, 0.34850114104309426),
        (40, 0.34850120704580745),
        (38, 0.3485011601017963),
        (51, 0.3485011278249299),
    ],
    (("gamma2", "gamma4"), 23): [
        (53, 0.3485011447174218),
        (27, 0.348501266483201),
        (56, 0.3485011480673871),
        (49, 0.3485011326141123),
        (63, 0.348501146254083),
    ],
    (("gamma1", "gamma3"), 1): [
        (54, 0.3812334192092717),
        (60, 0.38123340460309163),
        (45, 0.38123344032979367),
        (52, 0.38123342462701926),
        (57, 0.3812334191230693),
    ],
    (("gamma1", "gamma3"), 23): [
        (60, 0.3812334212784779),
        (84, 0.38123341742896166),
        (54, 0.38123344514320734),
        (63, 0.3812334374774824),
        (57, 0.38123341851536907),
    ],
    (("gamma1", "gamma5"), 1): [
        (157, 0.815522172226369),
        (169, 0.8155221781200218),
        (172, 0.8155221957853425),
        (168, 0.8155222162286493),
        (180, 0.8155222036018402),
    ],
    (("gamma1", "gamma5"), 23): [
        (166, 0.8155221585601404),
        (176, 0.8155222009142433),
        (166, 0.8155222472724254),
        (175, 0.8155221908728854),
        (162, 0.8155221869192373),
    ],
    (("gamma5",), 1): [
        (144, 0.6773563887264991),
        (117, 0.6773572462405014),
        (154, 0.6773563589728302),
        (139, 0.6773564303009089),
        (154, 0.6773563828952306),
    ],
    (("gamma5",), 23): [
        (131, 0.6773564206565433),
        (175, 0.6773563744359266),
        (156, 0.6773563600282482),
        (151, 0.6773570574478885),
        (165, 0.6773563420571272),
    ],
    (("gamma6",), 1): [
        (47, 0.8295800541041785),
        (55, 0.8295800492483105),
        (40, 0.8295800516528649),
        (45, 0.8295800522872885),
        (41, 0.8295800521583563),
    ],
    (("gamma6",), 23): [
        (40, 0.8295800525865129),
        (50, 0.829580054370112),
        (44, 0.8295800538858291),
        (46, 0.8295800514941403),
        (46, 0.8295800501447224),
    ],
}


@pytest.mark.slow
@pytest.mark.parametrize(
    "factors, seed", list(RECORDED), ids=[f"{'x'.join(f)}-seed{s}" for f, s in RECORDED]
)
def test_each_start_keeps_its_count_and_capacity(factors, seed):
    ch = functools.reduce(tensor, [qcap.fixture_channel(name) for name in factors])
    assert not qcap.solver._pauli_path(ch, None)
    cfg = SolverConfig(seed=seed).resolved(ch)
    inits = [initial_ensemble(ch.dim_in, cfg.n_states, seed, i) for i in range(cfg.starts)]
    results = qcap.solver._iterate(ch, inits, cfg)
    got = [res.iterations_used for res in results]
    assert got == [iters for iters, _ in RECORDED[factors, seed]]
    for res, (_, capacity) in zip(results, RECORDED[factors, seed], strict=True):
        assert res.converged
        assert abs(res.capacity - capacity) <= TOL
