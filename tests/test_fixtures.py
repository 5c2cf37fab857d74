import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qcap
from qcap import FIXTURE_NAMES, fixture_channel
from qcap.channels import apply, tp_residual, validate
from support import bloch_state, bloch_vector, channel_to_dict

CHANNEL_DIR = Path(__file__).resolve().parent.parent / "channels"


def test_registry_names():
    assert FIXTURE_NAMES == ("gamma1", "gamma2", "gamma3", "gamma4", "gamma5", "gamma6")


def test_unknown_name_rejected():
    with pytest.raises(ValueError, match="unknown channel"):
        fixture_channel("gamma7")


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_trace_preserving(name):
    assert tp_residual(fixture_channel(name)) < 1e-9


@pytest.mark.parametrize("name", ["gamma1", "gamma2", "gamma4", "gamma5", "gamma6"])
def test_completely_positive_fixtures_validate(name):
    assert validate(fixture_channel(name)).passed


def test_gamma3_is_signed_but_consistent():
    # The printed affine data for gamma3 fails complete positivity; the
    # registry carries it in signed form.  Both CP checks must agree on
    # the verdict, and the map must still reproduce its affine action.
    ch = fixture_channel("gamma3")
    report = validate(ch)
    assert report.tp_ok
    assert not report.cp_ok
    assert report.checks_agree is True
    assert np.any(ch.signs == -1.0)
    rng = np.random.default_rng(7)
    for _ in range(25):
        theta = rng.standard_normal(3)
        theta /= max(np.linalg.norm(theta), 1.0)
        out = apply(ch, bloch_state(theta))
        assert_allclose(bloch_vector(out), ch.origin.A @ theta + ch.origin.b, atol=1e-9)


def test_only_gamma3_carries_signs():
    for name in FIXTURE_NAMES:
        ch = fixture_channel(name)
        if name == "gamma3":
            assert not np.all(ch.signs == 1.0)
        else:
            assert np.all(ch.signs == 1.0)


@pytest.mark.parametrize("name", ["gamma5", "gamma6"])
def test_qutrit_completion_generator(name):
    # V3 completes sum V^dag V = I exactly.
    ch = fixture_channel(name)
    assert ch.n_generators == 3
    total = sum(V.conj().T @ V for V in ch.kraus)
    assert_allclose(total, np.eye(3), atol=1e-12)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_generator_count_within_bound(name):
    ch = fixture_channel(name)
    assert 1 <= ch.n_generators <= ch.dim_in * ch.dim_out


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_descriptor_files_match_registry(name):
    on_disk = json.loads((CHANNEL_DIR / f"{name}.json").read_text())
    assert on_disk == channel_to_dict(fixture_channel(name))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_descriptor_files_load_as_channels(name):
    ch = qcap.load_channel(CHANNEL_DIR / f"{name}.json")
    assert ch.name == name
    ref = fixture_channel(name)
    assert ch.kraus.tobytes() == ref.kraus.tobytes() and ch.kraus.shape == ref.kraus.shape
    assert ch.signs.tobytes() == ref.signs.tobytes()
