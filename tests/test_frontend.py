"""Frozen frontend: stride arithmetic, parameter counts, determinism."""

import numpy as np
import pytest

from ofat.errors import ConfigurationError
from ofat.frontend import Frontend, FrontendSpec, desk_frontend, hubert_base_frontend
from ofat.rng import Rng


def test_desk_frontend_output_length_is_ceil():
    spec = desk_frontend(dim=16, kernel=5)
    fe = Frontend.build(spec, Rng(1, 8))
    assert spec.total_stride == 4
    for n in (4, 5, 16, 17, 96, 511, 512, 513):
        out = fe.forward(np.zeros(n, dtype=np.float32) + 0.1)
        assert out.shape == (int(np.ceil(n / 4)), 16), n


def test_hubert_frontend_constants():
    spec = hubert_base_frontend()
    assert spec.out_dim == 512
    assert spec.total_stride == 320  # 5 * 2^4 * 2^2
    assert spec.param_count() == 4_200_448


def test_desk_frontend_param_count_formula():
    spec = desk_frontend(dim=16, kernel=5)
    # layer0: 16*1*5 + 16; layer1: 16*16*5 + 16
    assert spec.param_count() == (16 * 5 + 16) + (16 * 16 * 5 + 16)


def test_frontend_deterministic_by_seed():
    spec = desk_frontend()
    a = Frontend.build(spec, Rng(3, 8))
    b = Frontend.build(spec, Rng(3, 8))
    x = Rng(4, 2).uniform(64).astype(np.float32)
    np.testing.assert_array_equal(a.forward(x), b.forward(x))
    for wa, wb in zip(a.arrays.values(), b.arrays.values()):
        np.testing.assert_array_equal(wa, wb)


def test_frontend_named_arrays_round_trip():
    spec = desk_frontend()
    fe = Frontend.build(spec, Rng(5, 8))
    clone = Frontend.from_arrays(spec, fe.arrays)
    x = Rng(6, 2).uniform(32).astype(np.float32)
    np.testing.assert_array_equal(fe.forward(x), clone.forward(x))


def test_frontend_from_arrays_refuses_a_missing_or_misshapen_array():
    spec = desk_frontend()
    arrays = Frontend.build(spec, Rng(5, 8)).arrays
    assert list(arrays) == list(spec.array_shapes())
    with pytest.raises(ConfigurationError, match="frontend.conv1.b has nothing"):
        Frontend.from_arrays(spec, {n: a for n, a in arrays.items() if n != "frontend.conv1.b"})
    with pytest.raises(ConfigurationError, match="frontend.conv0.w has shape"):
        Frontend.from_arrays(spec, {**arrays, "frontend.conv0.w": arrays["frontend.conv0.w"][:, :, :-1]})


def test_frontend_spec_dict_round_trip():
    for spec in (desk_frontend(), hubert_base_frontend()):
        assert FrontendSpec.from_dict(spec.to_dict()) == spec


def test_frontend_rejects_2d_input():
    fe = Frontend.build(desk_frontend(), Rng(7, 8))
    with pytest.raises(Exception):
        fe.forward(np.zeros((4, 4), dtype=np.float32))
