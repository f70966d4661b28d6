"""Counting, sampling, presets, and subnet-spec parsing."""

import re
import tracemalloc

import pytest

from ofat.errors import ConfigurationError
from ofat.frontend import desk_frontend
from ofat.rng import Rng
from ofat.spaces import (
    SearchSpace,
    SubnetConfig,
    all_subnets,
    base_space,
    count_subnets,
    desk_space,
    ffn_hidden,
    max_subnet,
    mid_subnet,
    min_subnet,
    named_subnet,
    parse_subnet_spec,
    sample_subnet,
    small_space,
    validate_config,
)
from ofat.train import TeacherArch


def test_count_small_space_exact():
    # 3 embeds x sum over depth 10..12 of (3 heads x 3 ratios)^depth
    assert count_subnets(small_space()) == 951_892_141_473
    assert count_subnets(small_space()) == 3 * (9**10 + 9**11 + 9**12)


def test_count_base_space_exact():
    assert count_subnets(base_space()) == 6_530_347_008
    assert count_subnets(base_space()) == 3 * 6**12


def test_count_singleton_space():
    space = desk_space(embed_dims=(32,), head_choices=(2,), ffn_ratios=(3.0,), depths=(2,))
    assert count_subnets(space) == 1


@pytest.mark.parametrize("dims", [
    ((8, 16), (1, 2), (2.0, 3.0), (1, 2)),
    ((8,), (1, 2, 3), (2.0,), (1, 3)),
    ((8, 16, 24), (2,), (2.0, 2.5), (2,)),
])
def test_count_matches_brute_force_enumeration(dims):
    embeds, heads, ratios, depths = dims
    space = desk_space(embed_dims=embeds, head_choices=heads, ffn_ratios=ratios,
                       depths=depths, conv_groups=4, head_dim=4)
    enumerated = sum(1 for _ in all_subnets(space))
    assert enumerated <= 10_000
    assert count_subnets(space) == enumerated


def test_brute_force_enumeration_is_distinct():
    space = desk_space(embed_dims=(8, 16), head_choices=(1, 2), ffn_ratios=(2.0, 3.0), depths=(1, 2),
                       conv_groups=4, head_dim=4)
    configs = list(all_subnets(space))
    assert len(configs) == len(set(configs))


def test_sample_singleton_space_returns_unique_config():
    space = desk_space(embed_dims=(32,), head_choices=(2,), ffn_ratios=(3.0,), depths=(2,))
    cfg = sample_subnet(space, Rng(1, 4))
    assert cfg == SubnetConfig(32, 2, (2, 2), (3.0, 3.0))


def test_sample_reproducible_by_seed():
    space = desk_space()
    a = [sample_subnet(space, Rng(3, 4)) for _ in range(1)]
    b = [sample_subnet(space, Rng(3, 4)) for _ in range(1)]
    assert a == b
    rng1, rng2 = Rng(3, 4), Rng(3, 4)
    seq1 = [sample_subnet(space, rng1) for _ in range(20)]
    seq2 = [sample_subnet(space, rng2) for _ in range(20)]
    assert seq1 == seq2


def test_sample_membership_and_per_layer_independence():
    space = desk_space()
    rng = Rng(5, 4)
    seen_mixed_heads = False
    for _ in range(100):
        cfg = sample_subnet(space, rng)
        validate_config(space, cfg)
        if len(set(cfg.heads)) > 1:
            seen_mixed_heads = True
    assert seen_mixed_heads, "per-layer head sampling should differ across layers"


def test_sample_embed_uniformity_base_space_1e5_draws():
    space = base_space()
    rng = Rng(6, 4)
    counts = {e: 0 for e in space.embed_dims}
    n = 100_000
    for _ in range(n):
        counts[sample_subnet(space, rng).embed_dim] += 1
    for e, c in counts.items():
        assert abs(c / n - 1 / 3) < 0.01, (e, c / n)


def test_min_max_subnets_reference_presets():
    s = small_space()
    lo = min_subnet(s)
    assert (lo.embed_dim, lo.depth) == (256, 10)
    assert set(lo.heads) == {4} and set(lo.ffn_ratio) == {3.0}
    b = base_space()
    hi = max_subnet(b)
    assert (hi.embed_dim, hi.depth) == (768, 12)
    assert set(hi.heads) == {12} and set(hi.ffn_ratio) == {4.0}


def test_min_equals_max_for_singleton():
    space = desk_space(embed_dims=(32,), head_choices=(2,), ffn_ratios=(3.0,), depths=(2,))
    assert min_subnet(space) == max_subnet(space) == mid_subnet(space)


def test_ffn_hidden_round_half_up():
    assert ffn_hidden(3.5, 3) == 11  # 10.5 rounds up
    assert ffn_hidden(3.0, 48) == 144
    assert ffn_hidden(2.5, 5) == 13  # 12.5 rounds up


def test_space_validation_rejects_bad_sets():
    with pytest.raises(ConfigurationError):
        desk_space(embed_dims=(48, 32))  # not increasing
    with pytest.raises(ConfigurationError):
        desk_space(embed_dims=())
    with pytest.raises(ConfigurationError):
        desk_space(embed_dims=(30, 48), conv_groups=4)  # divisibility
    for bad in ({"head_choices": (-2, 2, 4)}, {"head_choices": (0,)}, {"embed_dims": (0, 32)},
                {"ffn_ratios": (0.0, 4.0)}, {"ffn_ratios": (-1.0,)}, {"depths": (0, 2)}):
        with pytest.raises(ConfigurationError, match="positive"):
            desk_space(**bad)
    for bad in ({"heads": 0}, {"heads": -1}, {"dim": 0}, {"ffn_ratio": 0.0}, {"depth": 0}):
        with pytest.raises(ConfigurationError, match="positive"):
            TeacherArch(**bad).singleton_space(desk_frontend())


def test_validate_config_rejects_nonmembers():
    space = desk_space()
    with pytest.raises(ConfigurationError):
        validate_config(space, SubnetConfig(40, 2, (2, 2), (3.0, 3.0)))
    with pytest.raises(ConfigurationError):
        validate_config(space, SubnetConfig(32, 5, (2,) * 5, (3.0,) * 5))
    with pytest.raises(ConfigurationError):
        validate_config(space, SubnetConfig(32, 2, (2, 7), (3.0, 3.0)))
    with pytest.raises(ConfigurationError):
        SubnetConfig(32, 2, (2,), (3.0, 3.0))  # wrong per-layer lengths


def test_named_presets():
    b = base_space()
    a_base = named_subnet(b, "a_base")
    assert a_base.embed_dim == 640 and a_base.depth == 12
    assert set(a_base.heads) == {10}
    assert ffn_hidden(a_base.ffn_ratio[0], a_base.embed_dim) == 2560
    s = small_space()
    a_small = named_subnet(s, "a_small")
    assert a_small.embed_dim == 384 and set(a_small.heads) == {6}
    assert ffn_hidden(a_small.ffn_ratio[0], a_small.embed_dim) == 1536
    with pytest.raises(ConfigurationError):
        named_subnet(s, "a_base")  # 640-dim subnet does not live in the small space
    with pytest.raises(ConfigurationError):
        named_subnet(s, "banana")


def test_parse_subnet_spec_inline():
    space = desk_space()
    cfg = parse_subnet_spec(space, "embed=48,depth=3,heads=2-3-4,ratios=3.0-3.5-4.0")
    assert cfg == SubnetConfig(48, 3, (2, 3, 4), (3.0, 3.5, 4.0))
    cfg = parse_subnet_spec(space, "embed=32,depth=2,heads=2,ratios=3.5")
    assert cfg.heads == (2, 2) and cfg.ffn_ratio == (3.5, 3.5)
    assert parse_subnet_spec(space, "mid") == mid_subnet(space)
    with pytest.raises(ConfigurationError):
        parse_subnet_spec(space, "embed=48,depth=3,heads=2-3")  # wrong length
    with pytest.raises(ConfigurationError):
        parse_subnet_spec(space, "embed=48,depth=3,color=red")
    for spec, named in (("embed=abc,depth=2", "'embed'.*'abc'"), ("embed=32,depth=x", "'depth'.*'x'"),
                        ("embed=32,depth=2,heads=2-y", "'heads'.*'y'"),
                        ("embed=32,depth=2,ratios=q", "'ratios'.*'q'")):
        with pytest.raises(ConfigurationError, match=named):
            parse_subnet_spec(space, spec)


@pytest.mark.parametrize("depth", [10_000_000, -3])
def test_parse_subnet_spec_refuses_depth_outside_the_space_before_expanding(depth):
    space = desk_space()
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError, match=re.escape(f"depth {depth} not in {space.depths}")):
            parse_subnet_spec(space, f"embed=32,depth={depth}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_space_dict_round_trip():
    space = desk_space()
    assert SearchSpace.from_dict(space.to_dict()) == space
    assert SearchSpace.from_dict(small_space().to_dict()) == small_space()
