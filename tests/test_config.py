"""Run-config parsing: defaults, rejection, echo round trip, digests."""

import re

import pytest

from ofat.config import DEFAULTS, RunConfig
from ofat.errors import ConfigurationError


def test_empty_config_gets_all_defaults():
    cfg = RunConfig.from_text("")
    assert cfg.seed == 0
    assert cfg.data["train"]["steps"] == 300
    assert cfg.data["distill"]["p"] == 0.65
    assert cfg.data["distill"]["k"] == 8
    space = cfg.space()
    assert space.embed_dims == (32, 48, 64)
    assert space.head_dim == 8


def test_overrides_apply_and_nested_defaults_survive():
    cfg = RunConfig.from_text("""
seed: 9
train:
  steps: 50
  learning_rate: 2e-3
  weight_decay: 0
space:
  ffn_ratios: [3, 3.5, "4.0"]
distill:
  p: 5e-1
  teacher:
    depth: 9
""")
    assert cfg.seed == 9
    assert cfg.data["train"]["steps"] == 50
    assert cfg.data["train"]["batch_size"] == 4  # untouched default
    assert cfg.data["train"]["learning_rate"] == "2e-3"  # PyYAML reads it as a string, kept as given
    assert cfg.train_config(stage=1).learning_rate == 2e-3
    assert cfg.space().ffn_ratios == (3.0, 3.5, 4.0)
    assert cfg.mask_spec().p == 0.5
    assert cfg.data["distill"]["teacher"]["depth"] == 9
    assert cfg.data["distill"]["teacher"]["heads"] == 8


def test_unknown_key_rejected_with_path():
    with pytest.raises(ConfigurationError, match="train.stepz"):
        RunConfig.from_text("train:\n  stepz: 10\n")
    with pytest.raises(ConfigurationError, match="distill.teacher.depht"):
        RunConfig.from_text("distill:\n  teacher:\n    depht: 3\n")
    with pytest.raises(ConfigurationError, match="bogus"):
        RunConfig.from_text("bogus: 1\n")


def test_invalid_values_name_their_field():
    with pytest.raises(ConfigurationError, match="train.steps"):
        RunConfig.from_text("train:\n  steps: 0\n")
    with pytest.raises(ConfigurationError, match="distill.p"):
        RunConfig.from_text("distill:\n  p: 1.5\n")
    with pytest.raises(ConfigurationError, match="distill.p"):
        RunConfig.from_text("distill:\n  p: 2e0\n")
    with pytest.raises(ConfigurationError, match="distill.k"):
        RunConfig.from_text("distill:\n  k: 99\n")
    with pytest.raises(ConfigurationError, match="warmup"):
        RunConfig.from_text("train:\n  steps: 5\n  warmup_steps: 6\n")
    with pytest.raises(ConfigurationError, match="train.ofa_init"):
        RunConfig.from_text("train:\n  ofa_init: pretrained_external\n")
    for key, value in (("dim", 0), ("depth", 0), ("heads", 0), ("heads", -1), ("head_dim", 0),
                       ("ffn_ratio", 0.0), ("ffn_ratio", -2.0), ("warmup_steps", -1), ("dim", 30)):
        with pytest.raises(ConfigurationError, match=f"distill.teacher.{key}"):
            RunConfig.from_text(f"distill:\n  teacher:\n    {key}: {value}\n")


def test_echo_round_trip_lossless():
    cfg = RunConfig.from_text("seed: 4\ntrain:\n  steps: 77\n")
    echoed = cfg.echo()
    again = RunConfig.from_text(echoed)
    assert again.data == cfg.data
    assert again.echo() == echoed


def test_digest_stable_and_sensitive():
    a = RunConfig.from_text("seed: 1\n")
    b = RunConfig.from_text("seed: 1\n")
    c = RunConfig.from_text("seed: 2\n")
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()
    assert len(a.digest()) == 16


def test_space_presets():
    small = RunConfig.from_text("space:\n  preset: small\n").space()
    assert small.embed_dims == (256, 384, 512)
    base = RunConfig.from_text("space:\n  preset: base\n").space()
    assert base.depths == (12,)
    with pytest.raises(ConfigurationError, match="preset"):
        RunConfig.from_text("space:\n  preset: giant\n")


def test_builders_produce_consistent_objects():
    cfg = RunConfig.from_text("")
    tc = cfg.train_config(stage=1)
    assert tc.stage == 1 and tc.steps == 300
    assert tc.adam_betas == (0.9, 0.98)
    ms = cfg.mask_spec()
    assert ms.p == 0.65 and ms.span_length == 10
    tg = cfg.target_config()
    assert tg.k == 8
    arch = cfg.teacher_arch()
    assert arch.dim == 64 and arch.depth == 8
    budget = cfg.search_budget(max_params=12345)
    assert budget.max_params == 12345 and budget.n_candidates == 1000


def test_yaml_error_is_config_error(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("train: [unclosed\n")
    with pytest.raises(ConfigurationError, match="YAML"):
        RunConfig.from_file(path)


def _leaves(tree, path=""):
    for key, value in tree.items():
        where = f"{path}.{key}" if path else key
        yield from _leaves(value, where) if isinstance(value, dict) else [(where, value)]


# Values of another type than each kind of default.
_WRONG = {
    bool: ["no", 1, None],
    int: [2.5, True, "8", None],
    float: ["abc", True, [1.0], None],
    str: [5, True, None],
}


def _wrong_values(default):
    if isinstance(default, list):
        return [default[0], {"a": 1}] + [[*default[:-1], bad] for bad in _WRONG[type(default[0])]]
    return _WRONG[type(default)] + [{"a": 1}]


def _nested(where, value):
    for key in reversed(where.split(".")):
        value = {key: value}
    return value


@pytest.mark.parametrize("where, default", list(_leaves(DEFAULTS)), ids=[w for w, _ in _leaves(DEFAULTS)])
def test_every_field_refuses_a_value_of_another_type_by_name(where, default):
    for bad in _wrong_values(default):
        with pytest.raises(ConfigurationError, match=re.escape(where)):
            RunConfig(_nested(where, bad))
