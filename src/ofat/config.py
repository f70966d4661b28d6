"""Run configuration: one YAML document drives every command.

Sections: seed (int), space, train, distill, search, paths. Every optional
key has a documented default below; unknown keys are rejected with their
full path so typos fail before any compute. parse -> validate -> echo is
lossless: the echo is the fully-defaulted document, and re-parsing it
yields the same normalized mapping.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math

import yaml

from .distill import MaskSpec, TargetConfig
from .errors import ConfigurationError
from .frontend import FrontendSpec, desk_frontend, hubert_base_frontend
from .search import SearchBudget
from .spaces import SearchSpace, base_space, small_space
from .train import OFA_INITS, TeacherArch, TrainConfig

_SPACE_PRESETS = ("desk", "small", "base")
_FRONTEND_PRESETS = ("desk", "hubert_base")

DEFAULTS = {
    "seed": 0,
    "space": {
        "preset": "desk",
        "embed_dims": [32, 48, 64],
        "head_choices": [2, 3, 4],
        "ffn_ratios": [3.0, 3.5, 4.0],
        "depths": [2, 3, 4],
        "head_dim": 8,
        "conv_groups": 4,
        "conv_kernel": 7,
        "frontend": {"preset": "desk", "dim": 16, "kernel": 5},
        "teacher_dim": 64,
    },
    "train": {
        "steps": 300,
        "batch_size": 4,
        "sequence_length": 512,
        "n_train_sequences": 48,
        "n_val_sequences": 16,
        "learning_rate": 2.0e-3,
        "warmup_steps": 30,
        "adam_beta1": 0.9,
        "adam_beta2": 0.98,
        "adam_eps": 1.0e-6,
        "weight_decay": 0.0,
        "ofa_init": "stage1_weights",
    },
    "distill": {
        "k": 8,
        "p": 0.65,
        "span_length": 10,
        "mask_convention": "fraction",
        "l1_reduction": "mean",
        "teacher": {
            "dim": 64,
            "depth": 8,
            "heads": 8,
            "ffn_ratio": 4.0,
            "head_dim": 8,
            "warmup_steps": 0,
            "warmup_lr": 1.0e-3,
        },
    },
    "search": {
        "max_params": 0,  # 0 means "max subnet size" (no constraint)
        "n_candidates": 1000,
        "eval_batches": 4,
        "includes_frontend": True,
        "includes_head": True,
    },
    "paths": {
        "out_dir": "runs",
        "teacher": "",
        "train_data": "",
        "val_data": "",
    },
}


def _merge_defaults(defaults, given, path=""):
    """Defaults overlaid by given keys; unknown keys and mistyped values rejected by path."""
    if not isinstance(given, dict):
        raise ConfigurationError(f"config section '{path or '<root>'}' must be a mapping")
    merged = copy.deepcopy(defaults)
    for key, value in given.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigurationError(f"unknown config key '{where}'")
        if isinstance(defaults[key], dict):
            merged[key] = _merge_defaults(defaults[key], value, where)
        else:
            _check_type(defaults[key], value, where)
            merged[key] = value
    return merged


_KINDS = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string", list: "a list"}


def _check_type(default, value, where: str) -> None:
    """Refuse a value whose type is not its default's, naming its field. A float
    takes a finite float, int, or string float() reads (PyYAML reads `2e-3` as
    one), so `.inf`, `.nan`, `1e400` and "nan" are refused; list items follow
    the default's first item. Nothing is converted."""
    ok = type(value) is type(default)
    if type(default) is float:
        try:
            ok = type(value) in (float, int, str) and math.isfinite(float(value))
        except (ValueError, OverflowError):
            ok = False
    _expect(ok, where, f"{_KINDS[type(default)]}, got {value!r}")
    if type(default) is list:
        for i, item in enumerate(value):
            _check_type(default[0], item, f"{where}[{i}]")


class RunConfig:
    """Validated, fully-defaulted view of one YAML run config."""

    def __init__(self, raw: dict | None):
        self.data = _merge_defaults(DEFAULTS, raw or {})
        self._validate()

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ConfigurationError(f"{path}: not UTF-8 text: {exc}") from exc
        return cls.from_text(text, f"{path}: ")

    @classmethod
    def from_text(cls, text: str, source: str = "") -> "RunConfig":
        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"{source}invalid YAML: {exc}") from exc
        return cls({} if raw is None else raw)

    def _validate(self) -> None:
        d = self.data
        _expect(d["seed"] >= 0, "seed", "a non-negative integer")
        sp = d["space"]
        _expect(sp["preset"] in _SPACE_PRESETS, "space.preset", f"one of {_SPACE_PRESETS}")
        _expect(sp["frontend"]["preset"] in _FRONTEND_PRESETS,
                "space.frontend.preset", f"one of {_FRONTEND_PRESETS}")
        # the teacher's positional conv reads it under every preset (small and base set their own)
        _expect(sp["conv_kernel"] % 2 == 1, "space.conv_kernel", "odd (the positional conv keeps the frame count)")
        tr = d["train"]
        for key in ("steps", "batch_size", "sequence_length", "n_train_sequences",
                    "n_val_sequences", "warmup_steps"):
            _expect(tr[key] >= 0, f"train.{key}", "a non-negative integer")
        _expect(tr["steps"] > 0, "train.steps", "> 0")
        for key in ("batch_size", "sequence_length"):
            _expect(tr[key] >= 1, f"train.{key}", ">= 1")
        for key in ("adam_beta1", "adam_beta2"):
            _expect(0.0 <= float(tr[key]) < 1.0, f"train.{key}", "in [0, 1)")
        _expect(tr["warmup_steps"] <= tr["steps"], "train.warmup_steps", "<= train.steps")
        _expect(tr["ofa_init"] in OFA_INITS, "train.ofa_init", f"one of {OFA_INITS}")
        di = d["distill"]
        # p = 0 masks no step, and the loss needs at least one per sequence
        _expect(0.0 < float(di["p"]) <= 1.0, "distill.p", "in (0, 1]")
        _expect(di["span_length"] >= 1, "distill.span_length", ">= 1")
        _expect(di["mask_convention"] in ("fraction", "span_start"),
                "distill.mask_convention", "'fraction' or 'span_start'")
        _expect(di["l1_reduction"] in ("mean", "sum"), "distill.l1_reduction", "'mean' or 'sum'")
        te = di["teacher"]
        for key, field in (("dim", "embed_dims"), ("depth", "depths"), ("heads", "head_choices"),
                           ("head_dim", "head_dim"), ("ffn_ratio", "ffn_ratios")):
            _expect(float(te[key]) > 0, f"distill.teacher.{key}", f"> 0 (the teacher's {field})")
        _expect(te["warmup_steps"] >= 0, "distill.teacher.warmup_steps", ">= 0")
        _expect(sp["conv_groups"] < 1 or te["dim"] % sp["conv_groups"] == 0, "distill.teacher.dim",
                f"divisible by space.conv_groups ({sp['conv_groups']})")  # < 1: space() names it
        _expect(di["k"] >= 1, "distill.k", ">= 1")
        _expect(di["k"] <= te["depth"], "distill.k", "<= distill.teacher.depth")
        se = d["search"]
        _expect(se["n_candidates"] >= 1, "search.n_candidates", ">= 1")
        _expect(se["eval_batches"] >= 1, "search.eval_batches", ">= 1")
        # Cross-checks the model construction relies on.
        self.space()  # raises with its own message if inconsistent

    # -- builders ------------------------------------------------------------

    def space(self) -> SearchSpace:
        sp = self.data["space"]
        frontend = self.frontend_spec()
        if sp["preset"] == "small":
            return small_space()
        if sp["preset"] == "base":
            return base_space()
        return SearchSpace(
            embed_dims=tuple(int(v) for v in sp["embed_dims"]),
            head_choices=tuple(int(v) for v in sp["head_choices"]),
            ffn_ratios=tuple(float(v) for v in sp["ffn_ratios"]),
            depths=tuple(int(v) for v in sp["depths"]),
            head_dim=int(sp["head_dim"]),
            conv_groups=int(sp["conv_groups"]),
            conv_kernel=int(sp["conv_kernel"]),
            frontend=frontend,
            teacher_dim=int(sp["teacher_dim"]),
        )

    def frontend_spec(self) -> FrontendSpec:
        fe = self.data["space"]["frontend"]
        if fe["preset"] == "hubert_base":
            return hubert_base_frontend()
        return desk_frontend(dim=int(fe["dim"]), kernel=int(fe["kernel"]))

    def train_config(self, stage: int, init_checkpoint=None, seed=None, ofa_init=None) -> TrainConfig:
        tr = self.data["train"]
        return TrainConfig(
            stage=stage,
            steps=tr["steps"],
            batch_size=tr["batch_size"],
            learning_rate=float(tr["learning_rate"]),
            warmup_steps=tr["warmup_steps"],
            adam_betas=(float(tr["adam_beta1"]), float(tr["adam_beta2"])),
            adam_eps=float(tr["adam_eps"]),
            weight_decay=float(tr["weight_decay"]),
            seed=self.data["seed"] if seed is None else seed,
            init_checkpoint=init_checkpoint,
            ofa_init=tr["ofa_init"] if ofa_init is None else ofa_init,
        )

    def mask_spec(self) -> MaskSpec:
        di = self.data["distill"]
        return MaskSpec(p=float(di["p"]), span_length=int(di["span_length"]),
                        convention=di["mask_convention"])

    def target_config(self) -> TargetConfig:
        return TargetConfig(k=int(self.data["distill"]["k"]))

    def teacher_arch(self) -> TeacherArch:
        te = self.data["distill"]["teacher"]
        sp = self.data["space"]
        _expect(sp["preset"] == "desk", "space.preset", "desk to build a teacher (small and base set no teacher)")
        return TeacherArch(
            dim=int(te["dim"]),
            depth=int(te["depth"]),
            heads=int(te["heads"]),
            ffn_ratio=float(te["ffn_ratio"]),
            head_dim=int(te["head_dim"]),
            conv_groups=int(sp["conv_groups"]),
            conv_kernel=int(sp["conv_kernel"]),
        )

    def search_budget(self, max_params=None, seed=None) -> SearchBudget:
        se = self.data["search"]
        return SearchBudget(
            max_params=int(se["max_params"] if max_params is None else max_params),
            n_candidates=int(se["n_candidates"]),
            eval_batches=int(se["eval_batches"]),
            seed=self.data["seed"] if seed is None else seed,
            includes_frontend=bool(se["includes_frontend"]),
            includes_head=bool(se["includes_head"]),
        )

    @property
    def seed(self) -> int:
        return self.data["seed"]

    @property
    def paths(self) -> dict:
        return self.data["paths"]

    def l1_reduction(self) -> str:
        return self.data["distill"]["l1_reduction"]

    # -- echo / digest ---------------------------------------------------------

    def echo(self) -> str:
        """The fully-defaulted document; re-parsing it round-trips."""
        return yaml.safe_dump(self.data, sort_keys=True)

    def digest(self) -> str:
        blob = json.dumps(self.data, sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _expect(ok: bool, where: str, what: str) -> None:
    if not ok:
        raise ConfigurationError(f"config field '{where}' must be {what}")
