"""End-to-end CLI runs in temp dirs, exit codes, determinism."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ofat
from ofat.checkpoint import load_checkpoint, load_model, save_checkpoint, save_model
from ofat.cli import main
from ofat.data import SyntheticDataset, load_dataset, save_dataset
from ofat.rng import Rng
from ofat.spaces import desk_space
from ofat.supernet import build_supernet

from conftest import assert_no_child_left

FAST_CONFIG = """
seed: 3
space:
  embed_dims: [8, 12, 16]
  head_choices: [1, 2]
  ffn_ratios: [2.0, 3.0]
  depths: [1, 2]
  head_dim: 4
  conv_groups: 4
  conv_kernel: 3
  frontend:
    dim: 8
    kernel: 5
  teacher_dim: 16
train:
  steps: 8
  batch_size: 2
  sequence_length: 64
  n_train_sequences: 4
  n_val_sequences: 3
  warmup_steps: 2
distill:
  k: 2
  span_length: 3
  teacher:
    dim: 16
    depth: 3
    heads: 4
    ffn_ratio: 2.0
    head_dim: 4
search:
  n_candidates: 8
  eval_batches: 2
paths:
  teacher: "{teacher}"
  train_data: "{train_data}"
  val_data: "{val_data}"
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One config + data + teacher set shared by the command tests."""
    root = tmp_path_factory.mktemp("cliruns")
    cfg_path = root / "run.yaml"
    data_dir = root / "data"
    teacher_path = root / "teacher.ofat"
    cfg_path.write_text(FAST_CONFIG.format(
        teacher=teacher_path,
        train_data=data_dir / "train.ofad",
        val_data=data_dir / "val.ofad",
    ))
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(data_dir)]) == 0
    assert main(["init-teacher", "--config", str(cfg_path), "--out", str(teacher_path)]) == 0
    return root, cfg_path, data_dir, teacher_path


@pytest.fixture(scope="module")
def trained(workdir):
    """A stage-1 supernet trained against the workdir teacher, and its extracted mid subnet."""
    root, cfg, _, _ = workdir
    s1, sub = root / "trained_s1.ofat", root / "trained_sub.ofat"
    assert main(["train", "--config", str(cfg), "--stage", "1", "--out", str(s1)]) == 0
    assert main(["extract", "--checkpoint", str(s1), "--subnet-spec", "mid", "--out", str(sub)]) == 0
    return s1, sub


@pytest.fixture(scope="module")
def teacher_b_config(workdir):
    """The workdir config with its teacher swapped for one of the same
    architecture and another seed, so another frontend."""
    root, cfg, data_dir, _ = workdir
    teacher_b = root / "teacher_b.ofat"
    seed_b = root / "seed_b.yaml"
    seed_b.write_text(cfg.read_text().replace("seed: 3", "seed: 4"))
    assert main(["init-teacher", "--config", str(seed_b), "--out", str(teacher_b)]) == 0
    cfg_b = root / "run_b.yaml"
    cfg_b.write_text(cfg.read_text().replace(str(root / "teacher.ofat"), str(teacher_b)))
    return cfg_b


def test_gen_data_creates_both_files_with_sidecars(workdir, capsys):
    root, cfg, data_dir, _ = workdir
    assert (data_dir / "train.ofad").exists()
    assert (data_dir / "val.ofad").exists()
    meta = json.loads((data_dir / "train.ofad.meta.json").read_text())
    assert "config_digest" in meta and "seed" in meta


def test_gen_data_deterministic_digest(workdir, tmp_path, capsys):
    root, cfg, data_dir, _ = workdir
    out2 = tmp_path / "data2"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out2 / "train.ofad").read_bytes() == (data_dir / "train.ofad").read_bytes()


def test_gen_data_rejects_zero_sequences(tmp_path):
    cfg = tmp_path / "zero.yaml"
    cfg.write_text("train:\n  n_train_sequences: 0\n")
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 2


def test_missing_config_file_is_config_error(tmp_path):
    assert main(["gen-data", "--config", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path / "d")]) == 2


def test_train_stage1_then_stage2_and_eval(workdir, tmp_path, capsys):
    root, cfg, data_dir, teacher = workdir
    s1 = tmp_path / "s1.ofat"
    s2 = tmp_path / "s2.ofat"
    assert main(["train", "--config", str(cfg), "--stage", "1", "--out", str(s1)]) == 0
    log = Path(str(s1) + ".log.csv").read_text()
    rows = [ln for ln in log.splitlines() if ln and not ln.startswith("#")]
    assert len(rows) == 1 + 8  # header + steps
    assert main(["train", "--config", str(cfg), "--stage", "2",
                 "--init", str(s1), "--out", str(s2)]) == 0
    capsys.readouterr()

    assert main(["eval", "--config", str(cfg), "--checkpoint", str(s2),
                 "--subnet-spec", "mid", "--data", str(data_dir / "val.ofad"),
                 "--bounds"]) == 0
    out = capsys.readouterr().out
    assert "loss[mid]:" in out and "bounds:" in out
    # determinism: a second eval prints the identical loss line
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(s2),
                 "--subnet-spec", "mid", "--data", str(data_dir / "val.ofad")]) == 0
    out2 = capsys.readouterr().out
    assert out.splitlines()[0] == out2.splitlines()[0]
    # the bounds, scored in one pass with mid, print what each prints alone
    alone = {}
    for spec in ("min", "max"):
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(s2),
                     "--subnet-spec", spec, "--data", str(data_dir / "val.ofad")]) == 0
        alone[spec] = capsys.readouterr().out.split(":")[1].strip()
    assert f"bounds: min_subnet={alone['min']} max_subnet={alone['max']} " in out


def test_train_stage2_without_init_is_config_error(workdir, tmp_path):
    root, cfg, _, _ = workdir
    assert main(["train", "--config", str(cfg), "--stage", "2",
                 "--out", str(tmp_path / "x.ofat")]) == 2


def test_extract_and_eval_extracted(workdir, tmp_path, capsys):
    root, cfg, data_dir, _ = workdir
    s1 = tmp_path / "s1.ofat"
    assert main(["train", "--config", str(cfg), "--stage", "1", "--out", str(s1)]) == 0
    sub = tmp_path / "sub.ofat"
    assert main(["extract", "--checkpoint", str(s1),
                 "--subnet-spec", "embed=12,depth=1,heads=2,ratios=2.0",
                 "--out", str(sub)]) == 0
    out = capsys.readouterr().out
    assert "equivalence_max_abs_diff" in out
    assert sub.stat().st_size < s1.stat().st_size  # proper subnet is strictly smaller
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(sub),
                 "--data", str(data_dir / "val.ofad")]) == 0
    assert "loss[extracted]:" in capsys.readouterr().out


def test_search_cli_outputs(workdir, tmp_path, capsys):
    root, cfg, data_dir, _ = workdir
    s1 = tmp_path / "s1.ofat"
    assert main(["train", "--config", str(cfg), "--stage", "1", "--out", str(s1)]) == 0
    prefix = tmp_path / "searchrun"
    assert main(["search", "--config", str(cfg), "--checkpoint", str(s1),
                 "--out", str(prefix)]) == 0
    out = capsys.readouterr().out
    assert "best:" in out and "bounds:" in out
    csv_rows = [ln for ln in (tmp_path / "searchrun.csv").read_text().splitlines()
                if ln and not ln.startswith("#")]
    assert len(csv_rows) == 1 + 8 + 2
    summary = (tmp_path / "searchrun.summary.yaml").read_text()
    assert "max_params" in summary and "bounds" in summary


def test_search_infeasible_budget_exit_code(workdir, tmp_path):
    root, cfg, data_dir, _ = workdir
    s1 = tmp_path / "s1b.ofat"
    assert main(["train", "--config", str(cfg), "--stage", "1", "--out", str(s1)]) == 0
    # below the minimal subnet size -> config error (2)
    assert main(["search", "--config", str(cfg), "--checkpoint", str(s1),
                 "--max-params", "10", "--out", str(tmp_path / "s")]) == 2


def test_search_attempt_cap_exit_code_4(workdir, tmp_path):
    """A budget that only the minimal subnet satisfies, in a space where the
    minimum is a ~1/22k draw, trips the attempt cap -> exit 4."""
    root, cfg, data_dir, teacher = workdir
    import yaml

    doc = yaml.safe_load(Path(cfg).read_text())
    # widen the search space so the minimal subnet is a rare draw, but keep
    # the existing 16-dim teacher and 8-dim frontend
    doc["space"] = {
        "embed_dims": [32, 48, 64], "head_choices": [2, 3, 4],
        "ffn_ratios": [3.0, 3.5, 4.0], "depths": [2, 3, 4],
        "head_dim": 8, "conv_groups": 4, "conv_kernel": 7,
        "frontend": {"dim": 8, "kernel": 5}, "teacher_dim": 16,
    }
    doc["search"]["n_candidates"] = 10
    cfg2 = tmp_path / "desk.yaml"
    cfg2.write_text(yaml.safe_dump(doc))
    s1 = tmp_path / "s1c.ofat"
    assert main(["train", "--config", str(cfg2), "--stage", "1", "--out", str(s1)]) == 0

    from ofat.search import SearchBudget, subnet_params
    from ofat.spaces import min_subnet

    space = load_model(s1, "supernet")[0].space
    floor = subnet_params(space, min_subnet(space), SearchBudget(max_params=1, n_candidates=1))
    assert main(["search", "--config", str(cfg2), "--checkpoint", str(s1),
                 "--max-params", str(floor), "--out", str(tmp_path / "cap")]) == 4


def test_count_subnets_and_params(tmp_path, capsys):
    cfg_small = tmp_path / "small.yaml"
    cfg_small.write_text("space:\n  preset: small\n")
    assert main(["count", "--config", str(cfg_small), "--subnets"]) == 0
    assert "951892141473" in capsys.readouterr().out
    cfg_base = tmp_path / "base.yaml"
    cfg_base.write_text("space:\n  preset: base\n")
    assert main(["count", "--config", str(cfg_base), "--subnets",
                 "--params", "--subnet-spec", "max"]) == 0
    out = capsys.readouterr().out
    assert "6530347008" in out
    total = int([ln for ln in out.splitlines() if ln.startswith("params:")][0].split()[1])
    assert abs(total - 95e6) / 95e6 < 0.03
    # named architecture presets resolve
    assert main(["count", "--config", str(cfg_base), "--params", "--subnet-spec", "a_base"]) == 0
    total = int([ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("params:")][0].split()[1])
    assert abs(total - 68e6) / 68e6 < 0.03


def test_count_without_mode_is_config_error(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("")
    assert main(["count", "--config", str(cfg)]) == 2


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for cmd in ("gen-data", "init-teacher", "train", "search", "extract", "count", "eval"):
        assert cmd in out


def _run_cli(*args):
    """`python -m ofat.cli ARGS` in a fresh process, to see what reaches stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(ofat.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "ofat.cli", *args], capture_output=True, text=True,
                          env=env, timeout=120)


@pytest.mark.parametrize("command, config, named", [
    ("count", "distill:\n  p: abc\n", "distill.p"),
    ("count", "distill:\n  span_length: x\n", "distill.span_length"),
    ("count", "distill:\n  k: 2.5\n", "distill.k"),
    ("count", "space:\n  embed_dims: 48\n", "space.embed_dims"),
    ("count", "space:\n  embed_dims: [32.7, 48, 64]\n", "space.embed_dims"),
    ("count", "space:\n  ffn_ratios: [3.0, x]\n", "space.ffn_ratios"),
    ("count", "space:\n  head_dim: '8'\n", "space.head_dim"),
    ("count", "seed: true\n", "seed"),
    ("count", "search:\n  includes_head: 'no'\n", "search.includes_head"),
    ("count", "space:\n  head_choices: [-2, 2, 4]\n", "head_choices"),
    ("init-teacher", "distill:\n  teacher:\n    warmup_steps: x\n", "distill.teacher.warmup_steps"),
    ("init-teacher", "distill:\n  teacher:\n    warmup_lr: x\n", "distill.teacher.warmup_lr"),
    ("init-teacher", "distill:\n  teacher:\n    heads: 0\n", "head_choices"),
    ("init-teacher", "distill:\n  teacher:\n    heads: -1\n", "head_choices"),
    ("init-teacher", "distill:\n  teacher:\n    dim: 0\n", "embed_dims"),
    ("init-teacher", "distill:\n  teacher:\n    ffn_ratio: 0.0\n", "ffn_ratios"),
    ("init-teacher", "distill:\n  teacher:\n    warmup_steps: -1\n", "distill.teacher.warmup_steps"),
    ("init-teacher", "distill:\n  teacher:\n    dim: 30\n", "distill.teacher.dim"),
    ("count", "space:\n  ffn_ratios: [3.0, 1e400]\n", "space.ffn_ratios"),
    ("count", "space:\n  ffn_ratios: [3.0, 'nan']\n", "space.ffn_ratios"),
    ("count", "space:\n  ffn_ratios: [3.0, .nan]\n", "space.ffn_ratios"),
    ("init-teacher", "distill:\n  teacher:\n    ffn_ratio: 1e400\n", "distill.teacher.ffn_ratio"),
    ("init-teacher", "distill:\n  teacher:\n    warmup_lr: .nan\n", "distill.teacher.warmup_lr"),
    ("init-teacher", "space:\n  conv_kernel: 8\n", "space.conv_kernel"),
    ("init-teacher", "space:\n  preset: small\n", "space.preset"),
    ("init-teacher", "space:\n  preset: base\n", "space.preset"),
    ("count", "train:\n  batch_size: 0\n", "train.batch_size"),
    ("count", "train:\n  sequence_length: 0\n", "train.sequence_length"),
    ("count", "train:\n  adam_beta1: 1.5\n", "train.adam_beta1"),
    ("count", "train:\n  adam_beta1: -0.1\n", "train.adam_beta1"),
    ("count", "train:\n  adam_beta2: 1.0\n", "train.adam_beta2"),
    ("count", "train:\n  learning_rate: -1.0\n", "train.learning_rate"),
    ("count", "train:\n  learning_rate: 0.0\n", "train.learning_rate"),
    ("count", "train:\n  adam_eps: 0.0\n", "train.adam_eps"),
    ("count", "train:\n  weight_decay: -0.5\n", "train.weight_decay"),
    ("init-teacher", "distill:\n  teacher:\n    warmup_lr: -1.0\n", "distill.teacher.warmup_lr"),
    ("init-teacher", "distill:\n  teacher:\n    warmup_lr: -2e-3\n", "distill.teacher.warmup_lr"),
], ids=["p-text", "span-text", "k-float", "embed-scalar", "embed-float-item", "ratio-text-item", "head-dim-text",
        "seed-bool", "includes-head-text", "negative-heads", "teacher-warmup-steps-text",
        "teacher-warmup-lr-text", "teacher-zero-heads", "teacher-negative-heads", "teacher-zero-dim",
        "teacher-zero-ratio", "teacher-negative-warmup-steps", "teacher-dim-not-divisible",
        "ratio-inf-item", "ratio-nan-item", "ratio-yaml-nan-item", "teacher-ratio-inf", "teacher-warmup-lr-nan",
        "even-conv-kernel", "small-preset-teacher", "base-preset-teacher", "zero-batch-size",
        "zero-sequence-length", "beta1-above-1", "negative-beta1", "beta2-at-1", "negative-lr", "zero-lr",
        "zero-adam-eps", "negative-weight-decay", "negative-warmup-lr", "negative-warmup-lr-text"])
def test_a_config_value_of_the_wrong_type_or_sign_exits_2_naming_it(tmp_path, command, config, named):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(config)
    args = ["--params", "--subnet-spec", "min"] if command == "count" else ["--out", str(tmp_path / "t.ofat")]
    proc = _run_cli(command, "--config", str(cfg), *args)
    assert proc.returncode == 2, proc.stderr
    assert named in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "t.ofat").exists()


def test_a_diverging_teacher_warmup_exits_3_and_writes_no_teacher(tmp_path):
    # the warmup steps through the training loop, whose finite checks stop it before any file is written
    cfg = tmp_path / "c.yaml"
    cfg.write_text("train:\n  n_train_sequences: 4\n  sequence_length: 64\n"
                   "distill:\n  teacher:\n    warmup_steps: 3\n    warmup_lr: 1.0e30\n")
    out = tmp_path / "t.ofat"
    proc = _run_cli("init-teacher", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 3, proc.stderr
    assert "non-finite loss" in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists() and not list(tmp_path.glob("t.ofat*"))


def test_a_non_numeric_subnet_spec_exits_2_naming_its_key(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("")
    proc = _run_cli("count", "--config", str(cfg), "--params", "--subnet-spec", "embed=abc,depth=2")
    assert proc.returncode == 2, proc.stderr
    assert "'embed'" in proc.stderr and "'abc'" in proc.stderr and "Traceback" not in proc.stderr


def test_a_config_file_that_is_not_utf8_exits_2_naming_it(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_bytes(b"seed: 1\n\xff\xfe: 2\n")
    proc = _run_cli("count", "--config", str(cfg), "--subnets")
    assert proc.returncode == 2, proc.stderr
    assert str(cfg) in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("cut", [6, 20, "half", "3 short"])
def test_truncated_checkpoint_exits_2_without_traceback(workdir, tmp_path, cut):
    root, cfg, data_dir, _ = workdir
    s1 = tmp_path / "s1.ofat"
    assert main(["train", "--config", str(cfg), "--stage", "1", "--out", str(s1)]) == 0
    sub = tmp_path / "sub.ofat"
    assert main(["extract", "--checkpoint", str(s1), "--subnet-spec", "mid", "--out", str(sub)]) == 0
    for path in (s1, sub):
        data = path.read_bytes()
        n = {"half": len(data) // 2, "3 short": len(data) - 3}.get(cut, cut)
        path.write_bytes(data[:n])
    runs = [
        _run_cli("extract", "--checkpoint", str(s1), "--subnet-spec", "min", "--out", str(tmp_path / "x.ofat")),
        _run_cli("eval", "--config", str(cfg), "--checkpoint", str(sub), "--data", str(data_dir / "val.ofad")),
    ]
    for proc in runs:
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "byte" in proc.stderr


def test_truncated_dataset_exits_2_without_traceback(workdir, tmp_path):
    """A truncated dataset file, and a well-formed one holding an empty sequence: eval refuses
    both, and train and search the second, each exiting 2 and naming the byte."""
    root, cfg, data_dir, _ = workdir
    s1 = tmp_path / "s1.ofat"
    assert main(["train", "--config", str(cfg), "--stage", "1", "--out", str(s1)]) == 0
    truncated, empty = tmp_path / "val.ofad", tmp_path / "empty.ofad"
    truncated.write_bytes((data_dir / "val.ofad").read_bytes()[:500])
    save_dataset(empty, SyntheticDataset([load_dataset(data_dir / "val.ofad").sequences[0], np.zeros(0, np.float32)]))
    empty_cfg = tmp_path / "empty.yaml"
    empty_cfg.write_text(cfg.read_text().replace(str(data_dir / "train.ofad"), str(empty))
                         .replace(str(data_dir / "val.ofad"), str(empty)))
    runs = [_run_cli("eval", "--config", str(cfg), "--checkpoint", str(s1), "--subnet-spec", "mid",
                     "--data", str(data)) for data in (truncated, empty)]
    runs += [_run_cli("train", "--config", str(empty_cfg), "--stage", "1", "--out", str(tmp_path / "x.ofat")),
             _run_cli("search", "--config", str(empty_cfg), "--checkpoint", str(s1), "--out", str(tmp_path / "s"))]
    for proc in runs:
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "at byte" in proc.stderr
    assert all("sequence 1 is empty" in proc.stderr for proc in runs[1:])


@pytest.mark.parametrize("command", ["eval", "search", "extract", "train"])
def test_missing_checkpoint_exits_2_naming_it(workdir, tmp_path, command):
    root, cfg, data_dir, _ = workdir
    missing = str(tmp_path / "absent.ofat")
    argv = {
        "eval": ["eval", "--config", str(cfg), "--checkpoint", missing, "--data", str(data_dir / "val.ofad")],
        "search": ["search", "--config", str(cfg), "--checkpoint", missing, "--out", str(tmp_path / "s")],
        "extract": ["extract", "--checkpoint", missing, "--subnet-spec", "min", "--out", str(tmp_path / "x.ofat")],
        "train": ["train", "--config", str(cfg), "--stage", "2", "--init", missing,
                  "--out", str(tmp_path / "x.ofat")],
    }[command]
    proc = _run_cli(*argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert missing in proc.stderr


@pytest.mark.parametrize("command", ["search", "eval", "train"])
def test_a_model_trained_against_another_teacher_exits_2(workdir, trained, teacher_b_config, tmp_path,
                                                         capsys, command):
    root, _, data_dir, _ = workdir
    s1, cfg_b = str(trained[0]), str(teacher_b_config)
    argv = {
        "search": ["search", "--config", cfg_b, "--checkpoint", s1, "--out", str(tmp_path / "s")],
        "eval": ["eval", "--config", cfg_b, "--checkpoint", s1, "--subnet-spec", "mid",
                 "--data", str(data_dir / "val.ofad")],
        "train": ["train", "--config", cfg_b, "--stage", "2", "--init", s1, "--out", str(tmp_path / "x.ofat")],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    assert "frontend" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())  # nothing written


@pytest.mark.parametrize("field, flipped_field, named", [
    # The stride leaves no trace in any tensor shape: only the teacher check sees it.
    (b'"layers":[[8,5,2],[8,5,2]]', b'"layers":[[8,5,2],[8,5,3]]', "frontend spec"),
    # One flipped comma makes the heads list [2.2], read as one layer of 2 heads.
    (b'"heads":[2,2]},"config"', b'"heads":[2.2]},"config"', "blocks.1"),
], ids=["stride", "heads"])
def test_subnet_file_with_one_flipped_arch_byte_exits_2(workdir, trained, tmp_path, capsys, field,
                                                         flipped_field, named):
    root, cfg, data_dir, _ = workdir
    sub = trained[1]
    argv = ["eval", "--config", str(cfg), "--data", str(data_dir / "val.ofad"), "--checkpoint"]
    assert main(argv + [str(sub)]) == 0
    data = sub.read_bytes()
    assert data.count(field) == 1
    diff = [i for i, (a, b) in enumerate(zip(field, flipped_field)) if a != b]
    assert len(field) == len(flipped_field) and len(diff) == 1
    flipped = tmp_path / "flipped.ofat"
    flipped.write_bytes(data.replace(field, flipped_field))
    capsys.readouterr()
    assert main(argv + [str(flipped)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--subnet-spec", "min"], ["--bounds"]], ids=["subnet-spec", "bounds"])
def test_eval_refuses_subnet_flags_for_a_subnet_file(workdir, trained, capsys, flag):
    root, cfg, data_dir, _ = workdir
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(trained[1]),
                 "--data", str(data_dir / "val.ofad"), *flag]) == 2
    captured = capsys.readouterr()
    assert flag[0] in captured.err and "loss" not in captured.out


@pytest.mark.parametrize("line, named", [
    ("  batch_size: 0", "batch_size"),
    ("  batch_size: 2\n  adam_beta1: 1.0", "adam_beta1"),
    ("  batch_size: 2\n  adam_beta2: 1.0", "adam_beta2"),
    ("  batch_size: 2\n  learning_rate: .nan", "train.learning_rate"),
], ids=["batch_size", "beta1", "beta2", "learning-rate-nan"])
def test_training_values_that_can_only_give_nan_exit_2(workdir, tmp_path, capsys, line, named):
    root, cfg, _, _ = workdir
    bad = tmp_path / "bad.yaml"
    bad.write_text(cfg.read_text().replace("  batch_size: 2", line))
    capsys.readouterr()
    assert main(["train", "--config", str(bad), "--stage", "1", "--out", str(tmp_path / "x.ofat")]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "x.ofat").exists()


def test_subnet_file_with_a_flipped_param_count_digit_exits_2(workdir, trained, tmp_path, capsys):
    root, cfg, data_dir, _ = workdir
    data = trained[1].read_bytes()
    key = b'"params_with_frontend_and_head":'
    at = data.index(key) + len(key)  # the value's first digit
    flipped = tmp_path / "flipped.ofat"
    flipped.write_bytes(data[:at] + str((int(chr(data[at])) % 9) + 1).encode() + data[at + 1:])
    argv = ["eval", "--config", str(cfg), "--data", str(data_dir / "val.ofad"), "--checkpoint"]
    assert main(argv + [str(trained[1])]) == 0
    capsys.readouterr()
    assert main(argv + [str(flipped)]) == 2
    assert "params_with_frontend_and_head" in capsys.readouterr().err


@pytest.mark.parametrize("role, key, value", [
    ("supernet", "head_dim", "x"),
    ("supernet", "head_dim", float("nan")),
    ("supernet", "head_dim", float("inf")),  # what JSON's 1e400 reads as
    ("supernet", "ffn_ratios", ["a", 3.0]),
    ("supernet", "ffn_ratios", [float("nan"), 3.0]),
    ("subnet", "embed_dim", "x"),
    ("subnet", "embed_dim", 0),
], ids=["head-dim-text", "head-dim-nan", "head-dim-inf", "ratio-text", "ratio-nan", "embed-text", "embed-zero"])
def test_model_metadata_of_the_wrong_type_exits_2_without_traceback(workdir, trained, tmp_path, role, key, value):
    root, cfg, data_dir, _ = workdir
    tensors, meta = load_checkpoint(trained[0] if role == "supernet" else trained[1])
    meta["space" if role == "supernet" else "arch"][key] = value
    bad = tmp_path / "bad.ofat"
    save_checkpoint(bad, tensors, meta)
    if role == "supernet":
        proc = _run_cli("extract", "--checkpoint", str(bad), "--subnet-spec", "min", "--out", str(tmp_path / "x.ofat"))
    else:
        proc = _run_cli("eval", "--config", str(cfg), "--checkpoint", str(bad), "--data", str(data_dir / "val.ofad"))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_write_into_a_missing_directory_exits_3_naming_the_out_path(trained, tmp_path):
    out = tmp_path / "missing" / "x.ofat"
    proc = _run_cli("extract", "--checkpoint", str(trained[0]), "--subnet-spec", "mid", "--out", str(out))
    assert proc.returncode == 3, proc.stderr
    assert f"'{out}'" in proc.stderr and ".tmp" not in proc.stderr


def _ofat_field_offsets(data: bytes) -> list:
    """Offsets of every OFAT byte that is not tensor payload: header, metadata,
    tensor count, and each tensor's name length, name, rank and extents."""
    meta_len = struct.unpack_from("<I", data, 8)[0]
    offsets = list(range(12 + meta_len + 8))
    pos = 12 + meta_len + 8
    for _ in range(struct.unpack_from("<Q", data, 12 + meta_len)[0]):
        name_len = struct.unpack_from("<H", data, pos)[0]
        rank = data[pos + 2 + name_len]
        end = pos + 3 + name_len + 8 * rank
        shape = struct.unpack_from(f"<{rank}Q", data, end - 8 * rank)
        offsets += range(pos, end)
        pos = end + 4 * int(np.prod(shape))
    return offsets


def _ofad_field_offsets(data: bytes) -> list:
    """Offsets of the OFAD header, sequence count and every length field."""
    offsets, pos = list(range(16)), 16
    for _ in range(struct.unpack_from("<Q", data, 8)[0]):
        offsets += range(pos, pos + 8)
        pos += 8 + 4 * struct.unpack_from("<Q", data, pos)[0]
    return offsets


def test_byte_flips_exit_with_a_documented_code(workdir, tmp_path, capsys):
    """Seeded single-byte flips over the non-payload fields of a supernet file
    (through extract), a subnet file and a dataset (through eval). A flip may
    leave a checkpoint loadable (metadata the loader does not read), never a
    dataset: every OFAD field sets where the next one starts. An eval that
    exits 0 on a flipped file prints the unflipped file's loss."""
    root, cfg, data_dir, _ = workdir
    s1, sub, val = tmp_path / "s1.ofat", tmp_path / "sub.ofat", data_dir / "val.ofad"
    assert main(["train", "--config", str(cfg), "--stage", "1", "--out", str(s1)]) == 0
    assert main(["extract", "--checkpoint", str(s1), "--subnet-spec", "mid", "--out", str(sub)]) == 0
    cases = [
        (s1, _ofat_field_offsets, lambda p: ["extract", "--checkpoint", p, "--subnet-spec", "min",
                                             "--out", str(tmp_path / "x.ofat")]),
        (sub, _ofat_field_offsets, lambda p: ["eval", "--config", str(cfg), "--checkpoint", p,
                                              "--data", str(val)]),
        (val, _ofad_field_offsets, lambda p: ["eval", "--config", str(cfg), "--checkpoint", str(sub),
                                              "--data", p]),
    ]
    rng = Rng(71, 1)
    for source, field_offsets, argv in cases:
        data = source.read_bytes()
        offsets = field_offsets(data)
        flipped = tmp_path / f"flipped{source.suffix}"
        assert main(argv(str(source))) == 0
        unflipped = capsys.readouterr().out
        codes = set()
        for _ in range(150):
            at, xor = offsets[rng.index(len(offsets))], 1 + rng.index(255)
            flipped.write_bytes(data[:at] + bytes([data[at] ^ xor]) + data[at + 1:])
            cmd = argv(str(flipped))
            code = main(cmd)
            printed = capsys.readouterr().out
            assert code in (0, 2, 3), f"{source.name} byte {at} ^ {xor}: exit {code}"
            if code == 0 and cmd[0] == "eval":
                assert printed == unflipped, f"{source.name} byte {at} ^ {xor}"
            codes.add(code)
        if source.suffix == ".ofad":
            assert codes == {2}
        else:
            assert 2 in codes  # most flips break the file
    capsys.readouterr()


def test_search_is_byte_identical_under_one_and_two_blas_threads(tmp_path):
    """The stacked search products must not depend on how OpenBLAS splits them,
    nor on how many walkers the usable CPUs allow."""
    data_dir, teacher = tmp_path / "data", tmp_path / "teacher.ofat"
    cfg = tmp_path / "run.yaml"
    cfg.write_text(
        "seed: 5\n"
        "train: {n_train_sequences: 1, n_val_sequences: 4}\n"
        "search: {n_candidates: 200}\n"
        f"paths: {{teacher: '{teacher}', train_data: '{data_dir / 'train.ofad'}', "
        f"val_data: '{data_dir / 'val.ofad'}'}}\n")
    assert main(["gen-data", "--config", str(cfg), "--out", str(data_dir)]) == 0
    assert main(["init-teacher", "--config", str(cfg), "--out", str(teacher)]) == 0
    supernet = tmp_path / "supernet.ofat"
    model = build_supernet(desk_space(), Rng(5, 1))
    model.frontend = load_model(teacher, "teacher")[0].frontend  # search scores only on the teacher's features
    save_model(supernet, model, {"seed": 5})
    one_cpu = {min(os.sched_getaffinity(0))}
    outputs = []
    for threads, cpus in (("1", None), ("2", None), ("1", one_cpu)):
        out = tmp_path / f"threads{threads}-cpus{len(cpus or ())}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(ofat.__file__).resolve().parents[1]))
        pin = None if cpus is None else (lambda cpus=cpus: os.sched_setaffinity(0, cpus))
        proc = subprocess.run([sys.executable, "-m", "ofat.cli", "search", "--config", str(cfg),
                               "--checkpoint", str(supernet), "--out", str(out)],
                              capture_output=True, text=True, env=env, timeout=300, preexec_fn=pin)
        assert proc.returncode == 0, proc.stderr
        outputs.append((Path(f"{out}.csv").read_bytes(), Path(f"{out}.summary.yaml").read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


def test_training_is_byte_identical_under_one_and_two_blas_threads(tmp_path):
    """Both stages' checkpoints and logs must not depend on how OpenBLAS splits
    the products, nor on how many walkers compute the teacher targets
    before step 0 (more than one only when the usable CPUs allow it)."""
    data_dir, teacher = tmp_path / "data", tmp_path / "teacher.ofat"
    cfg = tmp_path / "run.yaml"
    cfg.write_text(
        "seed: 6\n"
        "train: {steps: 12, warmup_steps: 2, sequence_length: 256, n_train_sequences: 6, n_val_sequences: 1}\n"
        f"paths: {{teacher: '{teacher}', train_data: '{data_dir / 'train.ofad'}', "
        f"val_data: '{data_dir / 'val.ofad'}'}}\n")
    assert main(["gen-data", "--config", str(cfg), "--out", str(data_dir)]) == 0
    assert main(["init-teacher", "--config", str(cfg), "--out", str(teacher)]) == 0
    one_cpu = {min(os.sched_getaffinity(0))}
    outputs = []
    for threads, cpus in (("1", None), ("2", None), ("1", one_cpu)):
        run = tmp_path / f"threads{threads}-cpus{len(cpus or ())}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(ofat.__file__).resolve().parents[1]))
        pin = None if cpus is None else (lambda cpus=cpus: os.sched_setaffinity(0, cpus))
        s1, s2 = Path(f"{run}-s1.ofat"), Path(f"{run}-s2.ofat")
        for args in (["--stage", "1", "--out", str(s1)], ["--stage", "2", "--init", str(s1), "--out", str(s2)]):
            proc = subprocess.run([sys.executable, "-m", "ofat.cli", "train", "--config", str(cfg), *args],
                                  capture_output=True, text=True, env=env, timeout=300, preexec_fn=pin)
            assert proc.returncode == 0, proc.stderr
        outputs.append([Path(f"{p}{ext}").read_bytes() for p in (s1, s2) for ext in ("", ".log.csv")])
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("command", ["search", "train"])
def test_forked_walkers_print_nothing_twice_and_write_the_files_of_one_walker(workdir, trained, tmp_path,
                                                                              monkeypatch, capfd, command):
    """In process, as a user's script would run it: with 2 walkers (and 4 for search) each
    stdout line prints once, and every file equals the same command's on 1 walker byte for byte."""
    from ofat import walkers

    _, cfg, _, _ = workdir
    forks, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    capfd.readouterr()
    outputs = {}
    for n in (1, 2, 4) if command == "search" else (1, 2):
        monkeypatch.setattr(walkers, "walker_count", lambda n=n: n)
        run = tmp_path / f"walkers{n}"
        run.mkdir()
        if command == "search":
            args = ["search", "--config", str(cfg), "--checkpoint", str(trained[0]), "--out", str(run / "out")]
            names = ["out.csv", "out.summary.yaml"]
        else:  # a fresh teacher from its file: every target is cold
            args = ["train", "--config", str(cfg), "--stage", "1", "--out", str(run / "s1.ofat")]
            names = ["s1.ofat", "s1.ofat.log.csv"]
        assert main(args) == 0
        lines = capfd.readouterr().out.replace(str(run), "<run>").splitlines()
        assert len(lines) == len(set(lines)) == (4 if command == "search" else 2), lines
        assert_no_child_left()
        outputs[n] = lines, [(run / name).read_bytes() for name in names]
    assert forks  # the runs on more than one walker forked
    assert all(output == outputs[1] for output in outputs.values())


def test_eval_of_one_config_never_forks(workdir, trained, monkeypatch, capsys):
    """One config on held-out sequences of one length is one walker task: the caller's."""
    from ofat import walkers

    _, cfg, data_dir, _ = workdir

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(walkers, "walker_count", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(trained[0]), "--subnet-spec", "mid",
                 "--data", str(data_dir / "val.ofad")]) == 0
    assert "loss[mid]:" in capsys.readouterr().out
    assert_no_child_left()
