"""Two-stage training, condensed: stage 1 trains the largest architecture,
stage 2 samples a random subnet every step starting from stage-1 weights."""

from ofat.data import make_synthetic_dataset
from ofat.distill import MaskSpec, TargetConfig
from ofat.search import evaluate_subnet
from ofat.spaces import desk_space, mid_subnet
from ofat.train import TeacherArch, TrainConfig, make_teacher, stage1_train, stage2_train

space = desk_space()
teacher = make_teacher(seed=7777, arch=TeacherArch(), frontend_spec=space.frontend)
train_data = make_synthetic_dataset(seed=101, n_sequences=48, length=512)
val_data = make_synthetic_dataset(seed=102, n_sequences=16, length=512)
mask, tgt = MaskSpec(), TargetConfig(k=8)

STEPS = 120  # keep the demo minutes-scale; the full-scale budget is 200k steps

print(f"== stage 1: largest architecture only, {STEPS} steps ==")
c1 = TrainConfig(stage=1, steps=STEPS, batch_size=4, learning_rate=2e-3,
                 warmup_steps=12, seed=0)
_, model1, log1 = stage1_train(c1, space, teacher, train_data, mask, tgt)
for r in log1.records[:: STEPS // 4]:
    print(f"  step {r.step:4d}  loss {r.loss:.4f}  lr {r.lr:.2e}")

print(f"\n== stage 2: random subnet per step, init from stage 1 ==")
c2 = TrainConfig(stage=2, steps=STEPS, batch_size=4, learning_rate=2e-3,
                 warmup_steps=12, seed=0, ofa_init="stage1_weights", init_checkpoint="-")
_, model2, log2 = stage2_train(c2, space, teacher, train_data, mask, tgt, init_model=model1)
for r in log2.records[:: STEPS // 4]:
    print(f"  step {r.step:4d}  loss {r.loss:.4f}  "
          f"subnet embed={r.config.embed_dim} depth={r.config.depth} heads={r.config.heads}")

print("\n== what stage 2 buys: a mid-size subnet that was never trained directly ==")
probe = mid_subnet(space)
for name, model in (("stage 1 only", model1), ("stage 1 + stage 2", model2)):
    loss = evaluate_subnet(model, probe, val_data.sequences, teacher, mask, tgt,
                           eval_seed=900, eval_batches=8)
    print(f"  {name:18s} validation loss on mid subnet: {loss:.4f}")
