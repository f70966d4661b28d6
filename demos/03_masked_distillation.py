"""The training objective: contextualized targets, span masking, masked L1.

The teacher never trains; its top-k hidden layers are standardized per
time step and averaged into targets. The student sees span-masked features
and is scored only where it was blinded.
"""

import numpy as np

from ofat.autodiff import Tensor
from ofat.data import make_synthetic_dataset
from ofat.distill import MaskSpec, TargetConfig, distill_loss, span_mask
from ofat.rng import Rng
from ofat.spaces import desk_space
from ofat.train import TeacherArch, make_teacher

space = desk_space()
teacher = make_teacher(seed=7777, arch=TeacherArch(), frontend_spec=space.frontend)
data = make_synthetic_dataset(seed=5, n_sequences=2, length=512)

print("== contextualized targets ==")
feats = teacher.frontend.forward(data.sequences[0])
targets = teacher.targets_from_features(feats, TargetConfig(k=8))
print(f"teacher depth {teacher.depth}, averaging top-8 normalized layers")
print(f"targets shape {targets.shape}, per-step mean ~0: {targets.data.mean():.4f}, "
      f"|targets| < 10: {float(np.abs(targets.data).max()):.2f}")

print("\n== span masking, p = 0.65 ==")
spec = MaskSpec(p=0.65, span_length=10)
t = feats.shape[0]
fractions = [span_mask(t, spec, Rng(seed, 3)).size / t for seed in range(100)]
print(f"mean masked fraction over 100 draws at t={t}: {np.mean(fractions):.3f}")

print("\n== the loss sums over masked steps only ==")
t, d = targets.shape
student = Tensor(targets.data + 0.3, requires_grad=True)
masked = np.array([2, 5, 9])
base = distill_loss(student, targets, masked)
print(f"loss with student 0.3 off everywhere: {base.item():.4f} (per-step mean-L1)")

clone = targets.data + 0.3
unmasked = np.setdiff1d(np.arange(t), masked)
clone[unmasked] += 100.0  # vandalize every unmasked step
same = distill_loss(Tensor(clone), targets, masked)
print(f"after perturbing all unmasked steps:   {same.item():.4f} (unchanged)")

base.backward()
print(f"gradient at unmasked steps is exactly zero: "
      f"{bool(np.all(student.grad[unmasked] == 0.0))}")
print(f"gradient magnitude at masked steps: {np.abs(student.grad[masked]).max():.5f}")
