# Cross-validating on a real molecule benchmark.
#
# The public graph-kernel benchmark collection distributes each dataset
# as four text files (edges, node-to-graph indicator, graph labels,
# node labels). `load_tu` reads that layout directly. This script runs
# a short stratified cross-validation on MUTAG with the learned (p, q)
# blend, at reduced width and epochs so it finishes in about a minute.
#
# Getting the data (this script skips politely if it is absent):
#   1. download MUTAG.zip from the graph-kernel benchmark collection
#      (chrsmrrs.com/graphkerneldatasets) and unzip it
#   2. export PINET_TU_DATA=/path/to/parent_dir   # containing MUTAG/

import os
import sys

from pinet import PiNetConfig, TrainConfig, cross_validate, load_tu

root = os.environ.get("PINET_TU_DATA")
if not root or not os.path.isdir(root):
    print("PINET_TU_DATA is not set (or not a directory); see the header "
          "of this script for download instructions.")
    sys.exit(0)

# 1. Load and describe.
ds = load_tu(root, "MUTAG")
print(f"{ds.name}: {len(ds)} graphs, {ds.class_count} classes, "
      f"at most {ds.n_pad} nodes each, feature width {ds.d}")
for c in range(ds.class_count):
    print(f"  class {c}: {ds.class_fraction(c):.3f} of the data")

# 2. Stratified 5-fold cross-validation, learned propagation scalars.
#    (The full-scale settings are F0=100, F1=64, 200 epochs, 10 folds;
#    the CLI `pinet cv` runs those by default.)
tc = TrainConfig(learning_rate=1e-3, batch_size=50, epochs=40, seed=0)
mc = PiNetConfig(d=ds.d, C=ds.class_count, F0=32, F1=16, pq_mode="learned", seed=0)
report = cross_validate(ds.graphs, k=5, train_config=tc, model_config=mc)

print("\nfold accuracies:", " ".join(f"{a:.3f}" for a in report.fold_accuracies))
print(f"mean {report.mean:.3f} +- {report.std:.3f} (std over folds)")
