# Which propagation matrix wins? Sweep the corners and the learned blend.
#
# Cross-validates the same architecture under five settings of the
# propagation scalars: the four (p, q) corners held fixed, plus the
# learned mode where p and q start at 0.5 and move with the weights.
# The contest below runs at toy scale so it finishes in seconds; the
# `pinet sweep` subcommand runs the same grid on any saved dataset.

from pinet import GenParams, PiNetConfig, TrainConfig, cross_validate, generate_iso_dataset
from pinet.graph import CORNERS

# 1. A small structure-only dataset (shared degree sequence, see the
#    isomorphism demo for the idea).
ds, _ = generate_iso_dataset(GenParams(n_nodes=12, classes=2, copies=8, edge_prob=0.3, seed=1))
print(f"dataset: {len(ds)} graphs, {ds.class_count} classes, {ds.n_pad} nodes each\n")

# 2. Five contestants: the four corners, then the learned blend.
modes = [(f"fixed-{p:g}-{q:g}", dict(pq_mode="fixed", fixed_p=p, fixed_q=q)) for p, q in CORNERS]
modes.append(("learned", dict(pq_mode="learned")))

# 3. Two-fold cross-validation per mode, identical seeds throughout, so
#    the only difference between rows is the propagation matrix.
tc = TrainConfig(learning_rate=1e-3, batch_size=8, epochs=120, seed=0)
print(f"{'mode':<10} {'fold accuracies':<20} mean    std")
for name, kw in modes:
    mc = PiNetConfig(d=1, C=2, F0=32, F1=16, seed=0, **kw)
    report = cross_validate(ds.graphs, k=2, train_config=tc, model_config=mc)
    accs = " ".join(f"{a:.3f}" for a in report.fold_accuracies)
    print(f"{name:<10} {accs:<20} {report.mean:.3f}   {report.std:.3f}")

# On this task the fully normalised corner sits at chance: degree
# normalisation divides away exactly the signal the classes differ by.
# The unnormalised corners keep it, and the learned blend can recover
# it when training manages to pull p and q away from their 0.5 start
# (it does here; at larger scales it sometimes stalls there).
