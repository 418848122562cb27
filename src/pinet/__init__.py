"""Permutation-invariant graph classification.

A small numpy-backed library implementing a two-tower message-passing
classifier whose propagation matrix interpolates, via two trainable
scalars p and q, between the raw adjacency, self-loop, and symmetric
degree-normalised regimes. Includes a reverse-mode differentiation
tape, a synthetic isomorphism-task generator, a benchmark text-format
loader, training with cross-validation, and an experiment CLI.
"""

from .dataio import Dataset, load_dataset, load_tu, save_dataset
from .datagen import (
    DegreeSequence,
    GenParams,
    IsoProvenance,
    generate_iso_dataset,
    graph_from_degree_sequence,
    is_graphical,
    load_provenance,
    sample_er_connected,
    save_provenance,
    verify_provenance,
)
from .errors import (
    DataFormatError,
    DegenerateMaskError,
    DomainError,
    GenerationError,
    ShapeError,
    TapeError,
    TrainingError,
)
from .graph import (
    Batch,
    LabeledGraph,
    Permutation,
    degree_matrix,
    graph_from_edges,
    make_batch,
    pad_graph,
    permute_graph,
    propagation_matrix,
    random_permutation,
)
from .model import (
    PiNetConfig,
    PiNetParams,
    clamp_pq,
    forward,
    forward_attention,
    forward_features,
    init_params,
    load_params,
    loss_batch,
    predict_class,
    predict_classes,
    save_params,
)
from .stats import (
    SampleSummary,
    TTestResult,
    reg_inc_beta,
    summarize,
    t_test_two_sample,
    write_results_csv,
)
from .tensor import Gradients, Mat, Tape, backward, grad_check
from .train import (
    AdamState,
    EvalReport,
    FitResult,
    TrainConfig,
    adam_step,
    cross_validate,
    evaluate,
    fit,
    stratified_kfold,
)

__version__ = "0.1.0"
