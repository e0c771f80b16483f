"""Privacy-preserving KAN inference over a simulated SIMD HE backend.

The backend models a leveled SIMD scheme (slot-wise arithmetic, rotation,
depth accounting, operation counters); on top of it sit polynomial
activation fitting, a composite-polynomial comparator, packed B-spline
basis evaluation, lazy weight fusion, and BSGS linear layers, verified
against an exact plaintext reference model.
"""

from .backend import (
    BackendConfig,
    CipherText,
    HeBackend,
    OpCounter,
    make_backend,
)
from .approx import (
    ACTIVATION_PRESETS,
    EXACT_COMPARATOR,
    ApproxRange,
    CompositeSign,
    ExactComparator,
    Polynomial,
    WeightScheme,
    build_composite_sign,
    estimate_range,
    eval_poly_he,
    fit_ols,
    fit_remez,
    fit_weighted_ls,
    poly_comp,
    poly_eval_depth,
    range_from_moments,
)
from .bspline import (
    GridMatrix,
    PermutationSpec,
    bspline_basis_he,
    bspline_basis_plain,
    col_tile,
    fuse_weights,
    gen_permutation,
    repeat_pack,
    repeat_pack_naive,
)
from .matvec import default_bsgs_split
from .model import (
    Dataset,
    KanLayer,
    KanModel,
    fit_layer_ls,
    layer_forward_plain,
    load_dataset_csv,
    load_model,
    model_forward_plain,
    phi,
    random_model,
    save_model,
    silu,
)
from .inference import (
    PipelineConfig,
    bench_compare,
    bench_lazy_vs_naive,
    bsgs_matvec,
    check_depth_budget,
    encrypt_input,
    layer_forward_he,
    model_forward_he,
    plan_layer,
    plan_model,
    write_bench_csv,
)
from . import errors

__version__ = "0.1.0"
