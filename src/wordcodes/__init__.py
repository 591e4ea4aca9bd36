"""Word-based variable-length source codes.

Construction of variable-to-variable, variable-to-fixed, and block codes
for memoryless sources; exact redundancy and delay accounting; a streaming
codec; and redundancy-scaling and digit-flip experiments.
"""

from .analysis import (
    CodeMetrics,
    ScalingResult,
    ScalingRow,
    code_metrics,
    metrics_from_classes,
    scaling_experiment,
    scaling_slope,
)
from .codebook import CodeBook, CodeEntry, format_digits, validate_codebook
from .codec import (
    Encoder,
    SyncReport,
    SyncTrial,
    decode_message,
    decode_words,
    encode_message,
    sample_symbols,
    sync_error_experiment,
)
from .diophantine import (
    best_approx_denominators,
    denominator_of_rational_form,
    dist_to_int,
    find_shift,
    frac,
)
from .errors import (
    DecodeError,
    InfeasibleError,
    InputError,
    ResourceError,
    ValidationError,
    WordCodesError,
)
from .serialization import book_from_json, book_to_json, load_book, save_book
from .source_model import (
    SourceModel,
    entropy,
    linear_form,
    make_model,
    profile_of,
    profile_probability,
    word_probability,
)
from .vf_construct import (
    BlockResult,
    VFResult,
    construct_block,
    construct_vf,
    find_block_parameters,
)
from .vv_construct import (
    MergeStep,
    MergeTrace,
    VVResult,
    build_threshold_sets,
    canonical_codewords,
    choose_cap,
    construct_vv,
    huffman_lengths,
    kraft_sum,
    merge_to_kraft,
    threshold_parameter_candidates,
)
from .word_sets import (
    EmptyRule,
    NodeClassifier,
    ProfileSet,
    ThresholdHighRule,
    ThresholdLowRule,
    WindowRule,
    completeness_defect,
    enumerate_words,
    is_prefix_free,
    lattice_metrics,
    sentinel_runs,
    wedge,
)

__version__ = "0.1.0"
