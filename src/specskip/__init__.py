"""Speculative decoding with verification skipping on synthetic models."""

from .cache import (CachedFeature, FeatureCache, retrieve_latest,
                    retrieve_with_offset, update)
from .core import (EmbeddingCodebook, TokenSequence, cosine, nearest_neighbors,
                   rng_stream, sample_index)
from .engine import (FRESH, EngineConfig, GenerationTrace, IterationRecord,
                     Metrics, compute_metrics, config_from_mapping,
                     speculative_decode, trace_to_csv, vanilla_ar,
                     vvs_generate)
from .errors import (CacheUnderflow, DegenerateProposal, DegenerateTrace,
                     DegenerateVector, RejectedInput, SpecskipError)
from .models import (DraftModel, ModelOutput, TargetModel, make_model_pair,
                     normalize_columns, target_forward, target_forward_masked)
from .schedule import (PathSimilarity, SkipPolicy, decay_weights, decide,
                       path_similarity)
from .select import select_path, truncate_path
from .tree import (DraftTree, LinearizedTree, TreePaths, build_tree,
                   enumerate_paths, linearize)
from .verify import VerifyOutcome, accept, pooled_mass, verify_tree

__version__ = "0.1.0"
