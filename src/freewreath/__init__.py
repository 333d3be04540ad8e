"""Exact representation combinatorics of free wreath product quantum groups."""

from .config import CapExceededError
from .freeprob import (brute_force_z2_s3_moments, character_moment_wreath,
                       character_moments_wreath, classical_wreath_moment,
                       compound_poisson_moments, free_cumulants_to_moments,
                       moment_of_rep, moments_to_free_cumulants, parse_eps,
                       partial_trace_moments, plain_eps, render_eps)
from .fusion import (FiniteGroup, FusionData, IntegersFusion,
                     QuantumPermutationFusion, ReducedWord, TableFusion,
                     central_char_poly, conj_word, cyclic_fusion,
                     cyclic_group, dim_wreath, expand_reduced, fuse,
                     fusion_from_json, fusion_from_uri, group_dual_fusion,
                     integers_fusion, load_fusion_file, parse_word,
                     quantum_permutation_fusion, reduce_word, render_word,
                     sort_words, symmetric_group_3, symmetric_group_3_fusion,
                     trivial_fusion)
from .homspaces import DecoratedPartition, dim_hom_wreath, parse_star_list
from .linmaps import (GramMatrix, SparseMap, build_group_dual_tp, build_tp,
                      gram_nc, identity_map, verify_category_relations,
                      verify_conjugate_equations, verify_gram_methods)
from .partition import (Partition, discrete_partition, enumerate_partitions,
                        full_block, identity_partition, kernel,
                        nested_pairing, parse_partition)
from .qnum import QNum, cheb_eval_sqrtN, cheb_poly, render_poly
from .report import CheckResult, VerificationReport
from .tl import (ScaledPartition, TLDiagram, collapse, fatten, markov_trace,
                 parse_tl, phi, tl_compose, tl_enumerate, verify_phi)
from .weingarten import (WeingartenTable, haar_state, wg_certify_asymptotics,
                         wg_gram, wg_indices, wg_leading_coeff, wg_table)

__version__ = "0.1.0"
