"""Exact representation combinatorics of free wreath product quantum groups.

The public names are loaded from their modules on first access (PEP 562), so
``import freewreath`` loads no layer, and a command loads only what it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "config": ("CapExceededError",),
    "freeprob": ("brute_force_z2_s3_moments", "character_moment_wreath",
                 "classical_wreath_moment", "compound_poisson_moments",
                 "free_cumulants_to_moments", "moment_of_rep",
                 "moments_to_free_cumulants", "parse_eps",
                 "partial_trace_moments", "plain_eps", "render_eps"),
    "fusion": ("FusionData", "IntegersFusion", "QuantumPermutationFusion",
               "TableFusion", "central_char_poly", "conj_word",
               "cyclic_fusion", "dim_wreath", "fuse", "fusion_from_json",
               "fusion_from_uri", "load_fusion_file", "parse_star_list",
               "parse_word", "reduce_word", "render_word", "sort_words",
               "symmetric_group_3_fusion"),
    "homspaces": ("dim_hom_wreath",),
    "linmaps": ("SparseMap", "build_tp",
                "verify_category_relations", "verify_conjugate_equations"),
    "partition": ("Partition", "discrete_partition", "enumerate_partitions",
                  "full_block", "identity_partition", "kernel",
                  "nested_pairing", "parse_partition"),
    "qnum": ("cheb_int_factor", "cheb_poly", "render_poly"),
    "report": ("CheckResult", "VerificationReport"),
    "tl": ("TLDiagram", "collapse", "fatten", "markov_trace_exponent",
           "parse_tl", "phi", "sqrt_power", "tl_compose", "tl_enumerate",
           "verify_phi"),
    "weingarten": ("WeingartenTable", "haar_state", "wg_certify_asymptotics",
                   "wg_gram", "wg_indices", "wg_leading_coeff", "wg_table"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # looked up in the defining module on every access and never stored
    # here, so a binding patched there is the one returned
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
