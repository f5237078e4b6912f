"""Scale-indexed Lipschitz derivatives on finite metric data.

Estimate the little, big and local Lipschitz derivatives of sampled maps,
take Baire envelopes of the resulting fields, reason about set families and
semicontinuity on finite grounds, and verify the structural identities tying
all of these together.
"""
from .errors import CapacityError, InputError
from .metric import (FiniteMetricSpace, IntervalUnion, LinearMapSpec, ball,
                     operator_norm, resolution_isolated)
from .scales import (PointSummary, RadiusGrid, SampledMap, ScaleProfile,
                     big_lip_below_r, lip_norm, lip_upper_r,
                     lip_upper_r_closed, little_lip_below_r, loc_field,
                     loc_lip_r, nearest_scale_infimum, point_scale_values,
                     scale_profile, scale_summaries, scan_field)
from .envelopes import (ScalarField, baire_lower, baire_upper, lsc_defect,
                        usc_defect)
from .setclass import (FieldBatch, FiniteField, SetFamily, all_topologies,
                       apply_ops, check_duality_props, check_sup_inf_props,
                       complements, delta_closure, is_A_lower_sc,
                       is_A_upper_sc, random_topology, sc_table,
                       sigma_closure, verify_family_identity)
from .zoo import ZooEntry, get_entry, make_entry, make_zoo, oracle_field
from .harness import (CheckResult, SuiteConfig, check_bhmv_bound, check_chain,
                      check_envelope_identity, check_frechet,
                      check_gamma_lipschitz, check_level_sets,
                      check_lipnorm_identity, check_openness_surrogate,
                      check_plus_variant, check_scale_oracles,
                      check_segment_chain_rule, check_semicontinuity_fields,
                      check_setclass_exhaustive, check_setclass_random,
                      check_summary_ordering, overall_ok, run_suite)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "1.0.0"
