"""defpair: exact computer algebra for derivations of pairs (ring, module),
DG-Lie algebras controlling deformations of (scheme, sheaf) pairs, trace
maps, and Cech-level Maurer-Cartan/gauge/cocycle data.

Everything is computed over the rationals with exact arithmetic; checks are
equalities, never approximations.
"""

from .poly import MonomialOrder, PolyRing, Polynomial, GREVLEX, LEX
from .groebner import (CapacityError, Caps, groebner_basis, poly_reduce,
                       solve_in_image, syzygies)
from .rings import (ArtinAlgebra, ArtinError, ExtendedRing, Ideal,
                    QuotientRing, RingError, RingMap, extend_ring,
                    make_artin_algebra)
from .modules import (FPModule, FreeComplex, ModuleError, ModuleMap,
                      exterior_power, fitting_chain, fitting_ideal,
                      free_resolution, kaehler_differentials,
                      kernel_of_module_map, tensor_with_artin)
from .pairs import (AutomorphismPair, DerivationPair, PairError, PairModule,
                    bch_pair, canonical_pair, check_arrow_pair,
                    check_derivation_pair, derivation_module,
                    derivation_pair_module, det_auto, exp_pair,
                    fitting_invariance_check, leibniz_extension,
                    lie_derivative, lift_anchor, lift_to_resolution,
                    lift_through_surjection, log_auto, pair_bracket,
                    tensor_hom_transfer, trace_pair)
from .dgla import (DGLAError, GradedMap, HomComplexDGLA, PairChain,
                   PairComplexDGLA, QComplex, TableDGLA, TraceData,
                   abelian_dgla, check_dgla_axioms, complex_cohomology,
                   split_sequence_pairs, hom_complex_dgla, pair_complex_dgla,
                   pro_representability_check, trace_morphism)
from .mc import (DGLAMorphism, HomContext, MCError, PairContext, TableContext,
                 bch, functor_iso_criterion, gauge_act, mc_check, mc_residual,
                 tangent_obstruction)
from .cech import (CechError, GluedScheme, LocallyFreeSheaf, SheafCohomology,
                   cech_cohomology, det_line, det_of_complex, dual_line,
                   extend_scheme, line_bundle, pair_sheaf, projective_line,
                   projective_line_three_charts, sheaf_hom, structure_sheaf,
                   tangent_sheaf, tensor_lines, weight_monomials)
from .cocycles import (DeformationSpace, Semicosimplicial, SheafComplex,
                       build_semicosimplicial, cech_trace,
                       deformation_from_cocycle, first_order_class_dims,
                       h1sc_equiv_check, locally_trivial_cocycle_check,
                       pair_tangent_spaces, resolution_complex,
                       solve_first_order_witness, z1sc_check)

__version__ = "0.1.0"
