"""Exact computations with rank-one mod-p (phi,Gamma)-modules over unramified
p-adic fields: extension-space bases, bounded-extension subspaces V_J, and
integral Wach-module lifts with reduction and saturation diagnostics."""

from .field import Field, FieldElement, FieldError, FieldSpec, default_modulus, frobenius, make_field
from .series import INF, LaurentSeries, PadicInteger, PrecisionError, nth_root_unit, one_plus_pi_pow
from .tate import Context, GammaElement, NonBijectiveError, TateElement, solve_phi_minus_one
from .rankone import (
    RankOneModule,
    WeightProfile,
    fundamental_character_exponents,
    is_isomorphic,
    kappa,
    normal_form,
    twist_factor,
    weight_profiles,
)
from .cocycle import (
    Cocycle,
    CoboundaryResult,
    ExtClass,
    ModuleBasis,
    PivotError,
    basis_for,
    build_Bcyc,
    build_Bi,
    build_Bi_prime,
    build_Btr,
    build_trivial_basis,
    coboundary,
    is_coboundary,
    random_cocycle,
    span_decompose,
    verify_cocycle,
)
from .bounded import SubspaceReport, TwistedCocycle, compute_VJ, iota_twist, is_bounded_class, vj_table
from .wach import (
    PadicContext,
    PadicRing,
    WachRankOne,
    WachRankTwo,
    big_lambda_gamma,
    build_wach_rank1,
    example71,
    reduce_mod_p,
    saturation_check,
    split_lattice,
    twist_rank_two,
)
from .oracle import LEMMAS, sweep, verify_lemma

__version__ = "0.1.0"
