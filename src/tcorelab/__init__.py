"""Partition statistics, t-core machinery and exact q-series verification."""

from .cores import (
    CoreQuotient,
    alpha_from_n,
    capital_phi,
    capital_phi_inv,
    n_from_alpha,
    phi1,
    phi1_inv,
    phi2,
    phi2_inv,
    q3,
    q_alpha,
    words,
)
from .orbits import (
    Orbit,
    c1_shift,
    c2_shift,
    map_4n_plus_3,
    orbit,
    orbit_map,
    orbit_map_s,
    theta,
)
from .partitions import (
    BoundExceededError,
    Cell,
    Partition,
    StripRemoval,
    add_cell,
    enumerate_partitions,
    is_t_core,
    residue_counts,
    rim_hook_removals,
    strip_to_core,
)
from .qseries import Series, partition_count_series, poch_product, theta_jtp
from .rings import CYC5, INT, Cyclotomic5, Laurent, LaurentRing
from .stats import (
    STATISTICS,
    ag_crank,
    bg_rank,
    bijection1,
    bijection1_inv,
    bijection2,
    bijection2_inv,
    core_srank_mod4,
    decomposition_srank_mod4,
    dyson_rank,
    five_core_crank,
    is_type_a,
    is_type_b,
    srank,
    srank_charge_contribution,
    st_crank,
    two_quotient_rank,
)
from .verify import CheckReport, run_all, run_check, search_counterexample

__version__ = "0.1.0"
