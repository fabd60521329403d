"""Binary-choice logit models with general fixed effects.

Identification and estimation without restricting the distribution of
the unobserved effects: differencing-vector search and conditional
maximum likelihood for static designs, sufficient-statistic machinery
for dynamic models, fixed-effect-free moment conditions via the
polynomial null-space construction, and GMM/CMLE estimators with a
simulation harness.
"""

from .designs import (
    build_design,
    find_wperp,
    minimal_T_polytrend,
    panel_ar,
    quarterly_ar,
    rank_condition,
    trend_ar,
)
from .model import (
    AR,
    NETWORK,
    STATIC,
    ModelSpec,
    all_paths,
    likelihood_ratio,
    network_design,
    path_distribution,
)
from .moments import (
    DSet,
    MomentFunction,
    build_dset,
    closed_form_ar2_T3,
    closed_form_network_transition,
    closed_form_quarterly_T6,
    nullspace_moments,
    qt_values,
    verify_moment,
)
from .sufficiency import (
    ConditioningSet,
    Pair,
    PairCertificate,
    arp_condition_check,
    ar1_sufficient_stat,
    canonicalize_design,
    enumerate_pairs_ar1,
    permutation_check,
    network_cond_full,
    network_cond_likelihood,
    network_cond_star,
)

__version__ = "0.1.0"
