"""Log-Sobolev constant brackets for Gaussian-mollified measures.

Subpackages by theme: ``measure`` (compactly supported 1-D measures and
the entropy functional), ``mollify`` (log-space evaluation of the
convolved density and its tails), ``bg`` (Bobkov-Goetze brackets,
blow-up scans, unboundedness detection, Herbst bound), ``rmt`` (the
random-matrix concentration laboratory), ``highdim`` (curvature
certificates for atom clouds in R^n), ``cli`` (the ``lsi`` binary; not
imported here, so ``python -m lsi_lab.cli`` runs it cleanly).
"""

from . import bg, highdim, measure, mollify, rmt  # noqa: F401
from .bg import BGReport, BlowupScan, blowup_scan, compute_bg, herbst_bound
from .highdim import (
    HessianCertificate,
    MeasureND,
    bakry_emery_certificate,
    build_measure_nd,
    gross_compose,
    hessian_neg_log_p,
    log_density_nd,
    threshold_check,
)
from .measure import (
    Measure1D,
    TestFunction,
    build_measure,
    cdf,
    disconnected_witness,
    entropy_functional,
    lsi_defect,
    measure_from_json,
    point_mass,
    two_point,
    uniform,
)
from .mollify import (
    AsymptoticReport,
    MollifiedDensity,
    asymptotic_ratios,
    log_density,
    log_density_ratio_grad,
    median,
    reciprocal_integral,
    tail_mass,
)
from .rmt import (
    ConcentrationReport,
    DeltaSchedule,
    EntryLaw,
    ExperimentConfig,
    FSpec,
    SymmetricMatrix,
    concentration_experiment,
    cutoff,
    delta_schedule,
    empirical_law_integral,
    guionnet_bound,
    hoffman_wielandt_gap,
    mollify_ensemble,
    sample_wigner,
    spectrum,
    term1_bound,
    term3_check,
)

__version__ = "0.1.0"
