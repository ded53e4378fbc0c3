"""Finite presheaf model over the truncated time category."""
from .timecat import (ElObj, FinCategory, TimeMor, TimeObj,
                      category_sizes, enumerate_category, mor_key, obj_key,
                      pool_names, slice_category)
from .presheaf import (CheckOutcome, FreshClockExhausted, Model, Psh,
                       align, arrow, check_functoriality, check_invariance,
                       clk_psh, const_psh, coproduct,
                       forall_clk, later, product, restrict_to, weaken)
from .typeexpr import (ForceReport, MArrow, MClk, MEq, MExists, MFin,
                       MForall, MForallFam, MLater, MMu, MProd, MSum, MTop,
                       TypeExprM, check_force, eval_type, mu)
from .experiments import (DistReport, FiberVerdict,
                          check_forall_prod_dist, check_forall_sum_dist,
                          exists_forall_experiment, unique_exists_check)

__all__ = [
    "ElObj", "FinCategory", "TimeMor", "TimeObj", "category_sizes",
    "enumerate_category", "mor_key", "obj_key", "pool_names",
    "slice_category",
    "CheckOutcome", "FreshClockExhausted", "Model", "Psh", "align",
    "arrow", "check_functoriality", "check_invariance", "clk_psh",
    "const_psh", "coproduct", "forall_clk", "later",
    "product", "restrict_to", "weaken",
    "ForceReport", "MArrow", "MClk", "MEq", "MExists", "MFin", "MForall",
    "MForallFam", "MLater", "MMu", "MProd", "MSum", "MTop", "TypeExprM",
    "check_force", "eval_type", "mu",
    "DistReport", "FiberVerdict", "check_forall_prod_dist",
    "check_forall_sum_dist", "exists_forall_experiment",
    "unique_exists_check",
]
