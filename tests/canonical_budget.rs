//! The canonicalizer's work budget on served-size traffic: every residual
//! component of a private-like 2000-query instance canonicalizes under
//! `DEFAULT_BUDGET`, so the opt-in component cache can key all of them.

use mc3::solver::{Mc3Solver, SolveCache};
use mc3::workload::{generate_dataset, GeneratorKind};
use std::sync::Arc;

#[test]
fn private_like_components_canonicalize_within_the_default_budget() {
    for seed in 1..=4 {
        let ds = generate_dataset(GeneratorKind::Private, 2000, seed);
        let cache = Arc::new(SolveCache::with_capacity_mb(64));
        let report = Mc3Solver::new()
            .cache(Arc::clone(&cache))
            .solve_report(&ds.instance)
            .expect("private-like instances are coverable");
        // A component whose canonicalization exhausts the budget is solved
        // uncached and counts as neither a hit nor a miss.
        let s = cache.stats();
        assert_eq!(
            s.hits + s.negative_hits + s.misses,
            report.components as u64,
            "seed {seed}: a residual component exhausted the canonicalization budget"
        );
    }
}
