//! The validation sweep derives its kernels' bounds without certifying
//! the hourglass pattern (`SweepKernel::derive`), while the service always
//! certifies. This test keeps the two from drifting apart: every hourglass
//! bound of the default validation matrix, at both size tiers, also passes
//! `hourglass::certify` on the kernel's exact CDAG at the swept sizes, and
//! GEMM, the one paper kernel without the pattern, has no hourglass bound.

use iolb_bench::sweep::{default_sweep_kernels_at, try_build_cdag, SweepSize};
use iolb_core::govern::{Budget, CancelToken};
use iolb_core::hourglass;

fn assert_certified(size: SweepSize) {
    for k in default_sweep_kernels_at(size) {
        let Some(bound) = &k.hourglass else {
            assert_eq!(
                k.name, "GEMM",
                "{size:?}: {} lost its hourglass bound",
                k.name
            );
            continue;
        };
        assert_ne!(k.name, "GEMM", "{size:?}: GEMM has no hourglass pattern");
        let cdag = try_build_cdag(
            &k.program,
            &k.params,
            &Budget::unlimited(),
            &CancelToken::unlimited(),
        )
        .expect("exact CDAG");
        let chains = hourglass::certify(&k.program, &cdag, &bound.pattern)
            .unwrap_or_else(|e| panic!("{size:?}: {} at {:?}: {e}", k.name, k.params));
        assert!(chains > 0, "{size:?}: {} certified no chain", k.name);
    }
}

#[test]
fn small_tier_hourglass_bounds_certify_on_their_exact_cdags() {
    assert_certified(SweepSize::Small);
}

#[test]
fn full_tier_hourglass_bounds_certify_on_their_exact_cdags() {
    assert_certified(SweepSize::Full);
}
