//! Property test of the capped, semi-naive subgroup-lattice closure against
//! the naive closure it replaced.
//!
//! The reference below is that naive closure, kept verbatim in spirit: after
//! every new member it restarts its pair scan from the first pair, it gives
//! up after a step budget, and — as the driver did — it throws the result
//! away when the closed lattice holds more than the member cap. The budget
//! is `C(25, 3) = 2300`, the most steps a closure that ends at 24 members
//! can take, so the budget alone never decides an accepted insertion.
//!
//! On seeded random kernel sets in `Q²`–`Q⁴`, each kernel inserted in turn
//! (so every insertion after the first goes into a non-empty lattice), the
//! semi-naive closure must give the same accept-or-refuse verdict and the
//! same members in the same order: `partition::rank_constraints` feeds the
//! members to the exponent LP in that order.

use iolb::math::{Lattice, Subspace};
use iolb::prelude::*;

const MAX_MEMBERS: usize = 24;
const REFERENCE_BUDGET: usize = 2300;
const KERNEL_SETS: usize = 240;

/// SplitMix64: a small seeded generator, so every run sees the same sets.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i128, hi: i128) -> i128 {
        lo + (self.next() % (hi - lo + 1) as u64) as i128
    }
}

/// A random kernel: the span of one to `ambient - 1` small integer vectors.
fn random_kernel(rng: &mut Rng, ambient: usize) -> Subspace {
    let rank = rng.range(1, ambient as i128 - 1) as usize;
    let vectors: Vec<Vec<i128>> = (0..rank)
        .map(|_| (0..ambient).map(|_| rng.range(-2, 2)).collect())
        .collect();
    Subspace::from_int_vectors(ambient, &vectors)
}

/// The naive closure: `Some(changed)` on success, `None` when it runs out
/// of budget or ends above the member cap (either way `members` is
/// restored).
fn restart_scan(members: &mut Vec<Subspace>, k: &Subspace) -> Option<bool> {
    if members.contains(k) {
        return Some(false);
    }
    let saved = members.clone();
    members.push(k.clone());
    let mut steps = 0;
    'restart: loop {
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                steps += 1;
                if steps > REFERENCE_BUDGET {
                    *members = saved;
                    return None;
                }
                for found in [
                    members[i].intersect(&members[j]),
                    members[i].sum(&members[j]),
                ] {
                    if !members.contains(&found) {
                        members.push(found);
                        continue 'restart;
                    }
                }
            }
        }
        break;
    }
    if members.len() > MAX_MEMBERS {
        *members = saved;
        return None;
    }
    Some(true)
}

#[test]
fn capped_semi_naive_closure_matches_the_restart_scan() {
    let mut rng = Rng(0x101b_2020);
    let (mut accepted, mut refused, mut changed) = (0, 0, 0);
    for set in 0..KERNEL_SETS {
        let ambient = 2 + set % 3;
        let kernels: Vec<Subspace> = (0..rng.range(2, 5))
            .map(|_| random_kernel(&mut rng, ambient))
            .collect();
        let mut lattice = Lattice::new(ambient);
        let mut reference: Vec<Subspace> = Vec::new();
        for (n, k) in kernels.iter().enumerate() {
            let expected = restart_scan(&mut reference, k);
            let got = lattice
                .insert_closure(k, MAX_MEMBERS)
                .ok()
                .map(|closed| closed.added > 0);
            assert_eq!(got, expected, "set {set}, kernel {n}: verdicts differ");
            let members: Vec<Subspace> = lattice.iter().cloned().collect();
            assert_eq!(members, reference, "set {set}, kernel {n}: members differ");
            match got {
                Some(true) => changed += 1,
                Some(false) => accepted += 1,
                None => refused += 1,
            }
        }
    }
    // The seeded sets exercise every verdict.
    assert!(
        changed > 0 && accepted > 0 && refused > 0,
        "{changed}/{accepted}/{refused}"
    );
}

/// The closure-work gate: `LATTICE_STEPS` ceilings for the workloads whose
/// lattices outgrow the member cap, at the values the semi-naive closure
/// records. A closure that re-examines closed pairs takes about a hundred
/// times as many steps on these, so it fails here on an operation count,
/// whatever the host's speed.
#[test]
fn stencil_closures_stay_under_their_recorded_step_ceilings() {
    let ceilings = [
        ("heat-3d", 406),
        ("jacobi-2d", 202),
        ("seidel-2d", 193),
        ("examples/programs/jacobi-2d.iolb", 2418),
    ];
    for (name, ceiling) in ceilings {
        let analyzer = Analyzer::new().parallel(false);
        let outcome = match iolb::polybench::kernel_by_name(name) {
            Some(kernel) => analyzer.analyze(&kernel),
            None => analyzer.analyze(&iolb::frontend::IolbFile::new(
                std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name),
            )),
        }
        .unwrap();
        let steps = outcome.stats.LATTICE_STEPS;
        assert!(
            (1..=ceiling).contains(&steps),
            "{name}: {steps} lattice closure steps (ceiling {ceiling})"
        );
        assert!(
            outcome.stats.LATTICE_ABORTS > 0,
            "{name}: its lattice outgrows the member cap"
        );
    }
}
