//! The subgroup lattice closure of Algorithm 2 (`subspace_closure`).
//!
//! Given the kernels of the candidate projections, the Brascamp–Lieb
//! admissibility condition (2b) only needs to be checked on the lattice
//! generated by those kernels under subgroup sum and intersection
//! (Valdimarsson, Lemma 3.12). The lattice is not guaranteed to be finite, so
//! — like the paper's timeout — each insertion is guarded: here by a cap on
//! the number of members. An insertion whose closure would exceed the cap
//! leaves the lattice unchanged and the caller skips the offending projection
//! (losing tightness, never soundness).
//!
//! Closure is semi-naive. A lattice is always closed between insertions, so
//! an insertion only pairs the new members against the rest, tracking per
//! member the first partner not yet examined. Pairs are still visited in
//! row-major order, so members appear in exactly the order of the naive
//! scan that restarts from the first pair after every new member — the order
//! the exponent LP sees them in.

use crate::subspace::Subspace;
use std::fmt;

/// A finite sub-lattice of subspaces of `Q^d`, closed under sum and
/// intersection.
///
/// # Examples
///
/// ```
/// use iolb_math::{Lattice, Subspace};
/// let mut lat = Lattice::new(3);
/// lat.insert_closure(&Subspace::from_int_vectors(3, &[vec![1, 0, 0]]), 24).unwrap();
/// lat.insert_closure(&Subspace::from_int_vectors(3, &[vec![0, 1, 0]]), 24).unwrap();
/// // Kernels plus their intersection (zero) and sum (the xy-plane).
/// assert_eq!(lat.len(), 4);
/// ```
#[derive(Clone, PartialEq)]
pub struct Lattice {
    ambient: usize,
    members: Vec<Subspace>,
}

/// A completed [`Lattice::insert_closure`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Closed {
    /// Members the insertion added (0 when the kernel was already present).
    pub added: usize,
    /// Member pairs the closure examined.
    pub steps: usize,
}

/// Error returned when closing the lattice would exceed its member cap (the
/// analogue of the paper's timeout in `subspace_closure`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClosureCapExceeded {
    /// The member cap the closure would have exceeded.
    pub max_members: usize,
    /// Member pairs the closure examined before giving up.
    pub steps: usize,
}

impl fmt::Display for ClosureCapExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "subgroup lattice closure exceeded {} members after {} steps",
            self.max_members, self.steps
        )
    }
}

impl std::error::Error for ClosureCapExceeded {}

impl Lattice {
    /// Creates an empty lattice over `Q^ambient`.
    pub fn new(ambient: usize) -> Self {
        Lattice {
            ambient,
            members: Vec::new(),
        }
    }

    /// Ambient dimension.
    pub fn ambient_dim(&self) -> usize {
        self.ambient
    }

    /// Number of subspaces currently in the lattice.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns true if the lattice holds no subspace.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Iterates over the member subspaces.
    pub fn iter(&self) -> impl Iterator<Item = &Subspace> {
        self.members.iter()
    }

    /// Returns true if an equal subspace is already present.
    pub fn contains(&self, s: &Subspace) -> bool {
        self.members.iter().any(|m| m == s)
    }

    /// Algorithm 2: tentatively add the kernel `k` and re-close the lattice
    /// under sum and intersection, holding at most `max_members` subspaces.
    ///
    /// On success the lattice is updated in place. If the closure would hold
    /// more than `max_members` subspaces, the lattice is truncated back to
    /// exactly what it was before the call and an error is returned,
    /// mirroring the paper's "return L if timeout".
    ///
    /// # Errors
    ///
    /// [`ClosureCapExceeded`] if the closure needs more than `max_members`
    /// members.
    pub fn insert_closure(
        &mut self,
        k: &Subspace,
        max_members: usize,
    ) -> Result<Closed, ClosureCapExceeded> {
        assert_eq!(k.ambient_dim(), self.ambient, "ambient dimension mismatch");
        if self.contains(k) {
            return Ok(Closed { added: 0, steps: 0 });
        }
        let old_len = self.members.len();
        // `next[i]` is the first partner `j > i` of member `i` not yet
        // examined. The lattice is closed between calls, so every pair of
        // old members has been: old rows start at the old length.
        let mut next = vec![old_len; old_len];
        let mut steps = 0;
        let mut found = Some(k.clone());
        loop {
            if let Some(member) = found.take() {
                // A lattice built under a larger cap may already hold more
                // than `max_members`.
                if self.members.len() >= max_members {
                    self.members.truncate(old_len);
                    return Err(ClosureCapExceeded { max_members, steps });
                }
                self.members.push(member);
                next.push(self.members.len());
            }
            // Every pair before the first unexamined one in row-major order
            // is closed, which is where a scan restarting from the first pair
            // would find its next member too.
            let len = self.members.len();
            let Some(i) = (0..len).find(|&i| next[i] < len) else {
                return Ok(Closed {
                    added: len - old_len,
                    steps,
                });
            };
            let (a, b) = (&self.members[i], &self.members[next[i]]);
            steps += 1;
            // A new intersection leaves the pair where it is: like the
            // restart scan, the revisit finds the intersection present and
            // goes on to the sum.
            let inter = a.intersect(b);
            if !self.contains(&inter) {
                found = Some(inter);
                continue;
            }
            let sum = a.sum(b);
            next[i] += 1;
            if !self.contains(&sum) {
                found = Some(sum);
            }
        }
    }

    /// Builds the closed lattice generated by the given kernels, capped at
    /// `max_members` subspaces. Kernels whose insertion would exceed the cap
    /// are skipped and reported in the second return value (their indices).
    pub fn generate(
        ambient: usize,
        kernels: &[Subspace],
        max_members: usize,
    ) -> (Lattice, Vec<usize>) {
        let mut lat = Lattice::new(ambient);
        let mut skipped = Vec::new();
        for (i, k) in kernels.iter().enumerate() {
            if lat.insert_closure(k, max_members).is_err() {
                skipped.push(i);
            }
        }
        (lat, skipped)
    }
}

impl fmt::Debug for Lattice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Lattice over Q^{} with {} members:",
            self.ambient,
            self.len()
        )?;
        for m in &self.members {
            writeln!(f, "  {:?}", m)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn axis(ambient: usize, i: usize) -> Subspace {
        let mut v = vec![0i128; ambient];
        v[i] = 1;
        Subspace::from_int_vectors(ambient, &[v])
    }

    #[test]
    fn independent_kernels_close_quickly() {
        // Three coordinate axes in Z^3 — the lattice is axes, pairwise sums
        // (planes), the full space, and the zero space.
        let kernels = vec![axis(3, 0), axis(3, 1), axis(3, 2)];
        let (lat, skipped) = Lattice::generate(3, &kernels, 24);
        assert!(skipped.is_empty());
        // 3 axes + 3 planes + zero + full = 8.
        assert_eq!(lat.len(), 8);
        assert!(lat.contains(&Subspace::zero(3)));
        assert!(lat.contains(&Subspace::full(3)));
    }

    #[test]
    fn duplicate_kernel_does_not_change_lattice() {
        let mut lat = Lattice::new(2);
        let k = axis(2, 0);
        assert_eq!(lat.insert_closure(&k, 24).unwrap().added, 1);
        assert_eq!(
            lat.insert_closure(&k, 24).unwrap(),
            Closed { added: 0, steps: 0 }
        );
        assert_eq!(lat.len(), 1);
    }

    #[test]
    fn two_dimensional_stencil_kernels() {
        // Kernels typical of a 2D stencil: (1,0) chain and (0,1) chain plus a
        // diagonal broadcast kernel (1,1).
        let kernels = vec![
            Subspace::from_int_vectors(2, &[vec![1, 0]]),
            Subspace::from_int_vectors(2, &[vec![0, 1]]),
            Subspace::from_int_vectors(2, &[vec![1, 1]]),
        ];
        let (lat, skipped) = Lattice::generate(2, &kernels, 24);
        assert!(skipped.is_empty());
        // 3 lines + zero + full plane.
        assert_eq!(lat.len(), 5);
    }

    #[test]
    fn exceeding_the_cap_restores_lattice() {
        let mut lat = Lattice::new(3);
        lat.insert_closure(&axis(3, 0), 24).unwrap();
        lat.insert_closure(&axis(3, 1), 24).unwrap();
        let before = lat.clone();
        // The third axis closes to 8 members: a cap of 7 refuses it.
        let err = lat.insert_closure(&axis(3, 2), 7).unwrap_err();
        assert_eq!(err.max_members, 7);
        assert!(err.steps > 0);
        assert_eq!(lat, before);
        // A full lattice refuses any new member before examining a pair.
        let err = lat.insert_closure(&axis(3, 2), 4).unwrap_err();
        assert_eq!(err.steps, 0);
        assert_eq!(lat, before);
        assert_eq!(lat.insert_closure(&axis(3, 2), 8).unwrap().added, 4);
    }

    #[test]
    fn a_lattice_above_the_cap_refuses_new_members() {
        // The closed 8-member lattice of the three axes, then a cap of 4:
        // the lattice already holds more than the cap, so a new line is
        // refused before any pair is examined and nothing changes.
        let kernels = vec![axis(3, 0), axis(3, 1), axis(3, 2)];
        let (mut lat, _) = Lattice::generate(3, &kernels, 24);
        let before = lat.clone();
        let line = Subspace::from_int_vectors(3, &[vec![1, 1, 0]]);
        let err = lat.insert_closure(&line, 4).unwrap_err();
        assert_eq!(
            err,
            ClosureCapExceeded {
                max_members: 4,
                steps: 0
            }
        );
        assert_eq!(lat, before);
        // A kernel already present is still accepted: it adds nothing.
        assert_eq!(lat.insert_closure(&axis(3, 0), 4).unwrap().added, 0);
    }

    #[test]
    fn new_members_follow_row_major_pair_order() {
        // x, then y: pair (x, y) yields zero (intersection) before the
        // xy-plane (sum). Adding z: (x, z) → xz-plane, (x, xz) adds
        // nothing, (y, z) → yz-plane, and then the scan is back on row x
        // before any later row: (x, yz) → full space.
        let mut lat = Lattice::new(3);
        lat.insert_closure(&axis(3, 0), 24).unwrap();
        lat.insert_closure(&axis(3, 1), 24).unwrap();
        lat.insert_closure(&axis(3, 2), 24).unwrap();
        let plane = |i: usize, j: usize| axis(3, i).sum(&axis(3, j));
        let expected = vec![
            axis(3, 0),
            axis(3, 1),
            Subspace::zero(3),
            plane(0, 1),
            axis(3, 2),
            plane(0, 2),
            plane(1, 2),
            Subspace::full(3),
        ];
        assert_eq!(lat.iter().cloned().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn closure_contains_sums_and_intersections() {
        let k1 = Subspace::from_int_vectors(3, &[vec![1, 0, 0], vec![0, 1, 0]]);
        let k2 = Subspace::from_int_vectors(3, &[vec![0, 1, 0], vec![0, 0, 1]]);
        let (lat, _) = Lattice::generate(3, &[k1.clone(), k2.clone()], 24);
        assert!(lat.contains(&k1.sum(&k2)));
        assert!(lat.contains(&k1.intersect(&k2)));
    }

    #[test]
    fn generate_empty() {
        let (lat, skipped) = Lattice::generate(4, &[], 24);
        assert!(lat.is_empty());
        assert!(skipped.is_empty());
    }
}
