//! An incrementally maintained Pareto frontier.

use crate::dominates;
use std::fmt;

/// Result of offering a point to a [`ParetoFront`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The point joined the frontier, evicting `evicted` dominated members.
    Inserted {
        /// How many previous members the new point dominated.
        evicted: usize,
    },
    /// The point is dominated by (or duplicates) an existing member.
    Rejected,
}

impl InsertOutcome {
    /// `true` if the point was added.
    pub fn is_inserted(&self) -> bool {
        matches!(self, InsertOutcome::Inserted { .. })
    }
}

/// A Pareto frontier of items tagged with their objective vectors
/// (minimization). Maintains the antichain invariant: no member dominates
/// another.
///
/// This is the `X*` of Algorithm 2, updated by `Pareto_update` each
/// iteration.
///
/// # Examples
///
/// ```
/// use lens_pareto::ParetoFront;
///
/// let mut front: ParetoFront<&str> = ParetoFront::new();
/// assert!(front.insert("slow-accurate", vec![10.0, 1.0]).is_inserted());
/// assert!(front.insert("fast-sloppy", vec![1.0, 10.0]).is_inserted());
/// assert!(!front.insert("bad", vec![11.0, 2.0]).is_inserted());
/// assert_eq!(front.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoFront<T> {
    members: Vec<(T, Vec<f64>)>,
}

impl<T> ParetoFront<T> {
    /// Creates an empty frontier.
    pub fn new() -> Self {
        ParetoFront {
            members: Vec::new(),
        }
    }

    /// Number of frontier members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` if the frontier has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Iterates over `(item, objectives)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&T, &[f64])> {
        self.members.iter().map(|(t, o)| (t, o.as_slice()))
    }

    /// The objective vectors of all members.
    pub fn objectives(&self) -> Vec<&[f64]> {
        self.members.iter().map(|(_, o)| o.as_slice()).collect()
    }

    /// The items of all members.
    pub fn items(&self) -> Vec<&T> {
        self.members.iter().map(|(t, _)| t).collect()
    }

    /// Offers a point. It is inserted iff no current member dominates or
    /// equals it; members it dominates are evicted.
    ///
    /// # Panics
    ///
    /// Panics if `objectives` is empty or its length differs from existing
    /// members'.
    pub fn insert(&mut self, item: T, objectives: Vec<f64>) -> InsertOutcome {
        assert!(!objectives.is_empty(), "objective vector must be non-empty");
        if let Some((_, first)) = self.members.first() {
            assert_eq!(
                first.len(),
                objectives.len(),
                "objective dimensionality must be consistent"
            );
        }
        for (_, existing) in &self.members {
            if dominates(existing, &objectives) || existing == &objectives {
                return InsertOutcome::Rejected;
            }
        }
        let before = self.members.len();
        self.members.retain(|(_, o)| !dominates(&objectives, o));
        let evicted = before - self.members.len();
        self.members.push((item, objectives));
        InsertOutcome::Inserted { evicted }
    }

    /// Verifies the antichain invariant (used by property tests).
    pub fn is_antichain(&self) -> bool {
        for (i, (_, a)) in self.members.iter().enumerate() {
            for (j, (_, b)) in self.members.iter().enumerate() {
                if i != j && dominates(a, b) {
                    return false;
                }
            }
        }
        true
    }
}

impl<T> Default for ParetoFront<T> {
    fn default() -> Self {
        ParetoFront::new()
    }
}

/// Builds a frontier by offering each point in turn.
impl<T> FromIterator<(T, Vec<f64>)> for ParetoFront<T> {
    fn from_iter<I: IntoIterator<Item = (T, Vec<f64>)>>(iter: I) -> Self {
        let mut front = ParetoFront::new();
        for (item, obj) in iter {
            front.insert(item, obj);
        }
        front
    }
}

impl<T: fmt::Display> fmt::Display for ParetoFront<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "pareto frontier ({} members):", self.len())?;
        for (item, obj) in self.iter() {
            write!(f, "  {item}: [")?;
            for (i, o) in obj.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{o:.4}")?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_evicts_dominated() {
        let mut f = ParetoFront::new();
        f.insert(1, vec![5.0, 5.0]);
        f.insert(2, vec![6.0, 6.0]); // rejected
        assert_eq!(f.len(), 1);
        let out = f.insert(3, vec![4.0, 4.0]); // dominates member 1
        assert_eq!(out, InsertOutcome::Inserted { evicted: 1 });
        assert_eq!(f.len(), 1);
        assert_eq!(f.items(), vec![&3]);
    }

    #[test]
    fn duplicates_rejected() {
        let mut f = ParetoFront::new();
        assert!(f.insert("a", vec![1.0, 2.0]).is_inserted());
        assert_eq!(f.insert("b", vec![1.0, 2.0]), InsertOutcome::Rejected);
    }

    #[test]
    fn incomparable_points_coexist() {
        let mut f = ParetoFront::new();
        f.insert("a", vec![1.0, 9.0]);
        f.insert("b", vec![9.0, 1.0]);
        f.insert("c", vec![5.0, 5.0]);
        assert_eq!(f.len(), 3);
        assert!(f.is_antichain());
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn inconsistent_dims_panic() {
        let mut f = ParetoFront::new();
        f.insert(1, vec![1.0, 2.0]);
        f.insert(2, vec![1.0]);
    }

    #[test]
    fn display_lists_members() {
        let mut f = ParetoFront::new();
        f.insert("m", vec![1.0, 2.0]);
        let s = format!("{f}");
        assert!(s.contains("1 members") && s.contains("m:"));
    }

    proptest! {
        /// After inserting arbitrary points: the frontier is an antichain,
        /// every offered point is dominated-or-equal by some member or is a
        /// member, and no member is dominated by any offered point.
        #[test]
        fn prop_front_invariants(points in proptest::collection::vec(
            proptest::collection::vec(0.0f64..100.0, 3), 1..60)) {
            let front: ParetoFront<usize> = points
                .iter()
                .cloned()
                .enumerate()
                .collect();
            prop_assert!(front.is_antichain());
            prop_assert!(!front.is_empty());
            for p in &points {
                let covered = front.iter().any(|(_, m)| {
                    m == p.as_slice() || crate::dominates(m, p)
                });
                prop_assert!(covered, "point {:?} neither member nor dominated", p);
            }
            for (_, m) in front.iter() {
                for p in &points {
                    prop_assert!(!crate::dominates(p, m));
                }
            }
        }

        /// Insertion order does not change the frontier's objective set.
        #[test]
        fn prop_order_invariance(points in proptest::collection::vec(
            proptest::collection::vec(0.0f64..20.0, 2), 1..30)) {
            let forward: ParetoFront<usize> = points.iter().cloned().enumerate().collect();
            let backward: ParetoFront<usize> =
                points.iter().cloned().enumerate().rev().collect();
            let mut a: Vec<Vec<f64>> = forward.objectives().iter().map(|o| o.to_vec()).collect();
            let mut b: Vec<Vec<f64>> = backward.objectives().iter().map(|o| o.to_vec()).collect();
            a.sort_by(|x, y| x.partial_cmp(y).unwrap());
            b.sort_by(|x, y| x.partial_cmp(y).unwrap());
            prop_assert_eq!(a, b);
        }
    }
}
