//! A set of task indices as a `u32` bitmask.
//!
//! Task graphs in this workspace are tiny (the subset enumerators
//! assert ≤ 20 tasks), so a whole subset — the paper's `te_{i,j}(n)`
//! admission bits, a slot's pick set, the completed-task ledger — fits
//! in one machine word. `TaskSet` replaces the `Vec<bool>` masks and
//! `Vec<TaskId>` pick lists of the online hot path: it is `Copy`,
//! allocation-free, and set algebra is single instructions.
//!
//! Indices are plain `usize` task indices (`TaskId::index()`); the
//! tasks crate sits above this one, so the conversion happens at the
//! call sites.

use serde::{Deserialize, Serialize};

/// Maximum number of tasks a `TaskSet` can hold.
pub const MAX_TASKS: usize = 32;

/// A set of task indices packed into a `u32` bitmask.
///
/// Serialises as the bare integer mask (transparent newtype).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct TaskSet(u32);

impl TaskSet {
    /// The empty set.
    pub const EMPTY: Self = Self(0);

    /// The set `{0, 1, …, n-1}` (all tasks of an `n`-task graph).
    ///
    /// # Panics
    ///
    /// Panics when `n > MAX_TASKS`.
    #[inline]
    #[must_use]
    pub fn all(n: usize) -> Self {
        assert!(
            n <= MAX_TASKS,
            "task graphs are limited to {MAX_TASKS} tasks"
        );
        if n == MAX_TASKS {
            Self(u32::MAX)
        } else {
            Self((1u32 << n) - 1)
        }
    }

    /// Constructs a set from its raw bitmask.
    #[inline]
    #[must_use]
    pub const fn from_bits(bits: u32) -> Self {
        Self(bits)
    }

    /// The raw bitmask.
    #[inline]
    #[must_use]
    pub const fn bits(self) -> u32 {
        self.0
    }

    /// Whether the set is empty.
    #[inline]
    #[must_use]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of members.
    #[inline]
    #[must_use]
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether task index `i` is a member.
    #[inline]
    #[must_use]
    pub const fn contains(self, i: usize) -> bool {
        self.0 & (1u32 << i) != 0
    }

    /// Adds task index `i`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        self.0 |= 1u32 << i;
    }

    /// Removes task index `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        self.0 &= !(1u32 << i);
    }

    /// A copy with task index `i` added.
    #[inline]
    #[must_use]
    pub const fn with(self, i: usize) -> Self {
        Self(self.0 | (1u32 << i))
    }

    /// `self` when `cond`, the empty set otherwise — a branchless
    /// building block for unions of precomputed masks selected by
    /// data-dependent predicates (a union of these compiles to
    /// straight-line bit arithmetic, where a conditional `union` is an
    /// unpredictable branch per mask).
    #[inline]
    #[must_use]
    pub const fn select_if(self, cond: bool) -> Self {
        Self(self.0 & (cond as u32).wrapping_neg())
    }

    /// Set union.
    #[inline]
    #[must_use]
    pub const fn union(self, other: Self) -> Self {
        Self(self.0 | other.0)
    }

    /// Set intersection.
    #[inline]
    #[must_use]
    pub const fn intersection(self, other: Self) -> Self {
        Self(self.0 & other.0)
    }

    /// Members of `self` not in `other`.
    #[inline]
    #[must_use]
    pub const fn difference(self, other: Self) -> Self {
        Self(self.0 & !other.0)
    }

    /// Whether every member of `self` is in `other`.
    #[inline]
    #[must_use]
    pub const fn is_subset_of(self, other: Self) -> bool {
        self.0 & !other.0 == 0
    }

    /// Iterates member indices in ascending order — the canonical
    /// iteration order of the engine's demand sums.
    #[inline]
    pub fn iter(self) -> TaskSetIter {
        TaskSetIter(self.0)
    }

    /// Collects the members of a `bool` mask (`mask[i]` ⇒ `i ∈ set`).
    ///
    /// # Panics
    ///
    /// Panics when `mask.len() > MAX_TASKS`.
    #[must_use]
    pub fn from_mask(mask: &[bool]) -> Self {
        assert!(
            mask.len() <= MAX_TASKS,
            "task graphs are limited to {MAX_TASKS} tasks"
        );
        let mut bits = 0u32;
        for (i, &b) in mask.iter().enumerate() {
            if b {
                bits |= 1u32 << i;
            }
        }
        Self(bits)
    }
}

impl IntoIterator for TaskSet {
    type Item = usize;
    type IntoIter = TaskSetIter;

    fn into_iter(self) -> TaskSetIter {
        self.iter()
    }
}

/// Ascending-index iterator over a [`TaskSet`].
#[derive(Debug, Clone)]
pub struct TaskSetIter(u32);

impl Iterator for TaskSetIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(i)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for TaskSetIter {}

impl std::fmt::Display for TaskSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (k, i) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_set_algebra() {
        let mut s = TaskSet::EMPTY;
        assert!(s.is_empty());
        s.insert(0);
        s.insert(5);
        s.insert(19);
        assert_eq!(s.len(), 3);
        assert!(s.contains(5) && !s.contains(4));
        s.remove(5);
        assert!(!s.contains(5));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 19]);
    }

    #[test]
    fn all_and_full_word() {
        assert_eq!(TaskSet::all(0), TaskSet::EMPTY);
        assert_eq!(TaskSet::all(3).bits(), 0b111);
        assert_eq!(TaskSet::all(32).bits(), u32::MAX);
        assert_eq!(TaskSet::all(20).len(), 20);
    }

    #[test]
    fn subset_and_disjoint() {
        let a = TaskSet::from_bits(0b0110);
        let b = TaskSet::from_bits(0b1110);
        assert!(a.is_subset_of(b));
        assert!(!b.is_subset_of(a));
        assert_eq!(b.difference(a).bits(), 0b1000);
        assert_eq!(a.union(b).bits(), 0b1110);
        assert_eq!(a.intersection(b).bits(), 0b0110);
    }

    #[test]
    fn branchless_selectors() {
        let s = TaskSet::from_bits(0b1011);
        assert_eq!(s.select_if(true), s);
        assert_eq!(s.select_if(false), TaskSet::EMPTY);
    }

    #[test]
    fn mask_round_trip() {
        let mask = [true, false, true, true, false];
        let s = TaskSet::from_mask(&mask);
        assert_eq!(s.bits(), 0b1101);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 2, 3]);
    }

    #[test]
    fn iteration_is_ascending() {
        let s = TaskSet::from_bits(0b1010_0101);
        let members: Vec<usize> = s.iter().collect();
        let mut sorted = members.clone();
        sorted.sort_unstable();
        assert_eq!(members, sorted);
        assert_eq!(s.iter().len(), 4);
    }

    #[test]
    fn display_lists_members() {
        assert_eq!(TaskSet::from_bits(0b101).to_string(), "{0,2}");
        assert_eq!(TaskSet::EMPTY.to_string(), "{}");
    }

    #[test]
    fn serialises_as_bare_mask() {
        let s = TaskSet::from_bits(37);
        assert_eq!(serde_json::to_string(&s).unwrap(), "37");
        let back: TaskSet = serde_json::from_str("37").unwrap();
        assert_eq!(back, s);
    }
}
