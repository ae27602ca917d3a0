//! A reusable membership set over point indices that empties in O(1).
//!
//! kNN candidate gathering and per-node neighbour merging both deduplicate
//! point indices once per point or node.  A fresh `O(N)` bitmap per call
//! would cost more than the work it dedups, and a hash set spends most of
//! its time hashing; instead every pool thread keeps one stamp per point
//! and a generation counter.  An index is in the set when its stamp equals
//! the current generation, so emptying the set is one increment.

use std::cell::RefCell;

/// Generation-stamped set over `0..len`.
#[derive(Default)]
pub(crate) struct Marker {
    generation: u32,
    stamps: Vec<u32>,
}

impl Marker {
    /// Empty the set and make room for the indices `0..n`.
    fn reset(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // The counter wrapped: clear stale stamps so none can match.
            self.stamps.fill(0);
            self.generation = 1;
        }
    }

    /// Insert `i`; true when it was not in the set yet.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) -> bool {
        let fresh = self.stamps[i] != self.generation;
        self.stamps[i] = self.generation;
        fresh
    }
}

thread_local! {
    static MARKER: RefCell<Marker> = RefCell::new(Marker::default());
}

/// Run `f` with this thread's marker, emptied and sized for `0..n`.
///
/// `f` must not re-enter `with_marker` — directly, or by running pool work
/// that could be scheduled onto this thread — or the borrow panics.
pub(crate) fn with_marker(n: usize, f: impl FnOnce(&mut Marker)) {
    MARKER.with(|m| {
        let mut m = m.borrow_mut();
        m.reset(n);
        f(&mut m)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_empties_the_set() {
        let mut m = Marker::default();
        m.reset(4);
        assert!(m.insert(2));
        assert!(!m.insert(2));
        m.reset(8);
        assert!(m.insert(2));
        assert!(m.insert(7));
    }

    #[test]
    fn generation_wrap_clears_stale_stamps() {
        let mut m = Marker::default();
        m.reset(3);
        m.generation = u32::MAX;
        assert!(m.insert(1));
        m.reset(3);
        assert_eq!(m.generation, 1);
        assert!(m.insert(1), "a stamp from before the wrap must not match");
        assert!(!m.insert(1));
    }
}
