//! [`RankSet`]: a subset of `0..n` with logarithmic insert, remove and
//! select-by-rank.

/// A subset of `0..n` kept as a Fenwick (binary indexed) tree over
/// membership flags: O(log n) insert, remove and *select by rank* (the k-th
/// smallest member). Inserting a member or removing a non-member changes
/// nothing.
///
/// Rank selection turns a uniform draw from an ascending candidate list into
/// a draw from the set: an index into the sorted list of members *is* a rank,
/// so code that drew `candidates[k]` from a list rebuilt at every step picks
/// the same element with `select(k)`, without rebuilding anything. The random
/// scheduler and the random grounded-tree generator rely on this to stay
/// bit-identical to their list-scanning definitions.
#[derive(Debug, Clone, Default)]
pub struct RankSet {
    /// `tree[x]` (1-based) counts the members in `(x - lowbit(x), x]`.
    tree: Vec<u32>,
    member: Vec<bool>,
    len: usize,
}

impl RankSet {
    /// An empty subset of `0..n`.
    pub fn new(n: usize) -> Self {
        let mut set = RankSet::default();
        set.reset(n);
        set
    }

    /// Empties the set and makes its universe `0..n`, reusing the buffers.
    pub fn reset(&mut self, n: usize) {
        self.tree.clear();
        self.tree.resize(n + 1, 0);
        self.member.clear();
        self.member.resize(n, false);
        self.len = 0;
    }

    /// The number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the set has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds `i` (`i < n`).
    #[inline]
    pub fn insert(&mut self, i: usize) {
        if !self.member[i] {
            self.member[i] = true;
            self.len += 1;
            self.add(1, i);
        }
    }

    /// Removes `i` (`i < n`).
    #[inline]
    pub fn remove(&mut self, i: usize) {
        if self.member[i] {
            self.member[i] = false;
            self.len -= 1;
            self.add(-1, i);
        }
    }

    #[inline]
    fn add(&mut self, delta: i32, i: usize) {
        let mut x = i + 1;
        while x < self.tree.len() {
            self.tree[x] = (self.tree[x] as i32 + delta) as u32;
            x += x & x.wrapping_neg();
        }
    }

    /// The member with exactly `rank` members below it (`rank` counts from 0
    /// and must be below [`RankSet::len`]).
    #[inline]
    pub fn select(&self, rank: usize) -> usize {
        debug_assert!(rank < self.len);
        let mut remaining = rank as u32 + 1;
        let mut pos = 0usize;
        let mut step = (self.tree.len() - 1).next_power_of_two();
        while step > 0 {
            let next = pos + step;
            if next < self.tree.len() && self.tree[next] < remaining {
                remaining -= self.tree[next];
                pos = next;
            }
            step >>= 1;
        }
        pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_is_order_statistics() {
        let mut set = RankSet::new(10);
        for i in [3usize, 0, 7, 9, 4] {
            set.insert(i);
        }
        assert_eq!(set.len(), 5);
        let ranks: Vec<usize> = (0..5).map(|k| set.select(k)).collect();
        assert_eq!(ranks, vec![0, 3, 4, 7, 9]);
        set.remove(3);
        assert_eq!(set.select(1), 4);
        // Idempotent inserts and removes keep the count exact.
        set.insert(7);
        set.remove(3);
        assert_eq!(set.len(), 4);
        // Reset empties the set and resizes its universe.
        set.reset(13);
        assert!(set.is_empty());
        set.insert(12);
        assert_eq!(set.select(0), 12);
    }

    #[test]
    fn select_agrees_with_a_sorted_list_under_churn() {
        let n = 70;
        let mut set = RankSet::new(n);
        let mut list: Vec<usize> = Vec::new();
        for step in 0..500usize {
            let i = (step * 37 + step / 3) % n;
            if step % 3 == 0 {
                set.remove(i);
                list.retain(|&m| m != i);
            } else {
                set.insert(i);
                if !list.contains(&i) {
                    list.push(i);
                    list.sort_unstable();
                }
            }
            assert_eq!(set.len(), list.len());
            for (k, &m) in list.iter().enumerate() {
                assert_eq!(set.select(k), m, "step {step} rank {k}");
            }
        }
    }
}
