//! Flat columnar tries for Leapfrog Triejoin (Veldhuizen, PAPERS.md).
//!
//! A [`Trie`] stores one atom's projected, attribute-ordered rows as
//! per-level sorted **columns**: level ℓ holds the distinct length-(ℓ+1)
//! prefixes' last values, grouped by parent, with a flat `child_start`
//! offset array mapping each entry to its children's contiguous range on
//! the next level. Built once per (query, variable order) during
//! preparation, from a flat row-major buffer (stride = arity): straight
//! from the [`Table`]'s own storage when the atom's projection is the
//! identity and the rows are strictly increasing, otherwise from one
//! projected, sorted and deduplicated copy.
//!
//! Iterator state over a trie is tiny: a level index plus a `[lo, hi)`
//! range into that level's value column — exactly the three `usize`s the
//! WCOJ checkpoint frames serialize. [`Trie::seek`] implements the
//! leapfrog `seek(v)` primitive with galloping (exponential probe then
//! binary search), so a seek over a run of `g` skipped values costs
//! O(log g) comparisons instead of the O(g) a linear scan would pay.
//! [`Trie::find`] is the light-mode probe: the WCOJ machine's fused light
//! loop calls it once per non-driver participant per candidate, each call
//! one charged advance applied before its tick (see `crate::wcoj`), so
//! the accessors here stay uncharged, allocation-free reads.
//!
//! [`Table`]: crate::Table

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::Value;

/// One trie level: the distinct prefix-extension values (grouped by
/// parent, sorted within each group) and, for non-leaf levels, the offset
/// of each entry's child range on the next level.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Level {
    vals: Vec<Value>,
    /// `child_start[i]..child_start[i + 1]` is entry `i`'s child range on
    /// the next level; empty on the deepest level, else `vals.len() + 1`
    /// long (the last entry is the sentinel).
    child_start: Vec<usize>,
}

/// A flat columnar trie over sorted, deduplicated, fixed-arity rows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trie {
    levels: Vec<Level>,
    rows: usize,
    heavy_threshold: usize,
}

impl Trie {
    /// Builds a trie over `rows` rows of `arity` values each, read from the
    /// row-major buffer `flat`; the rows must be sorted lexicographically
    /// and deduplicated. For arity 0 `flat` is empty and `rows` alone says
    /// how many empty rows there are (zero or one for a normalized table).
    /// For wider rows at most `flat.len() / arity` rows are read, so a
    /// trailing partial row is ignored; rows out of order produce a trie
    /// that simply reflects the given order.
    pub fn build(flat: &[Value], arity: usize, rows: usize) -> Trie {
        let mut levels: Vec<Level> = (0..arity)
            .map(|_| Level {
                vals: Vec::new(),
                child_start: Vec::new(),
            })
            .collect();
        let source = flat
            .chunks_exact(arity.max(1))
            .take(if arity == 0 { 0 } else { rows });
        let num_rows = if arity == 0 { rows } else { source.len() };
        if let Some(deepest) = levels.last_mut() {
            deepest.vals.reserve_exact(num_rows);
        }
        source
            .clone()
            .zip(std::iter::once(None).chain(source.map(Some)))
            .for_each(|(row, prev)| {
                // A row opens one entry on every level from the first column
                // where it differs from its predecessor down to the leaf.
                let split = prev.map_or(0, |p: &[Value]| {
                    p.iter().zip(row).position(|(a, b)| a != b).unwrap_or(arity)
                });
                // Deepest first, so each entry's children start where the
                // entry just opened one level down sits.
                let mut below: Option<usize> = None;
                levels
                    .iter_mut()
                    .zip(row)
                    .skip(split)
                    .rev()
                    .for_each(|(level, &v)| {
                        level.vals.push(v);
                        if let Some(len) = below {
                            level.child_start.push(len - 1);
                        }
                        below = Some(level.vals.len());
                    });
            });
        // Close every non-leaf level with its sentinel offset.
        levels
            .iter_mut()
            .rev()
            .fold(None, |below: Option<usize>, level| {
                if let Some(len) = below {
                    level.child_start.push(len);
                }
                Some(level.vals.len())
            });
        Trie {
            levels,
            rows: num_rows,
            heavy_threshold: num_rows.isqrt().max(4),
        }
    }

    /// Number of levels (= the projected arity).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Number of source rows the trie indexes.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The heavy/light split point: a candidate range is *heavy* when it
    /// still holds at least `max(4, ⌊√rows⌋)` distinct values (the "Skew
    /// Strikes Back" √N regime boundary).
    pub fn heavy_threshold(&self) -> usize {
        self.heavy_threshold
    }

    /// Number of entries on a level (0 for out-of-range levels).
    pub fn level_len(&self, depth: usize) -> usize {
        self.levels.get(depth).map_or(0, |l| l.vals.len())
    }

    /// The value of entry `idx` on level `depth`.
    pub fn value(&self, depth: usize, idx: usize) -> Option<Value> {
        self.levels
            .get(depth)
            .and_then(|l| l.vals.get(idx))
            .copied()
    }

    /// The child range of entry `idx` on level `depth`; `(0, 0)` when the
    /// entry or a next level does not exist.
    pub fn child_range(&self, depth: usize, idx: usize) -> (usize, usize) {
        let Some(level) = self.levels.get(depth) else {
            return (0, 0);
        };
        match (level.child_start.get(idx), level.child_start.get(idx + 1)) {
            (Some(&lo), Some(&hi)) if lo <= hi => (lo, hi),
            _ => (0, 0),
        }
    }

    /// Leapfrog `seek`: the first index in `[lo, hi)` whose value is
    /// `≥ target`, found by galloping — exponential probing from `lo`
    /// followed by binary search on the bracketed window. Returns `hi`
    /// when every value is smaller (or the range/level is empty).
    pub fn seek(&self, depth: usize, lo: usize, hi: usize, target: Value) -> usize {
        let Some(level) = self.levels.get(depth) else {
            return hi;
        };
        let hi = hi.min(level.vals.len());
        if lo >= hi {
            return hi;
        }
        if level.vals.get(lo).is_none_or(|&v| v >= target) {
            return lo;
        }
        // Invariant: vals[lo + offset / 2] < target.
        let mut offset = 1usize;
        // lb-lint: allow(unbudgeted-loop) -- O(log gap) exponential gallop inside one charged trie_advance
        while lo + offset < hi && level.vals.get(lo + offset).is_some_and(|&v| v < target) {
            offset *= 2;
        }
        let win_lo = lo + offset / 2;
        let win_hi = (lo + offset + 1).min(hi);
        let window = level.vals.get(win_lo..win_hi).unwrap_or(&[]);
        win_lo + window.partition_point(|&v| v < target)
    }

    /// Exact-match probe: the index of `target` in `[lo, hi)` on `depth`,
    /// or `None`. Uses the same galloping seek.
    pub fn find(&self, depth: usize, lo: usize, hi: usize, target: Value) -> Option<usize> {
        let j = self.seek(depth, lo, hi, target);
        if j < hi && self.value(depth, j) == Some(target) {
            Some(j)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sorted, deduplicated rows, flattened row-major.
    fn rows(raw: &[&[Value]]) -> Vec<Value> {
        let mut out: Vec<Vec<Value>> = raw.iter().map(|r| r.to_vec()).collect();
        out.sort_unstable();
        out.dedup();
        out.concat()
    }

    #[test]
    fn builds_levels_and_child_ranges() {
        let t = Trie::build(
            &rows(&[&[1, 10], &[1, 20], &[3, 30], &[3, 31], &[7, 10]]),
            2,
            5,
        );
        assert_eq!(t.num_levels(), 2);
        assert_eq!(t.level_len(0), 3); // 1, 3, 7
        assert_eq!(t.level_len(1), 5);
        assert_eq!(t.value(0, 0), Some(1));
        assert_eq!(t.value(0, 2), Some(7));
        assert_eq!(t.child_range(0, 0), (0, 2)); // 10, 20
        assert_eq!(t.child_range(0, 1), (2, 4)); // 30, 31
        assert_eq!(t.child_range(0, 2), (4, 5)); // 10
        assert_eq!(t.value(1, 4), Some(10));
        // Out-of-range accesses are total.
        assert_eq!(t.child_range(0, 3), (0, 0));
        assert_eq!(t.child_range(1, 0), (0, 0));
        assert_eq!(t.value(2, 0), None);
    }

    #[test]
    fn empty_and_unary_tries() {
        let t = Trie::build(&[], 2, 0);
        assert_eq!(t.level_len(0), 0);
        assert_eq!(t.seek(0, 0, 0, 5), 0);
        let t = Trie::build(&rows(&[&[4], &[9], &[2]]), 1, 3);
        assert_eq!(t.level_len(0), 3);
        assert_eq!(t.value(0, 0), Some(2));
        assert_eq!(t.child_range(0, 0), (0, 0));
    }

    #[test]
    fn seek_is_lower_bound_on_adversarial_runs() {
        // Adversarial shapes for galloping: long equal plateau handled by
        // dedup (single entry), long skipped run, target past the end,
        // target before the start, exact hits at window boundaries.
        let vals: Vec<Value> = (0..1000u64).map(|i| i * 3).collect();
        let t = Trie::build(&vals, 1, vals.len());
        for target in [
            0u64, 1, 2, 3, 4, 1497, 1498, 1499, 1500, 2996, 2997, 2998, 3000,
        ] {
            let expected = vals.partition_point(|&v| v < target);
            assert_eq!(
                t.seek(0, 0, vals.len(), target),
                expected,
                "target {target}"
            );
        }
        // Seeks restricted to subranges respect both ends.
        assert_eq!(t.seek(0, 100, 200, 0), 100);
        assert_eq!(t.seek(0, 100, 200, u64::MAX), 200);
        assert_eq!(t.seek(0, 100, 200, 3 * 150), 150);
        // Galloping from a moving frontier (the leapfrog access pattern).
        let mut at = 0usize;
        for target in [5u64, 6, 600, 601, 2990] {
            at = t.seek(0, at, vals.len(), target);
            let expected = vals.partition_point(|&v| v < target);
            assert_eq!(at, expected, "target {target}");
        }
    }

    #[test]
    fn find_reports_exact_hits_only() {
        let t = Trie::build(&rows(&[&[2], &[4], &[8], &[16], &[32]]), 1, 5);
        assert_eq!(t.find(0, 0, 5, 8), Some(2));
        assert_eq!(t.find(0, 0, 5, 9), None);
        assert_eq!(t.find(0, 3, 5, 8), None); // outside the range
        assert_eq!(t.find(0, 0, 5, 33), None); // past the end
    }

    #[test]
    fn heavy_threshold_tracks_sqrt() {
        let raw: Vec<Value> = (0..400u64).collect();
        assert_eq!(Trie::build(&raw, 1, 400).heavy_threshold(), 20);
        assert_eq!(Trie::build(&raw[..9], 1, 9).heavy_threshold(), 4); // floor of 4
        assert_eq!(Trie::build(&[], 1, 0).heavy_threshold(), 4);
    }

    #[test]
    fn a_trailing_partial_row_is_ignored() {
        let t = Trie::build(&[2, 5, 7], 2, 2);
        assert_eq!(t.rows(), 1);
        assert_eq!(t.level_len(0), 1);
        assert_eq!(t.value(0, 0), Some(2));
        assert_eq!(t.child_range(0, 0), (0, 1));
        assert_eq!(t.level_len(1), 1);
    }

    #[test]
    fn a_nullary_trie_counts_its_empty_rows() {
        let t = Trie::build(&[], 0, 1);
        assert_eq!(t.num_levels(), 0);
        assert_eq!(t.rows(), 1);
        assert_eq!(Trie::build(&[], 0, 0).rows(), 0);
    }

    #[test]
    fn a_row_count_caps_the_rows_read() {
        let t = Trie::build(&[1, 2, 3, 4], 1, 2);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.level_len(0), 2);
    }

    #[test]
    fn three_levels_share_prefixes() {
        let t = Trie::build(
            &rows(&[&[1, 2, 3], &[1, 2, 4], &[1, 5, 0], &[2, 0, 0]]),
            3,
            4,
        );
        assert_eq!((t.level_len(0), t.level_len(1), t.level_len(2)), (2, 3, 4));
        assert_eq!(t.child_range(0, 0), (0, 2)); // 2, 5
        assert_eq!(t.child_range(0, 1), (2, 3)); // 0
        assert_eq!(t.child_range(1, 0), (0, 2)); // 3, 4
        assert_eq!(t.child_range(1, 1), (2, 3)); // 0
        assert_eq!(t.child_range(1, 2), (3, 4)); // 0
        assert_eq!(t.value(2, 3), Some(0));
    }
}
