//! Database instances: named tables of tuples (paper §2.1).

use crate::query::JoinQuery;
use crate::Value;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// A table: rows of fixed arity, stored flat — one row-major `Vec<Value>`
/// with stride `arity`, so a table of any size is one allocation. Rows are
/// sorted and deduplicated by [`Table::normalize`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table {
    arity: usize,
    /// Row-major values: row `i` is `data[i * arity..(i + 1) * arity]`.
    data: Vec<Value>,
    /// Row count, kept explicitly: an arity-0 table holds zero or one
    /// empty row while `data` stays empty.
    len: usize,
}

impl Table {
    /// Creates an empty table of the given arity.
    pub fn new(arity: usize) -> Self {
        Table {
            arity,
            data: Vec::new(),
            len: 0,
        }
    }

    /// Builds from rows, normalizing (sort + dedup).
    ///
    /// # Panics
    /// Panics if a row has the wrong arity.
    pub fn from_rows(arity: usize, rows: Vec<Vec<Value>>) -> Self {
        let mut t = Table::new(arity);
        t.data.reserve(rows.len() * arity);
        for r in &rows {
            t.push(r);
        }
        t.normalize();
        t
    }

    /// Adds a row (no dedup; call [`Table::normalize`] after bulk loads).
    ///
    /// # Panics
    /// Panics if the row has the wrong arity.
    pub fn push(&mut self, row: &[Value]) {
        assert_eq!(row.len(), self.arity, "row arity mismatch");
        self.data.extend_from_slice(row);
        self.len += 1;
    }

    /// Adds one row whose values `fill` pushes straight onto the end of the
    /// flat buffer, with no row buffer in between; `fill` only pushes. The
    /// row is kept, and `fill`'s result returned, only if `fill` returns
    /// `Some` after pushing exactly `arity` values; otherwise the table is
    /// left as it was and the result is `None`.
    pub fn push_with<T>(&mut self, fill: impl FnOnce(&mut Vec<Value>) -> Option<T>) -> Option<T> {
        let start = self.data.len();
        let kept = fill(&mut self.data).filter(|_| self.data.len() == start + self.arity);
        if kept.is_some() {
            self.len += 1;
        } else {
            self.data.truncate(start);
        }
        kept
    }

    /// Sorts rows lexicographically and removes duplicates, in place. Rows
    /// that already increase strictly, as a serialized table's do, cost one
    /// pass that leaves them as they are.
    pub fn normalize(&mut self) {
        if self.arity == 0 {
            self.len = self.len.min(1);
        } else if !self
            .data
            .chunks_exact(self.arity)
            .is_sorted_by(|a, b| a < b)
        {
            sort_dedup_rows(&mut self.data, self.arity);
            self.len = self.data.len() / self.arity;
        }
    }

    /// Arity (number of columns).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i`, if it exists.
    fn row(&self, i: usize) -> Option<&[Value]> {
        if i >= self.len {
            return None;
        }
        self.data.get(i * self.arity..(i + 1) * self.arity)
    }

    /// The rows in storage order (sorted if normalized).
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Value]> {
        (0..self.len).map(|i| self.row(i).unwrap_or(&[]))
    }

    /// All values, row-major: `arity()` per row, `len() * arity()` in all.
    pub fn flat(&self) -> &[Value] {
        &self.data
    }

    /// Membership test (requires normalized rows): a binary search over
    /// row indices.
    pub fn contains(&self, row: &[Value]) -> bool {
        let (mut lo, mut hi) = (0, self.len);
        // lb-lint: allow(unbudgeted-loop) -- binary search: halves `lo..hi` each step, so at most log2(len) + 1 steps
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.row(mid).unwrap_or(&[]).cmp(row) {
                Ordering::Less => lo = mid + 1,
                Ordering::Equal => return true,
                Ordering::Greater => hi = mid,
            }
        }
        false
    }
}

/// Sorts the `arity`-wide rows of a row-major buffer lexicographically and
/// removes duplicate rows, in place; a trailing partial row is dropped.
/// Binary rows (every relation the join workloads generate) sort as
/// `[Value; 2]` arrays; every other arity sorts an index of row starts.
pub(crate) fn sort_dedup_rows(data: &mut Vec<Value>, arity: usize) {
    match arity {
        0 => data.clear(),
        2 => {
            let (rows, _) = data.as_chunks_mut::<2>();
            rows.sort_unstable();
            let kept = (1..rows.len()).fold(usize::from(!rows.is_empty()), |kept, i| {
                if rows[i] == rows[kept - 1] {
                    kept
                } else {
                    rows[kept] = rows[i];
                    kept + 1
                }
            });
            data.truncate(kept * 2);
        }
        _ => {
            let row = |i: usize| &data[i * arity..(i + 1) * arity];
            let mut order: Vec<usize> = (0..data.len() / arity).collect();
            order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
            let mut out: Vec<Value> = Vec::with_capacity(order.len() * arity);
            order.iter().map(|&i| row(i)).for_each(|r| {
                if out.len() < arity || out[out.len() - arity..] != *r {
                    out.extend_from_slice(r);
                }
            });
            *data = out;
        }
    }
}

/// A database: a mapping from relation names to tables.
#[derive(Clone, Debug, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Inserts (or replaces) a table.
    pub fn insert(&mut self, name: &str, table: Table) {
        self.tables.insert(name.to_string(), table);
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// The largest relation size N (paper: every relation has ≤ N tuples).
    pub fn max_table_size(&self) -> usize {
        self.tables.values().map(|t| t.len()).max().unwrap_or(0)
    }

    /// Checks that every atom of `q` has a table of matching arity.
    #[must_use = "a dropped validation result defeats the check entirely"]
    pub fn validate_for(&self, q: &JoinQuery) -> Result<(), String> {
        // lb-lint: allow(unbudgeted-loop) -- validation pass, linear in query atoms; runs before search
        for atom in &q.atoms {
            let t = self
                .table(&atom.relation)
                .ok_or_else(|| format!("missing table {}", atom.relation))?;
            if t.arity() != atom.attrs.len() {
                return Err(format!(
                    "table {} has arity {}, atom expects {}",
                    atom.relation,
                    t.arity(),
                    atom.attrs.len()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Atom, JoinQuery};

    #[test]
    fn table_normalize_dedup() {
        let t = Table::from_rows(2, vec![vec![2, 1], vec![1, 2], vec![2, 1]]);
        assert_eq!(t.len(), 2);
        assert!(t.contains(&[1, 2]));
        assert!(!t.contains(&[3, 3]));
    }

    #[test]
    fn nullary_tables_hold_at_most_one_empty_row() {
        let mut t = Table::new(0);
        assert!(!t.contains(&[]));
        t.push(&[]);
        t.push(&[]);
        assert_eq!(t.len(), 2);
        t.normalize();
        assert_eq!(t.len(), 1);
        assert!(t.contains(&[]));
        assert_eq!(t.rows().collect::<Vec<_>>(), vec![&[] as &[Value]]);
        assert!(t.flat().is_empty());
    }

    #[test]
    fn push_with_keeps_only_whole_accepted_rows() {
        let mut t = Table::new(2);
        let fill = |row: &'static [Value], answer: Option<u8>| {
            move |flat: &mut Vec<Value>| {
                flat.extend_from_slice(row);
                answer
            }
        };
        assert_eq!(t.push_with(fill(&[3, 1], Some(4))), Some(4));
        // Too short, too long, and refused after pushing: each is undone.
        assert_eq!(t.push_with(fill(&[7], Some(4))), None);
        assert_eq!(t.push_with(fill(&[7, 8, 9], Some(4))), None);
        assert_eq!(t.push_with(fill(&[7, 8], None)), None);
        assert_eq!((t.len(), t.flat()), (1, &[3, 1][..]));
        assert_eq!(t.push_with(fill(&[1, 2], Some(5))), Some(5));
        t.normalize();
        assert_eq!(t, Table::from_rows(2, vec![vec![3, 1], vec![1, 2]]));
    }

    #[test]
    fn wide_rows_sort_through_an_index() {
        let t = Table::from_rows(
            5,
            vec![vec![2, 0, 0, 0, 1], vec![1; 5], vec![2, 0, 0, 0, 1]],
        );
        assert_eq!(t.flat(), &[1, 1, 1, 1, 1, 2, 0, 0, 0, 1]);
        assert_eq!(t.row(1), Some(&[2, 0, 0, 0, 1][..]));
        assert_eq!(t.row(2), None);
    }

    #[test]
    fn database_validation() {
        let q = JoinQuery::new(vec![Atom::new("R", &["a", "b"])]);
        let mut db = Database::new();
        assert!(db.validate_for(&q).is_err());
        db.insert("R", Table::new(3));
        assert!(db.validate_for(&q).is_err());
        db.insert("R", Table::new(2));
        assert!(db.validate_for(&q).is_ok());
        assert_eq!(db.max_table_size(), 0);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_rejected() {
        let mut t = Table::new(2);
        t.push(&[1]);
    }
}
