//! Delta batches: sparse in-place updates to a [`CsMatrix`].
//!
//! A [`DeltaBatch`] is an immutable, normalized set of point mutations —
//! upserts (insert or overwrite) and deletes — applied to a compressed
//! matrix by [`CsMatrix::apply_delta`]. Only the fibers a batch touches
//! are rewritten; clean fibers are copied through untouched. This is the
//! substrate of the incremental-sparsity layer: after a patch, an
//! incremental SpMSpM run re-executes only the tasks whose operand rows
//! changed (`drt-accel`'s `incremental` module).
//!
//! The design borrows differential dataflow's batch discipline: mutations
//! accumulate into a batch (last write per coordinate wins), and the batch
//! is applied atomically. A delete of an absent coordinate and an upsert
//! that rewrites an equal value are both no-ops in effect, but they still
//! mark the fiber dirty — consumers that key caches on content should use
//! content fingerprints, not dirty sets, for exactness.
//!
//! ```rust
//! use drt_tensor::{CsMatrix, DeltaBatch, MajorAxis};
//!
//! let mut m = CsMatrix::from_entries(4, 4, vec![(0, 1, 2.0), (2, 3, 4.0)], MajorAxis::Row);
//! let mut d = DeltaBatch::new();
//! d.upsert(0, 2, 9.0); // insert
//! d.upsert(2, 3, 5.0); // overwrite
//! d.delete(0, 1);
//! let dirty = m.apply_delta(&d);
//! assert_eq!(dirty, vec![0, 2]);
//! assert_eq!(m.get(0, 2), 9.0);
//! assert_eq!(m.get(2, 3), 5.0);
//! assert_eq!(m.nnz(), 2); // (0,1) deleted, (0,2) inserted
//! ```

use crate::csmat::MajorAxis;
use crate::{Coord, CsMatrix, Value};

/// One point mutation: `Some(v)` upserts the value at a coordinate,
/// `None` deletes whatever is stored there (absent coordinates delete to
/// a no-op).
pub type DeltaOp = Option<Value>;

/// A normalized batch of point mutations against one matrix.
///
/// Mutations are recorded in call order; [`CsMatrix::apply_delta`]-time
/// normalization sorts by `(row, col)` and keeps the *last* recorded
/// mutation per coordinate, so a batch behaves like a map written
/// left-to-right.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaBatch {
    /// `(row, col, op)` in recording order.
    ops: Vec<(Coord, Coord, DeltaOp)>,
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> DeltaBatch {
        DeltaBatch::default()
    }

    /// Record an insert-or-overwrite of `(row, col)` to `value`.
    pub fn upsert(&mut self, row: Coord, col: Coord, value: Value) -> &mut Self {
        self.ops.push((row, col, Some(value)));
        self
    }

    /// Record a delete of `(row, col)` (a no-op if absent at apply time).
    pub fn delete(&mut self, row: Coord, col: Coord) -> &mut Self {
        self.ops.push((row, col, None));
        self
    }

    /// Number of recorded mutations (before last-write-wins dedup).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch records no mutations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The recorded mutations, in recording order.
    pub fn ops(&self) -> &[(Coord, Coord, DeltaOp)] {
        &self.ops
    }

    /// The batch turning `old` into `new`: upserts for coordinates whose
    /// value differs (bitwise) or is absent in `old`, deletes for
    /// coordinates present only in `old`. Applying the result to `old`
    /// reproduces `new` exactly. Both matrices must share shape and major
    /// axis.
    ///
    /// # Panics
    ///
    /// Panics when the shapes or major axes differ.
    pub fn diff(old: &CsMatrix, new: &CsMatrix) -> DeltaBatch {
        assert_eq!(
            (old.nrows(), old.ncols(), old.major()),
            (new.nrows(), new.ncols(), new.major()),
            "diff requires identical shape and major axis"
        );
        let mut batch = DeltaBatch::new();
        let to_rc = |mj: Coord, mn: Coord| match old.major() {
            MajorAxis::Row => (mj, mn),
            MajorAxis::Col => (mn, mj),
        };
        for mj in 0..old.major_dim() {
            let of = old.fiber(mj);
            let nf = new.fiber(mj);
            let (mut i, mut j) = (0usize, 0usize);
            while i < of.len() || j < nf.len() {
                let (r, c, op) = if j >= nf.len() || (i < of.len() && of.coords[i] < nf.coords[j]) {
                    let (r, c) = to_rc(mj, of.coords[i]);
                    i += 1;
                    (r, c, None)
                } else if i >= of.len() || nf.coords[j] < of.coords[i] {
                    let (r, c) = to_rc(mj, nf.coords[j]);
                    let v = nf.values[j];
                    j += 1;
                    (r, c, Some(v))
                } else {
                    let keep = of.values[i].to_bits() == nf.values[j].to_bits();
                    let (r, c) = to_rc(mj, nf.coords[j]);
                    let v = nf.values[j];
                    i += 1;
                    j += 1;
                    if keep {
                        continue;
                    }
                    (r, c, Some(v))
                };
                match op {
                    Some(v) => batch.upsert(r, c, v),
                    None => batch.delete(r, c),
                };
            }
        }
        batch
    }

    /// Normalized mutations for a matrix compressed along `major`:
    /// `(major, minor, op)` sorted by `(major, minor)`, last write per
    /// coordinate winning. Out-of-order and duplicate recordings are
    /// resolved here, once, for every consumer.
    pub fn normalized(&self, major: MajorAxis) -> Vec<(Coord, Coord, DeltaOp)> {
        let mut v: Vec<(usize, (Coord, Coord, DeltaOp))> = self
            .ops
            .iter()
            .map(|&(r, c, op)| match major {
                MajorAxis::Row => (r, c, op),
                MajorAxis::Col => (c, r, op),
            })
            .enumerate()
            .collect();
        // Stable order: coordinate first, recording order as tiebreak;
        // dedup then keeps the last recording per coordinate.
        v.sort_by_key(|&(seq, (mj, mn, _))| (mj, mn, seq));
        let mut out: Vec<(Coord, Coord, DeltaOp)> = Vec::with_capacity(v.len());
        for (_, (mj, mn, op)) in v {
            match out.last_mut() {
                Some(last) if last.0 == mj && last.1 == mn => last.2 = op,
                _ => out.push((mj, mn, op)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsMatrix {
        CsMatrix::from_entries(
            6,
            5,
            vec![(0, 1, 1.0), (0, 3, 2.0), (2, 0, 3.0), (2, 4, 4.0), (5, 2, 5.0)],
            MajorAxis::Row,
        )
    }

    #[test]
    fn last_write_wins_per_coordinate() {
        let mut d = DeltaBatch::new();
        d.upsert(1, 1, 1.0).delete(1, 1).upsert(1, 1, 7.0);
        let norm = d.normalized(MajorAxis::Row);
        assert_eq!(norm, vec![(1, 1, Some(7.0))]);
    }

    #[test]
    fn normalized_orders_by_major_axis() {
        let mut d = DeltaBatch::new();
        d.upsert(3, 0, 1.0).upsert(0, 3, 2.0);
        assert_eq!(d.normalized(MajorAxis::Row), vec![(0, 3, Some(2.0)), (3, 0, Some(1.0))]);
        // Column-major: ops keyed (col, row).
        assert_eq!(d.normalized(MajorAxis::Col), vec![(0, 3, Some(1.0)), (3, 0, Some(2.0))]);
    }

    #[test]
    fn diff_roundtrips() {
        let old = sample();
        let new = CsMatrix::from_entries(
            6,
            5,
            vec![(0, 1, 1.0), (2, 0, -3.0), (2, 4, 4.0), (4, 4, 9.0)],
            MajorAxis::Row,
        );
        let d = DeltaBatch::diff(&old, &new);
        let mut patched = old.clone();
        patched.apply_delta(&d);
        assert_eq!(patched, new);
        // Only genuinely changed coordinates are recorded.
        let norm = d.normalized(MajorAxis::Row);
        assert_eq!(norm, vec![(0, 3, None), (2, 0, Some(-3.0)), (4, 4, Some(9.0)), (5, 2, None)]);
    }
}
