//! Shard-aware I-structure access: the structure table every engine
//! keeps.
//!
//! A machine with one global structure table serializes every `I-FETCH`
//! and `I-STORE` on that table. The TTDA instead spreads structures over
//! independent storage modules; [`IStructureShard`] is the software
//! analogue: each worker thread owns the shard of structures whose ids
//! hash to it, so operations on different shards proceed with no shared
//! state at all. (The sequential engine and the timed machine each keep
//! one shard holding every structure of a run.) A shard also maintains
//! its *outstanding deferred read* count incrementally, so a coordinator
//! can compute the machine-wide figure (for peak-deferred statistics and
//! deadlock detection) by summing per-shard counters instead of walking
//! every cell.
//!
//! Determinism note: operations on *distinct* structures commute, so a
//! coordinator that routes each operation to its owning shard and keeps
//! the per-shard operation streams in program order reproduces exactly
//! the cell states and released-reader orders of a fully sequential run.

use crate::istore::{IStructureError, ReadOutcome};
use crate::module::Addr;
use crate::IStructure;

/// The shard that owns structure `id` when the table is split `shards`
/// ways. Allocation ids are dense (0, 1, 2, …), so plain round-robin
/// already spreads consecutive allocations across shards.
pub fn shard_of(id: u32, shards: usize) -> usize {
    debug_assert!(shards > 0, "shard count must be positive");
    id as usize % shards
}

/// One worker's slice of the structure table: the structures whose ids
/// hash to this shard, plus an incrementally-maintained count of
/// deferred reads outstanding within the shard.
///
/// Methods that address a structure return `None` when the id does not
/// live in this shard (either never allocated, or a routing bug in the
/// caller); the inner `Result` carries the per-cell errors of
/// [`IStructure`] itself.
#[derive(Debug)]
pub struct IStructureShard<T, R = u64> {
    /// The shard's structures, indexed by id: `None` for an id that
    /// lives elsewhere or was never allocated. Engines allocate ids
    /// from a counter, so the table stays dense and a lookup is one
    /// index, not a hash.
    stores: Vec<Option<IStructure<T, R>>>,
    deferred_outstanding: usize,
}

// Manual impl: the derive would demand `T: Default, R: Default`, which
// an empty shard does not need.
impl<T, R> Default for IStructureShard<T, R> {
    fn default() -> Self {
        IStructureShard::new()
    }
}

impl<T, R> IStructureShard<T, R> {
    /// An empty shard.
    pub fn new() -> Self {
        IStructureShard {
            stores: Vec::new(),
            deferred_outstanding: 0,
        }
    }

    /// Adds a freshly allocated structure of `size` cells under `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already present: allocation ids are unique per
    /// run, so a collision is a coordinator bug, not a program error.
    pub fn create(&mut self, id: u32, size: usize) {
        let i = id as usize;
        if i >= self.stores.len() {
            self.stores.resize_with(i + 1, || None);
        }
        let slot = &mut self.stores[i];
        assert!(slot.is_none(), "duplicate i-structure allocation id {id}");
        *slot = Some(IStructure::new(size));
    }

    /// Shared access to a structure, if this shard owns it.
    pub fn store(&self, id: u32) -> Option<&IStructure<T, R>> {
        self.stores.get(id as usize)?.as_ref()
    }

    fn get_mut(&mut self, id: u32) -> Option<&mut IStructure<T, R>> {
        self.stores.get_mut(id as usize)?.as_mut()
    }

    /// Deferred reads currently parked across the whole shard. This is
    /// maintained incrementally by [`read`](Self::read) /
    /// [`write_with`](Self::write_with), so it is O(1).
    pub fn deferred_outstanding(&self) -> usize {
        self.deferred_outstanding
    }
}

impl<T: Clone, R> IStructureShard<T, R> {
    /// Reads `addr` of structure `id` on behalf of `reader`, updating
    /// the shard's outstanding-deferred count when the read parks.
    pub fn read(
        &mut self,
        id: u32,
        addr: Addr,
        reader: R,
    ) -> Option<Result<ReadOutcome<T>, IStructureError>> {
        let r = self.get_mut(id)?.read(addr, reader);
        if matches!(r, Ok(ReadOutcome::Deferred)) {
            self.deferred_outstanding += 1;
        }
        Some(r)
    }

    /// Writes `value` to `addr` of structure `id`. Released deferred
    /// readers go straight to `release`, in arrival order (no `Vec` is
    /// allocated), and the outstanding-deferred count drops by as many.
    /// Returns the release count on success.
    pub fn write_with(
        &mut self,
        id: u32,
        addr: Addr,
        value: T,
        release: impl FnMut(R),
    ) -> Option<Result<usize, IStructureError>> {
        let r = self.get_mut(id)?.write_with(addr, value, release);
        if let Ok(released) = &r {
            self.deferred_outstanding -= released;
        }
        Some(r)
    }

    /// Visits every deferred reader parked anywhere in the shard, in
    /// structure id order, then cell order, then arrival order.
    pub fn for_each_deferred(&self, mut f: impl FnMut(&R)) {
        for st in self.stores.iter().flatten() {
            st.for_each_deferred(&mut f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_ownership() {
        assert_eq!(shard_of(0, 4), 0);
        assert_eq!(shard_of(5, 4), 1);
        assert_eq!(shard_of(7, 1), 0);
    }

    #[test]
    fn tracks_outstanding_deferred_incrementally() {
        let mut sh: IStructureShard<i64, &str> = IStructureShard::new();
        sh.create(2, 4);
        assert_eq!(sh.deferred_outstanding(), 0);
        assert_eq!(
            sh.read(2, Addr(0), "a").unwrap().unwrap(),
            ReadOutcome::Deferred
        );
        assert_eq!(
            sh.read(2, Addr(0), "b").unwrap().unwrap(),
            ReadOutcome::Deferred
        );
        assert_eq!(sh.deferred_outstanding(), 2);
        let mut released = Vec::new();
        let n = sh.write_with(2, Addr(0), 9, |r| released.push(r));
        assert_eq!(n.unwrap().unwrap(), 2);
        assert_eq!(released, vec!["a", "b"]);
        assert_eq!(sh.deferred_outstanding(), 0);
        assert_eq!(
            sh.read(2, Addr(0), "c").unwrap().unwrap(),
            ReadOutcome::Value(9)
        );
        assert_eq!(sh.deferred_outstanding(), 0);
    }

    #[test]
    fn unknown_id_is_none_cell_error_is_inner() {
        let mut sh: IStructureShard<i64, u64> = IStructureShard::new();
        sh.create(0, 1);
        assert!(sh.read(3, Addr(0), 1).is_none());
        assert!(sh.write_with(0, Addr(7), 1, |_| {}).unwrap().is_err());
        // A failed access must not disturb the deferred count.
        assert_eq!(sh.deferred_outstanding(), 0);
    }

    #[test]
    fn visits_every_parked_reader_of_every_structure() {
        let mut sh: IStructureShard<i64, &str> = IStructureShard::new();
        sh.create(0, 4);
        sh.create(5, 2);
        for (id, cell, reader) in [(0, 3, "a"), (5, 1, "b"), (0, 1, "c"), (0, 3, "d")] {
            assert_eq!(
                sh.read(id, Addr(cell), reader).unwrap().unwrap(),
                ReadOutcome::Deferred
            );
        }
        // A present cell holds no reader.
        sh.write_with(5, Addr(0), 1, |_| {}).unwrap().unwrap();
        let mut seen = Vec::new();
        sh.for_each_deferred(|r| seen.push(*r));
        assert_eq!(seen, ["c", "a", "d", "b"]);
        // Released readers are gone from the scan.
        sh.write_with(0, Addr(3), 7, |_| {}).unwrap().unwrap();
        let mut seen = Vec::new();
        sh.for_each_deferred(|r| seen.push(*r));
        assert_eq!(seen, ["c", "b"]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_id_panics() {
        let mut sh: IStructureShard<i64, u64> = IStructureShard::new();
        sh.create(1, 1);
        sh.create(1, 2);
    }
}
