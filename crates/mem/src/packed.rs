//! Packed I-structure storage: presence bits as 2-bit bitmap words,
//! values in a flat arena, deferred readers in an intrusive list arena.
//!
//! The enum-cell [`EnumIStructure`](crate::EnumIStructure) models Fig 2-1
//! directly — one Rust enum per cell, one heap `Vec<R>` per deferred
//! list. That is the clearest possible statement of the paper's
//! semantics, but it pays an allocation on every first deferral and a
//! deallocation on every releasing write, and `reclaim` must walk every
//! cell even when the structure is almost empty. PR 3 showed that the
//! same treatment applied to the waiting–matching store (pack the hot
//! state into flat words, recycle slots through a free list) buys about
//! 2× token throughput; this module applies it to the second store on
//! every token's route.
//!
//! Layout — three flat arrays plus one node arena:
//!
//! - `state`: 2 bits per cell, 32 cells per `u64` word. Codes:
//!   `00` Empty, `01` Present, `10` Deferred, `11` Error (a detected
//!   write-write race; the cell *keeps its first value*, so for every
//!   read-path purpose Error behaves exactly like Present). Because the
//!   low bit of the code means "has a value" and the high bit means
//!   "something is parked/flagged", whole words classify with two shifts
//!   and a mask — [`reclaim`](PackedIStructure::reclaim) and the
//!   bitmap-audit helpers ([`deferred_cells`](PackedIStructure::deferred_cells),
//!   [`error_cells`](PackedIStructure::error_cells)) skip 32 empty cells
//!   per loop iteration.
//! - `values`: a flat arena indexed by cell id; slot `i` is meaningful
//!   only while `state` says cell `i` holds a value.
//! - `lists` + `nodes`: per-cell deferred-list heads/tails pointing into
//!   a single intrusive linked-list arena shared by all cells. Freed
//!   nodes are recycled through a free list, so steady-state
//!   read/defer/release does **zero allocation** — the arena only grows
//!   when the peak number of simultaneously parked readers grows.
//!
//! Release order is FIFO per cell (arrival order), identical to the
//! enum-cell store. That order is part of the determinism contract: the
//! parallel backend replays released readers in exactly this order when
//! merging shard outputs, so a reordering here would change `EmuResult`
//! between engines. The property suite in `tests/properties.rs` drives
//! both stores through random operation sequences and asserts outcome-
//! and order-equality.

use crate::istore::{IStructureError, Presence, ReadOutcome};
use crate::module::Addr;

/// Cells per `state` word (2 bits each).
const CELLS_PER_WORD: usize = 32;

/// Mask with the low bit of every 2-bit lane set.
const LANE_LO: u64 = 0x5555_5555_5555_5555;

/// Presence codes, one per 2-bit lane.
const EMPTY: u64 = 0b00;
const PRESENT: u64 = 0b01;
const DEFERRED: u64 = 0b10;
const ERROR: u64 = 0b11;

/// Null index in the node arena.
const NIL: u32 = u32::MAX;

/// One parked reader in the shared deferred-list arena. `reader` is
/// `None` only while the node sits on the free list.
#[derive(Debug, Clone)]
struct Node<R> {
    reader: Option<R>,
    next: u32,
}

/// A cell's deferred list: head/tail into the node arena plus the list
/// length (kept here so `deferred_count` stays O(1) like the enum
/// store's `Vec::len`).
#[derive(Debug, Clone, Copy)]
struct DeferList {
    head: u32,
    tail: u32,
    depth: u32,
}

impl DeferList {
    const EMPTY: DeferList = DeferList {
        head: NIL,
        tail: NIL,
        depth: 0,
    };
}

/// The packed I-structure store. Drop-in replacement for the enum-cell
/// [`EnumIStructure`](crate::EnumIStructure): same operations, same
/// outcomes, same FIFO release order — different constant factors.
///
/// `ttda_mem` re-exports this type as `IStructure`, so the three engines
/// (sequential emulator, parallel shards, timed machine) all run on it
/// without naming it specially.
///
/// # Example
///
/// ```
/// use ttda_mem::{Addr, IStructure, IStructureError, ReadOutcome};
///
/// let mut m: IStructure<f64, u32> = IStructure::new(4);
/// assert_eq!(m.read(Addr(0), 11).unwrap(), ReadOutcome::Deferred);
/// assert_eq!(m.read(Addr(0), 22).unwrap(), ReadOutcome::Deferred);
/// assert_eq!(m.write(Addr(0), 2.5).unwrap(), vec![11, 22]);
/// // Write-write race is caught (and flagged sticky, keeping the value):
/// assert_eq!(
///     m.write(Addr(0), 9.0).unwrap_err(),
///     IStructureError::AlreadyWritten { addr: Addr(0) }
/// );
/// assert_eq!(m.error_cells(), 1);
/// assert_eq!(m.peek(Addr(0)), Some(&2.5));
/// ```
#[derive(Debug, Clone)]
pub struct PackedIStructure<T, R = u64> {
    /// 2-bit presence codes, `CELLS_PER_WORD` cells per word.
    state: Vec<u64>,
    /// Number of cells.
    len: usize,
    /// Flat value arena indexed by cell id.
    values: Vec<Option<T>>,
    /// Per-cell deferred-list descriptors (meaningful while Deferred).
    lists: Vec<DeferList>,
    /// The shared intrusive reader arena.
    nodes: Vec<Node<R>>,
    /// Head of the recycled-node free list (threaded through `next`).
    free_head: u32,
    /// Running total of parked readers, maintained incrementally.
    deferred: usize,
}

impl<T, R> PackedIStructure<T, R> {
    /// Allocates a structure of `size` empty cells.
    pub fn new(size: usize) -> Self {
        PackedIStructure {
            state: vec![0; size.div_ceil(CELLS_PER_WORD)],
            len: size,
            values: (0..size).map(|_| None).collect(),
            lists: vec![DeferList::EMPTY; size],
            nodes: Vec::new(),
            free_head: NIL,
            deferred: 0,
        }
    }

    /// Number of cells.
    pub fn size(&self) -> usize {
        self.len
    }

    /// Total readers currently parked across every cell's deferred list.
    ///
    /// O(1): maintained incrementally by [`read`](Self::read),
    /// [`write`](Self::write) and [`reclaim`](Self::reclaim). The
    /// word-at-a-time bitmap audit ([`deferred_cells`](Self::deferred_cells))
    /// cross-checks it in the test suite.
    pub fn deferred_outstanding(&self) -> usize {
        self.deferred
    }

    fn check(&self, addr: Addr) -> Result<(), IStructureError> {
        if addr.0 < self.len {
            Ok(())
        } else {
            Err(IStructureError::OutOfRange {
                addr,
                size: self.len,
            })
        }
    }

    #[inline]
    fn code(&self, cell: usize) -> u64 {
        (self.state[cell / CELLS_PER_WORD] >> ((cell % CELLS_PER_WORD) * 2)) & 0b11
    }

    #[inline]
    fn set_code(&mut self, cell: usize, code: u64) {
        let word = &mut self.state[cell / CELLS_PER_WORD];
        let shift = (cell % CELLS_PER_WORD) * 2;
        *word = (*word & !(0b11 << shift)) | (code << shift);
    }

    /// The presence bits of a cell. An Error cell reports `Present`: the
    /// race left its first value intact, and presence bits describe what
    /// a reader will observe, not the race history (see
    /// [`errored`](Self::errored) for that).
    ///
    /// # Errors
    ///
    /// Returns [`IStructureError::OutOfRange`] for a bad address.
    pub fn presence(&self, addr: Addr) -> Result<Presence, IStructureError> {
        self.check(addr)?;
        Ok(match self.code(addr.0) {
            EMPTY => Presence::Empty,
            DEFERRED => Presence::Deferred,
            _ => Presence::Present,
        })
    }

    /// Whether a write-write race was detected on this cell.
    ///
    /// # Errors
    ///
    /// Returns [`IStructureError::OutOfRange`] for a bad address.
    pub fn errored(&self, addr: Addr) -> Result<bool, IStructureError> {
        self.check(addr)?;
        Ok(self.code(addr.0) == ERROR)
    }

    /// Number of readers currently parked on `addr`'s deferred list.
    ///
    /// # Errors
    ///
    /// Returns [`IStructureError::OutOfRange`] for a bad address.
    pub fn deferred_count(&self, addr: Addr) -> Result<usize, IStructureError> {
        self.check(addr)?;
        if self.code(addr.0) == DEFERRED {
            Ok(self.lists[addr.0].depth as usize)
        } else {
            Ok(0)
        }
    }

    /// Number of cells in the Deferred state, counted word-at-a-time
    /// from the presence bitmap (32 cells per iteration; a lane is
    /// Deferred iff its high bit is set and its low bit clear).
    pub fn deferred_cells(&self) -> usize {
        self.state
            .iter()
            .map(|w| ((w >> 1) & !w & LANE_LO).count_ones() as usize)
            .sum()
    }

    /// Number of cells whose write-write race flag is set, counted
    /// word-at-a-time (a lane is Error iff both its bits are set).
    pub fn error_cells(&self) -> usize {
        self.state
            .iter()
            .map(|w| (w & (w >> 1) & LANE_LO).count_ones() as usize)
            .sum()
    }

    /// Takes a node off the free list, or grows the arena.
    fn alloc_node(&mut self, reader: R) -> u32 {
        if self.free_head == NIL {
            let idx = u32::try_from(self.nodes.len()).expect("deferred-reader arena overflow");
            assert!(idx != NIL, "deferred-reader arena overflow");
            self.nodes.push(Node {
                reader: Some(reader),
                next: NIL,
            });
            idx
        } else {
            let idx = self.free_head;
            let node = &mut self.nodes[idx as usize];
            self.free_head = node.next;
            node.reader = Some(reader);
            node.next = NIL;
            idx
        }
    }
}

impl<T: Clone, R> PackedIStructure<T, R> {
    /// Processes a read request from `reader`.
    ///
    /// # Errors
    ///
    /// Returns [`IStructureError::OutOfRange`] for a bad address.
    pub fn read(&mut self, addr: Addr, reader: R) -> Result<ReadOutcome<T>, IStructureError> {
        self.check(addr)?;
        let cell = addr.0;
        // Fast path: a cell holds a value exactly in the Present and
        // Error states (an errored cell keeps its first value), so an
        // immediate read is a single arena probe — the bitmap is only
        // consulted to tell Empty from Deferred when it must park.
        if let Some(v) = &self.values[cell] {
            return Ok(ReadOutcome::Value(v.clone()));
        }
        match self.code(cell) {
            EMPTY => {
                let n = self.alloc_node(reader);
                self.lists[cell] = DeferList {
                    head: n,
                    tail: n,
                    depth: 1,
                };
                self.set_code(cell, DEFERRED);
                self.deferred += 1;
                Ok(ReadOutcome::Deferred)
            }
            DEFERRED => {
                let n = self.alloc_node(reader);
                let tail = self.lists[cell].tail;
                self.nodes[tail as usize].next = n;
                let list = &mut self.lists[cell];
                list.tail = n;
                list.depth += 1;
                self.deferred += 1;
                Ok(ReadOutcome::Deferred)
            }
            // Present or Error: the value is there either way.
            _ => Ok(ReadOutcome::Value(
                self.values[cell]
                    .clone()
                    .expect("present cell holds a value"),
            )),
        }
    }

    /// Processes a write, invoking `release` once per deferred reader in
    /// arrival (FIFO) order and returning how many were released.
    ///
    /// This is the zero-allocation path the engines use: released
    /// readers stream straight into the caller's output queue, and the
    /// freed list nodes go back on the free list for the next deferral.
    ///
    /// # Errors
    ///
    /// Returns [`IStructureError::AlreadyWritten`] on a write-write race
    /// (the cell keeps its first value and its race flag is set sticky)
    /// or [`IStructureError::OutOfRange`] for a bad address.
    pub fn write_with(
        &mut self,
        addr: Addr,
        value: T,
        mut release: impl FnMut(R),
    ) -> Result<usize, IStructureError> {
        self.check(addr)?;
        let cell = addr.0;
        match self.code(cell) {
            EMPTY => {
                self.values[cell] = Some(value);
                self.set_code(cell, PRESENT);
                Ok(0)
            }
            DEFERRED => {
                let list = self.lists[cell];
                self.lists[cell] = DeferList::EMPTY;
                let mut cur = list.head;
                while cur != NIL {
                    let node = &mut self.nodes[cur as usize];
                    let reader = node.reader.take().expect("live node holds a reader");
                    let next = node.next;
                    node.next = self.free_head;
                    self.free_head = cur;
                    cur = next;
                    release(reader);
                }
                self.deferred -= list.depth as usize;
                self.values[cell] = Some(value);
                self.set_code(cell, PRESENT);
                Ok(list.depth as usize)
            }
            _ => {
                // Write-write race: keep the first value, flag the cell.
                self.set_code(cell, ERROR);
                Err(IStructureError::AlreadyWritten { addr })
            }
        }
    }

    /// Processes a write, returning the deferred readers to be released
    /// (in arrival order). Allocates the returned `Vec`; hot paths use
    /// [`write_with`](Self::write_with) instead.
    ///
    /// # Errors
    ///
    /// See [`write_with`](Self::write_with).
    pub fn write(&mut self, addr: Addr, value: T) -> Result<Vec<R>, IStructureError> {
        let mut out = Vec::new();
        self.write_with(addr, value, |r| out.push(r))?;
        Ok(out)
    }

    /// Visits every deferred reader currently parked in the structure,
    /// in cell order then arrival order (matching the enum store).
    pub fn for_each_deferred(&self, mut f: impl FnMut(&R)) {
        for (wi, word) in self.state.iter().enumerate() {
            let mut lanes = (word >> 1) & !word & LANE_LO;
            while lanes != 0 {
                let cell = wi * CELLS_PER_WORD + lanes.trailing_zeros() as usize / 2;
                let mut cur = self.lists[cell].head;
                while cur != NIL {
                    let node = &self.nodes[cur as usize];
                    f(node.reader.as_ref().expect("live node holds a reader"));
                    cur = node.next;
                }
                lanes &= lanes - 1;
            }
        }
    }

    /// Reads without deferring (peek) — used by tests and debuggers, not
    /// by the machine.
    pub fn peek(&self, addr: Addr) -> Option<&T> {
        if addr.0 < self.len && self.code(addr.0) & PRESENT != 0 {
            self.values[addr.0].as_ref()
        } else {
            None
        }
    }

    /// Resets every cell to `Empty`, dropping any deferred readers and
    /// returning how many were dropped (the caller asserts on it — parked
    /// readers at reclaim time are a *program* error).
    ///
    /// This is the word-at-a-time sweep: a state word of zero is 32
    /// already-empty cells skipped in one compare, and only occupied
    /// cells have their value slot or deferred list touched, so
    /// reclaiming a sparsely-written structure costs proportional to its
    /// occupancy, not its size.
    pub fn reclaim(&mut self) -> usize {
        let mut dropped = 0;
        for wi in 0..self.state.len() {
            let word = self.state[wi];
            if word == 0 {
                continue;
            }
            let mut lanes = (word | (word >> 1)) & LANE_LO;
            while lanes != 0 {
                let off = lanes.trailing_zeros() as usize / 2;
                lanes &= lanes - 1;
                let cell = wi * CELLS_PER_WORD + off;
                if (word >> (off * 2)) & 0b11 == DEFERRED {
                    let list = self.lists[cell];
                    self.lists[cell] = DeferList::EMPTY;
                    let mut cur = list.head;
                    while cur != NIL {
                        let node = &mut self.nodes[cur as usize];
                        node.reader = None;
                        let next = node.next;
                        node.next = self.free_head;
                        self.free_head = cur;
                        cur = next;
                    }
                    dropped += list.depth as usize;
                } else {
                    // Present or Error: drop the value.
                    self.values[cell] = None;
                }
            }
            self.state[wi] = 0;
        }
        debug_assert_eq!(dropped, self.deferred, "bitmap/counter drift");
        self.deferred = 0;
        dropped
    }

    /// Number of nodes currently sitting on the free list (test/debug
    /// aid for the recycling invariant).
    #[doc(hidden)]
    pub fn free_nodes(&self) -> usize {
        let mut n = 0;
        let mut cur = self.free_head;
        while cur != NIL {
            n += 1;
            cur = self.nodes[cur as usize].next;
        }
        n
    }

    /// Capacity of the node arena (test/debug aid: steady state must not
    /// grow it).
    #[doc(hidden)]
    pub fn node_arena_len(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_after_write_is_immediate() {
        let mut m: PackedIStructure<i64> = PackedIStructure::new(2);
        m.write(Addr(0), 7).unwrap();
        assert_eq!(m.read(Addr(0), 1).unwrap(), ReadOutcome::Value(7));
        assert_eq!(m.presence(Addr(0)).unwrap(), Presence::Present);
        assert_eq!(m.peek(Addr(0)), Some(&7));
        assert_eq!(m.peek(Addr(1)), None);
    }

    #[test]
    fn deferred_readers_released_fifo() {
        let mut m: PackedIStructure<i64, &str> = PackedIStructure::new(1);
        for r in ["a", "b", "c"] {
            assert_eq!(m.read(Addr(0), r).unwrap(), ReadOutcome::Deferred);
        }
        assert_eq!(m.presence(Addr(0)).unwrap(), Presence::Deferred);
        assert_eq!(m.deferred_count(Addr(0)).unwrap(), 3);
        assert_eq!(m.deferred_cells(), 1);
        assert_eq!(m.write(Addr(0), 1).unwrap(), vec!["a", "b", "c"]);
        assert_eq!(m.deferred_count(Addr(0)).unwrap(), 0);
        assert_eq!(m.deferred_cells(), 0);
    }

    #[test]
    fn free_list_recycles_nodes_zero_growth() {
        let mut m: PackedIStructure<i64> = PackedIStructure::new(8);
        // Prime the arena: 4 readers parked at once.
        for r in 0..4 {
            m.read(Addr(r as usize % 2), r).unwrap();
        }
        m.write(Addr(0), 1).unwrap();
        m.write(Addr(1), 2).unwrap();
        let arena = m.node_arena_len();
        assert_eq!(arena, 4);
        assert_eq!(m.free_nodes(), 4);
        // Steady state below the peak: the arena must not grow.
        for round in 0..10 {
            m.reclaim();
            for r in 0..4 {
                m.read(Addr(r as usize), 100 + r + round).unwrap();
            }
            for a in 0..4 {
                m.write(Addr(a), a as i64).unwrap();
            }
            assert_eq!(m.node_arena_len(), arena);
            assert_eq!(m.free_nodes(), arena);
        }
    }

    #[test]
    fn write_write_race_flags_error_and_keeps_value() {
        let mut m: PackedIStructure<i64> = PackedIStructure::new(1);
        m.read(Addr(0), 9).unwrap();
        m.write(Addr(0), 1).unwrap();
        let err = m.write(Addr(0), 2).unwrap_err();
        assert_eq!(err, IStructureError::AlreadyWritten { addr: Addr(0) });
        // First value undamaged; presence still reads Present, but the
        // sticky race flag is observable.
        assert_eq!(m.peek(Addr(0)), Some(&1));
        assert_eq!(m.presence(Addr(0)).unwrap(), Presence::Present);
        assert!(m.errored(Addr(0)).unwrap());
        assert_eq!(m.error_cells(), 1);
        // Reads of an errored cell still see the first value; a third
        // write still races.
        assert_eq!(m.read(Addr(0), 5).unwrap(), ReadOutcome::Value(1));
        assert!(m.write(Addr(0), 3).is_err());
        assert_eq!(m.error_cells(), 1);
        // Reclaim clears the flag.
        m.reclaim();
        assert_eq!(m.error_cells(), 0);
        assert_eq!(m.presence(Addr(0)).unwrap(), Presence::Empty);
    }

    #[test]
    fn out_of_range_errors() {
        let mut m: PackedIStructure<i64> = PackedIStructure::new(1);
        assert!(matches!(
            m.read(Addr(5), 0),
            Err(IStructureError::OutOfRange { .. })
        ));
        assert!(m.write(Addr(5), 0).is_err());
        assert!(m.presence(Addr(5)).is_err());
        assert!(m.errored(Addr(5)).is_err());
        assert!(m.deferred_count(Addr(5)).is_err());
        assert_eq!(m.peek(Addr(5)), None);
    }

    #[test]
    fn zero_sized_structure_rejects_everything() {
        let mut m: PackedIStructure<i64> = PackedIStructure::new(0);
        assert_eq!(m.size(), 0);
        assert!(m.read(Addr(0), 0).is_err());
        assert!(m.write(Addr(0), 0).is_err());
        assert_eq!(m.reclaim(), 0);
    }

    #[test]
    fn deferred_outstanding_tracks_incrementally() {
        let mut m: PackedIStructure<i64> = PackedIStructure::new(3);
        assert_eq!(m.deferred_outstanding(), 0);
        m.read(Addr(0), 1).unwrap();
        m.read(Addr(0), 2).unwrap();
        m.read(Addr(1), 3).unwrap();
        assert_eq!(m.deferred_outstanding(), 3);
        assert_eq!(m.deferred_cells(), 2);
        m.write(Addr(0), 5).unwrap();
        assert_eq!(m.deferred_outstanding(), 1);
        m.write(Addr(2), 6).unwrap();
        assert_eq!(m.deferred_outstanding(), 1);
        assert_eq!(m.reclaim(), 1);
        assert_eq!(m.deferred_outstanding(), 0);
    }

    #[test]
    fn reclaim_sweeps_word_boundaries() {
        // Cells straddling several 32-cell state words, sparsely used.
        let mut m: PackedIStructure<i64> = PackedIStructure::new(200);
        for c in [0usize, 31, 32, 63, 64, 199] {
            m.write(Addr(c), c as i64).unwrap();
        }
        m.read(Addr(95), 7).unwrap();
        assert_eq!(m.reclaim(), 1);
        for c in [0usize, 31, 32, 63, 64, 95, 199] {
            assert_eq!(m.presence(Addr(c)).unwrap(), Presence::Empty);
            assert_eq!(m.peek(Addr(c)), None);
        }
        // Everything is reusable after the sweep.
        m.write(Addr(95), 1).unwrap();
        assert_eq!(m.read(Addr(95), 8).unwrap(), ReadOutcome::Value(1));
    }

    #[test]
    fn for_each_deferred_visits_in_cell_then_arrival_order() {
        let mut m: PackedIStructure<i64, u32> = PackedIStructure::new(70);
        m.read(Addr(64), 30).unwrap();
        m.read(Addr(2), 10).unwrap();
        m.read(Addr(2), 11).unwrap();
        m.read(Addr(64), 31).unwrap();
        let mut seen = Vec::new();
        m.for_each_deferred(|r| seen.push(*r));
        assert_eq!(seen, vec![10, 11, 30, 31]);
    }

    #[test]
    fn write_with_streams_releases_without_vec() {
        let mut m: PackedIStructure<i64, u32> = PackedIStructure::new(1);
        for r in 0..5 {
            m.read(Addr(0), r).unwrap();
        }
        let mut out = Vec::new();
        let n = m.write_with(Addr(0), 42, |r| out.push(r)).unwrap();
        assert_eq!(n, 5);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }
}

#[cfg(test)]
mod hot_key_tests {
    use super::*;
    use ttda_sim::{SimRng, Zipf};

    /// Hot-key contention drill for the deferred arena: a Zipf-hot cell
    /// cycles through park → release-all → re-park many times, with cold
    /// cells parking in between, so the free list keeps recycling nodes
    /// into the hot cell's list. The FIFO contract must hold every
    /// round: releases stream in arrival order, and the recycled arena
    /// never grows past the peak concurrent parking demand.
    #[test]
    fn hot_cell_fifo_survives_arena_recycling() {
        let size = 32;
        let mut m: PackedIStructure<i64, u64> = PackedIStructure::new(size);
        let zipf = Zipf::new(size, 1.5);
        let mut rng = SimRng::seed(0x5eed);
        let mut next_reader: u64 = 0;
        let mut parked: Vec<Vec<u64>> = vec![Vec::new(); size];
        let mut peak_parked = 0usize;
        for round in 0..40 {
            // Park a Zipf-skewed batch of readers.
            for _ in 0..rng.gen_range(3usize..12) {
                let cell = zipf.sample(&mut rng);
                assert_eq!(
                    m.read(Addr(cell), next_reader).unwrap(),
                    ReadOutcome::Deferred,
                    "round {round}: unwritten cell must defer"
                );
                parked[cell].push(next_reader);
                next_reader += 1;
            }
            peak_parked = peak_parked.max(m.deferred_outstanding());
            // Release the hottest currently-parked cell; arrival order
            // is the contract.
            let hot = (0..size)
                .max_by_key(|&c| parked[c].len())
                .expect("some cell parked");
            let mut released = Vec::new();
            m.write_with(Addr(hot), hot as i64, |r| released.push(r))
                .unwrap();
            assert_eq!(
                released,
                std::mem::take(&mut parked[hot]),
                "round {round}: release order must be arrival order"
            );
            // Reclaim resets everything, pushing all nodes through the
            // free list so the next round re-parks on recycled storage.
            let dropped = m.reclaim();
            assert_eq!(
                dropped,
                parked.iter().map(Vec::len).sum::<usize>(),
                "round {round}: reclaim must drop exactly the still-parked readers"
            );
            parked.iter_mut().for_each(Vec::clear);
            assert_eq!(m.deferred_outstanding(), 0);
        }
        // Steady state: the arena holds no more nodes than the worst
        // round needed at once — recycling, not leaking.
        assert!(
            m.node_arena_len() <= peak_parked,
            "arena grew to {} nodes for a peak demand of {peak_parked}",
            m.node_arena_len()
        );
    }
}
