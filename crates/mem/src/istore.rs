//! I-structure storage: presence bits and deferred read lists (Fig 2-1),
//! and the single service port that prices its requests (§2.1).

use std::error::Error;
use std::fmt;

use ttda_sim::Cycle;

use crate::module::Addr;

/// The presence bits associated with every I-structure cell.
///
/// The paper (§2.1): "special flags (called *presence* bits) which
/// indicate the memory cell's status — written or unwritten", plus the
/// third state a cell enters when a read arrives early and is "put aside".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Presence {
    /// Never written, no readers waiting.
    Empty,
    /// Written; reads are satisfied immediately.
    Present,
    /// Not yet written, but one or more read requests are deferred.
    Deferred,
}

/// What an I-structure read produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome<T> {
    /// The cell was full; here is its value.
    Value(T),
    /// The cell was empty; the request joined the deferred list and the
    /// caller will be released by the matching write.
    Deferred,
}

/// Errors from I-structure operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IStructureError {
    /// Address beyond the structure's bounds.
    OutOfRange {
        /// The offending address.
        addr: Addr,
        /// The structure size.
        size: usize,
    },
    /// A second write to a written (or once-written) cell — the
    /// write-write race §1.1 says should be caught by run-time checking.
    AlreadyWritten {
        /// The offending address.
        addr: Addr,
    },
}

impl fmt::Display for IStructureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IStructureError::OutOfRange { addr, size } => {
                write!(f, "i-structure address {addr} out of range (size {size})")
            }
            IStructureError::AlreadyWritten { addr } => {
                write!(
                    f,
                    "write-write race: i-structure cell {addr} already written"
                )
            }
        }
    }
}

impl Error for IStructureError {}

#[derive(Debug, Clone)]
enum Cell<T, R> {
    Empty,
    Present(T),
    Deferred(Vec<R>),
}

/// The enum-cell I-structure store: write-once cells with presence bits
/// and deferred read lists, one Rust enum per cell and one heap `Vec`
/// per deferred list.
///
/// This is the direct transcription of Fig 2-1 and serves as the
/// *reference model*: the packed engine
/// ([`PackedIStructure`](crate::PackedIStructure), re-exported as
/// `IStructure`, which the engines actually run on) is checked against
/// it operation-for-operation by the model-equivalence property in the
/// test suite. Keep its semantics boring and obvious.
///
/// `T` is the stored value type; `R` identifies a pending reader (in the
/// TTDA it is the tag of the instruction waiting for the datum — "the
/// name of the instruction to which the contents should be forwarded").
///
/// Reads of full cells return immediately; reads of empty cells are
/// recorded on the per-cell deferred list ("the memory module puts the
/// read request aside"); the eventual write returns every deferred reader
/// so the controller can forward them the datum. A second write to any
/// cell is a detected error.
///
/// This functional core is untimed; [`IStructurePort`] prices the
/// requests it serves (reads cost one memory cycle, writes two).
///
/// # Example
///
/// ```
/// use ttda_mem::{Addr, EnumIStructure, IStructureError, ReadOutcome};
///
/// let mut m: EnumIStructure<f64, u32> = EnumIStructure::new(4);
/// assert_eq!(m.read(Addr(0), 11).unwrap(), ReadOutcome::Deferred);
/// assert_eq!(m.read(Addr(0), 22).unwrap(), ReadOutcome::Deferred);
/// assert_eq!(m.write(Addr(0), 2.5).unwrap(), vec![11, 22]);
/// // Write-write race is caught:
/// assert_eq!(
///     m.write(Addr(0), 9.0).unwrap_err(),
///     IStructureError::AlreadyWritten { addr: Addr(0) }
/// );
/// ```
#[derive(Debug, Clone)]
pub struct EnumIStructure<T, R = u64> {
    cells: Vec<Cell<T, R>>,
    /// Running total of parked readers across all cells, maintained
    /// incrementally so per-wave diagnostics don't rescan every cell.
    deferred: usize,
}

impl<T, R> EnumIStructure<T, R> {
    /// Allocates a structure of `size` empty cells.
    pub fn new(size: usize) -> Self {
        EnumIStructure {
            cells: std::iter::repeat_with(|| Cell::Empty).take(size).collect(),
            deferred: 0,
        }
    }

    /// Number of cells.
    pub fn size(&self) -> usize {
        self.cells.len()
    }

    /// Total readers currently parked across every cell's deferred list.
    ///
    /// O(1): the count is maintained by [`read`](EnumIStructure::read),
    /// [`write`](EnumIStructure::write) and
    /// [`reclaim`](EnumIStructure::reclaim), mirroring
    /// [`IStructureShard::deferred_outstanding`](crate::IStructureShard::deferred_outstanding).
    pub fn deferred_outstanding(&self) -> usize {
        self.deferred
    }

    /// The presence bits of a cell.
    ///
    /// # Errors
    ///
    /// Returns [`IStructureError::OutOfRange`] for a bad address.
    pub fn presence(&self, addr: Addr) -> Result<Presence, IStructureError> {
        match self.cell(addr)? {
            Cell::Empty => Ok(Presence::Empty),
            Cell::Present(_) => Ok(Presence::Present),
            Cell::Deferred(_) => Ok(Presence::Deferred),
        }
    }

    /// Number of readers currently parked on `addr`'s deferred list.
    ///
    /// # Errors
    ///
    /// Returns [`IStructureError::OutOfRange`] for a bad address.
    pub fn deferred_count(&self, addr: Addr) -> Result<usize, IStructureError> {
        match self.cell(addr)? {
            Cell::Deferred(list) => Ok(list.len()),
            _ => Ok(0),
        }
    }

    fn cell(&self, addr: Addr) -> Result<&Cell<T, R>, IStructureError> {
        self.cells.get(addr.0).ok_or(IStructureError::OutOfRange {
            addr,
            size: self.cells.len(),
        })
    }

    fn cell_mut(&mut self, addr: Addr) -> Result<&mut Cell<T, R>, IStructureError> {
        let size = self.cells.len();
        self.cells
            .get_mut(addr.0)
            .ok_or(IStructureError::OutOfRange { addr, size })
    }
}

impl<T: Clone, R> EnumIStructure<T, R> {
    /// Processes a read request from `reader`.
    ///
    /// # Errors
    ///
    /// Returns [`IStructureError::OutOfRange`] for a bad address.
    pub fn read(&mut self, addr: Addr, reader: R) -> Result<ReadOutcome<T>, IStructureError> {
        let cell = self.cell_mut(addr)?;
        match cell {
            Cell::Present(v) => Ok(ReadOutcome::Value(v.clone())),
            Cell::Empty => {
                *cell = Cell::Deferred(vec![reader]);
                self.deferred += 1;
                Ok(ReadOutcome::Deferred)
            }
            Cell::Deferred(list) => {
                list.push(reader);
                self.deferred += 1;
                Ok(ReadOutcome::Deferred)
            }
        }
    }

    /// Processes a write, returning the deferred readers to be released
    /// (in arrival order).
    ///
    /// # Errors
    ///
    /// Returns [`IStructureError::AlreadyWritten`] on a write-write race
    /// or [`IStructureError::OutOfRange`] for a bad address.
    pub fn write(&mut self, addr: Addr, value: T) -> Result<Vec<R>, IStructureError> {
        let cell = self.cell_mut(addr)?;
        match std::mem::replace(cell, Cell::Empty) {
            Cell::Present(old) => {
                *cell = Cell::Present(old);
                Err(IStructureError::AlreadyWritten { addr })
            }
            Cell::Empty => {
                *cell = Cell::Present(value);
                Ok(Vec::new())
            }
            Cell::Deferred(readers) => {
                *cell = Cell::Present(value);
                self.deferred -= readers.len();
                Ok(readers)
            }
        }
    }

    /// Streaming variant of [`write`](Self::write): invokes `release`
    /// once per deferred reader in arrival order and returns how many
    /// were released. Mirrors
    /// [`PackedIStructure::write_with`](crate::PackedIStructure::write_with)
    /// so benches and the model-equivalence property can drive both
    /// stores through the identical interface.
    ///
    /// # Errors
    ///
    /// See [`write`](Self::write).
    pub fn write_with(
        &mut self,
        addr: Addr,
        value: T,
        mut release: impl FnMut(R),
    ) -> Result<usize, IStructureError> {
        let released = self.write(addr, value)?;
        let n = released.len();
        for r in released {
            release(r);
        }
        Ok(n)
    }

    /// Visits every deferred reader currently parked in the structure.
    pub fn for_each_deferred(&self, mut f: impl FnMut(&R)) {
        for cell in &self.cells {
            if let Cell::Deferred(readers) = cell {
                for r in readers {
                    f(r);
                }
            }
        }
    }

    /// Reads without deferring (peek) — used by tests and debuggers, not
    /// by the machine.
    pub fn peek(&self, addr: Addr) -> Option<&T> {
        match self.cell(addr).ok()? {
            Cell::Present(v) => Some(v),
            _ => None,
        }
    }

    /// Resets every cell to `Empty`, dropping any deferred readers.
    ///
    /// Real I-structure storage is reclaimed wholesale by a storage
    /// manager once the structure's context dies; this models that. It is
    /// an error in the *program* if readers are still parked here, so the
    /// count of dropped readers is returned for the caller to assert on.
    pub fn reclaim(&mut self) -> usize {
        let mut dropped = 0;
        for cell in &mut self.cells {
            if let Cell::Deferred(list) = cell {
                dropped += list.len();
            }
            *cell = Cell::Empty;
        }
        self.deferred -= dropped;
        dropped
    }
}

/// The single service port of an I-structure module, priced as §2.1
/// prices it: "A read operation is as efficient as in a traditional
/// memory. Write operations take twice as long, however, due to the
/// prefetching of presence bits."
///
/// Requests are served one at a time, in arrival order: a read holds
/// the port for the base access time and a write for twice that. A
/// deferred read costs the same as an immediate one; the deferral
/// itself is free, which is the paper's whole point. The port only
/// keeps time; the cells it serves live in an untimed store such as
/// [`IStructure`](crate::IStructure).
///
/// # Example
///
/// ```
/// use ttda_mem::IStructurePort;
/// use ttda_sim::Cycle;
///
/// let mut port = IStructurePort::new(Cycle(10));
/// let w = port.serve(Cycle(0), true);
/// assert_eq!(w, Cycle(20)); // write: 2x
/// // A read arriving while the port is busy waits for it.
/// assert_eq!(port.serve(Cycle(5), false), Cycle(30)); // read: 1x
/// ```
#[derive(Debug, Clone)]
pub struct IStructurePort {
    access: Cycle,
    free: Cycle,
}

impl IStructurePort {
    /// A port with base access time `access`, free from time zero.
    pub fn new(access: Cycle) -> Self {
        IStructurePort {
            access,
            free: Cycle::ZERO,
        }
    }

    /// Serves a request arriving at `now` (a write if `write`, else a
    /// read) and returns when it completes.
    pub fn serve(&mut self, now: Cycle, write: bool) -> Cycle {
        let cost = if write {
            self.access.saturating_mul(2)
        } else {
            self.access
        };
        let done = now.max(self.free) + cost;
        self.free = done;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_after_write_is_immediate() {
        let mut m: EnumIStructure<i64> = EnumIStructure::new(2);
        m.write(Addr(0), 7).unwrap();
        assert_eq!(m.read(Addr(0), 1).unwrap(), ReadOutcome::Value(7));
        assert_eq!(m.presence(Addr(0)).unwrap(), Presence::Present);
        assert_eq!(m.peek(Addr(0)), Some(&7));
    }

    #[test]
    fn multiple_deferred_readers_released_in_order() {
        let mut m: EnumIStructure<i64, &str> = EnumIStructure::new(1);
        for r in ["a", "b", "c"] {
            assert_eq!(m.read(Addr(0), r).unwrap(), ReadOutcome::Deferred);
        }
        assert_eq!(m.presence(Addr(0)).unwrap(), Presence::Deferred);
        assert_eq!(m.deferred_count(Addr(0)).unwrap(), 3);
        assert_eq!(m.write(Addr(0), 1).unwrap(), vec!["a", "b", "c"]);
        assert_eq!(m.deferred_count(Addr(0)).unwrap(), 0);
    }

    #[test]
    fn write_write_race_detected_even_after_deferral() {
        let mut m: EnumIStructure<i64> = EnumIStructure::new(1);
        m.read(Addr(0), 9).unwrap();
        m.write(Addr(0), 1).unwrap();
        let err = m.write(Addr(0), 2).unwrap_err();
        assert_eq!(err, IStructureError::AlreadyWritten { addr: Addr(0) });
        // Original value undamaged by the failed write.
        assert_eq!(m.peek(Addr(0)), Some(&1));
    }

    #[test]
    fn out_of_range_errors() {
        let mut m: EnumIStructure<i64> = EnumIStructure::new(1);
        assert!(matches!(
            m.read(Addr(5), 0),
            Err(IStructureError::OutOfRange { .. })
        ));
        assert!(m.write(Addr(5), 0).is_err());
        assert!(m.presence(Addr(5)).is_err());
        let e = IStructureError::OutOfRange {
            addr: Addr(5),
            size: 1,
        };
        assert!(e.to_string().contains("out of range"));
    }

    #[test]
    fn deferred_outstanding_tracks_incrementally() {
        let mut m: EnumIStructure<i64> = EnumIStructure::new(3);
        assert_eq!(m.deferred_outstanding(), 0);
        m.read(Addr(0), 1).unwrap();
        m.read(Addr(0), 2).unwrap();
        m.read(Addr(1), 3).unwrap();
        assert_eq!(m.deferred_outstanding(), 3);
        m.write(Addr(0), 5).unwrap(); // releases two
        assert_eq!(m.deferred_outstanding(), 1);
        m.write(Addr(2), 6).unwrap(); // releases none
        assert_eq!(m.deferred_outstanding(), 1);
        assert_eq!(m.reclaim(), 1);
        assert_eq!(m.deferred_outstanding(), 0);
    }

    #[test]
    fn reclaim_reports_dropped_readers() {
        let mut m: EnumIStructure<i64> = EnumIStructure::new(3);
        m.read(Addr(0), 1).unwrap();
        m.read(Addr(0), 2).unwrap();
        m.write(Addr(1), 5).unwrap();
        assert_eq!(m.reclaim(), 2);
        assert_eq!(m.presence(Addr(1)).unwrap(), Presence::Empty);
    }

    #[test]
    fn port_prices_a_read_1x_and_a_write_2x() {
        let mut port = IStructurePort::new(Cycle(10));
        assert_eq!(port.serve(Cycle(0), true), Cycle(20));
        assert_eq!(port.serve(Cycle(100), false), Cycle(110));
    }
}
