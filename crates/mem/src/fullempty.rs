//! Denelcor-HEP-style full/empty memory (the paper's footnote 2).

use std::error::Error;
use std::fmt;

use crate::module::Addr;

/// What a [`FullEmptyMemory::try_read`] produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryReadOutcome<T> {
    /// The cell was full: the value, which also resets the cell to empty
    /// when the read is consuming (HEP semantics for register sharing) or
    /// leaves it full otherwise.
    Value(T),
    /// The cell was empty: the requester must retry — "unsatisfiable
    /// requests result in a busy-waiting condition — i.e., there is no
    /// such thing as a deferred read list."
    BusyWait,
}

/// Errors from full/empty memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FullEmptyError {
    /// Address beyond the memory's bounds.
    OutOfRange {
        /// The offending address.
        addr: Addr,
        /// The memory size.
        size: usize,
    },
}

impl fmt::Display for FullEmptyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FullEmptyError::OutOfRange { addr, size } => {
                write!(f, "full/empty address {addr} out of range (size {size})")
            }
        }
    }
}

impl Error for FullEmptyError {}

/// A memory whose every cell carries one full/empty status bit, as in the
/// Denelcor HEP (Smith 1978), which the paper contrasts with I-structures:
/// both synchronize at the word level, but HEP's unsatisfied reads
/// busy-wait (retry) instead of being deferred, so early consumers burn
/// memory and network bandwidth polling.
///
/// Reads of empty cells return [`TryReadOutcome::BusyWait`] and bump a
/// retry counter — the quantity Experiment E6 charges against this design.
/// Writes to full cells also busy-wait (HEP write-when-empty).
///
/// # Example
///
/// ```
/// use ttda_mem::{Addr, FullEmptyMemory, TryReadOutcome};
///
/// let mut m: FullEmptyMemory<i64> = FullEmptyMemory::new(4);
/// assert_eq!(m.try_read(Addr(0)).unwrap(), TryReadOutcome::BusyWait);
/// assert!(m.try_write(Addr(0), 9).unwrap());
/// assert_eq!(m.try_read(Addr(0)).unwrap(), TryReadOutcome::Value(9));
/// assert_eq!(m.retries(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct FullEmptyMemory<T> {
    cells: Vec<Option<T>>,
    retries: u64,
    write_retries: u64,
}

impl<T: Clone> FullEmptyMemory<T> {
    /// Allocates `size` empty cells.
    pub fn new(size: usize) -> Self {
        FullEmptyMemory {
            cells: std::iter::repeat_with(|| None).take(size).collect(),
            retries: 0,
            write_retries: 0,
        }
    }

    /// Number of cells.
    pub fn size(&self) -> usize {
        self.cells.len()
    }

    /// Non-consuming read-when-full.
    ///
    /// # Errors
    ///
    /// Returns [`FullEmptyError::OutOfRange`] for a bad address.
    pub fn try_read(&mut self, addr: Addr) -> Result<TryReadOutcome<T>, FullEmptyError> {
        let size = self.cells.len();
        let cell = self
            .cells
            .get(addr.0)
            .ok_or(FullEmptyError::OutOfRange { addr, size })?;
        match cell {
            Some(v) => Ok(TryReadOutcome::Value(v.clone())),
            None => {
                self.retries += 1;
                Ok(TryReadOutcome::BusyWait)
            }
        }
    }

    /// Write-when-empty: returns `true` if the write landed, `false` if
    /// the cell was full and the writer must retry.
    ///
    /// # Errors
    ///
    /// Returns [`FullEmptyError::OutOfRange`] for a bad address.
    pub fn try_write(&mut self, addr: Addr, value: T) -> Result<bool, FullEmptyError> {
        let size = self.cells.len();
        let cell = self
            .cells
            .get_mut(addr.0)
            .ok_or(FullEmptyError::OutOfRange { addr, size })?;
        if cell.is_some() {
            self.write_retries += 1;
            Ok(false)
        } else {
            *cell = Some(value);
            Ok(true)
        }
    }

    /// Failed read attempts so far — each one was a wasted round trip
    /// through the network in a real machine.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Failed write attempts so far.
    pub fn write_retries(&self) -> u64 {
        self.write_retries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_wait_counts_retries() {
        let mut m: FullEmptyMemory<i64> = FullEmptyMemory::new(2);
        for _ in 0..5 {
            assert_eq!(m.try_read(Addr(0)).unwrap(), TryReadOutcome::BusyWait);
        }
        assert_eq!(m.retries(), 5);
        m.try_write(Addr(0), 1).unwrap();
        assert_eq!(m.try_read(Addr(0)).unwrap(), TryReadOutcome::Value(1));
        assert_eq!(m.retries(), 5);
    }

    #[test]
    fn write_when_full_retries() {
        let mut m: FullEmptyMemory<i64> = FullEmptyMemory::new(1);
        assert!(m.try_write(Addr(0), 1).unwrap());
        assert!(!m.try_write(Addr(0), 2).unwrap());
        assert_eq!(m.write_retries(), 1);
        assert_eq!(m.try_read(Addr(0)).unwrap(), TryReadOutcome::Value(1));
    }

    #[test]
    fn out_of_range() {
        let mut m: FullEmptyMemory<i64> = FullEmptyMemory::new(1);
        assert!(m.try_read(Addr(9)).is_err());
        assert!(m.try_write(Addr(9), 0).is_err());
        let e = FullEmptyError::OutOfRange {
            addr: Addr(9),
            size: 1,
        };
        assert!(e.to_string().contains("out of range"));
    }
}
