//! The data-memory interface a [`Core`](crate::Core) executes against.

use std::error::Error;
use std::fmt;

use ttda_mem::Addr;

/// Errors raised by memory implementations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// The effective address was negative or beyond the memory.
    BadAddress(i64),
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::BadAddress(a) => write!(f, "bad effective address {a}"),
        }
    }
}

impl Error for MemError {}

/// Word-addressed data memory with the atomic and full/empty operations
/// the surveyed machines rely on.
///
/// Implementations are *functional* — timing is charged separately by the
/// machine models, which know where the word lives and what the network
/// between the processor and the memory element looks like.
pub trait DataMemory {
    /// Loads a word. Uninitialized words read as 0 (the machines zero
    /// their core on power-up).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadAddress`] for an out-of-range address.
    fn load(&mut self, addr: Addr) -> Result<i64, MemError>;

    /// Stores a word.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadAddress`] for an out-of-range address.
    fn store(&mut self, addr: Addr, value: i64) -> Result<(), MemError>;

    /// Atomic fetch-and-add; returns the pre-increment value.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadAddress`] for an out-of-range address.
    fn fetch_add(&mut self, addr: Addr, inc: i64) -> Result<i64, MemError> {
        let old = self.load(addr)?;
        self.store(addr, old.wrapping_add(inc))?;
        Ok(old)
    }

    /// Atomic test-and-set; returns the previous value and leaves 1.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadAddress`] for an out-of-range address.
    fn test_set(&mut self, addr: Addr) -> Result<i64, MemError> {
        let old = self.load(addr)?;
        self.store(addr, 1)?;
        Ok(old)
    }

    /// Full/empty read-when-full: `Ok(None)` means the cell is empty and
    /// the requester must busy-wait.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadAddress`] for an out-of-range address.
    fn fe_load(&mut self, addr: Addr) -> Result<Option<i64>, MemError>;

    /// Full/empty write-when-empty: `Ok(false)` means the cell is full
    /// and the writer must busy-wait.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadAddress`] for an out-of-range address.
    fn fe_store(&mut self, addr: Addr, value: i64) -> Result<bool, MemError>;
}

/// A flat word array with a full/empty bit per word.
///
/// Grows on demand up to a configurable bound, reads of untouched words
/// return 0, and all full/empty bits start empty.
///
/// # Example
///
/// ```
/// use ttda_mem::Addr;
/// use ttda_vn::{DataMemory, FlatMemory};
///
/// let mut m = FlatMemory::new(16);
/// m.store(Addr(3), 42)?;
/// assert_eq!(m.load(Addr(3))?, 42);
/// assert_eq!(m.fetch_add(Addr(3), 8)?, 42);
/// assert_eq!(m.load(Addr(3))?, 50);
/// # Ok::<(), ttda_vn::MemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FlatMemory {
    words: Vec<i64>,
    full: Vec<bool>,
}

impl FlatMemory {
    /// Default growth bound (words).
    pub const DEFAULT_LIMIT: usize = 1 << 24;

    /// Creates a memory with `initial` words allocated (it still grows on
    /// demand up to [`FlatMemory::DEFAULT_LIMIT`]).
    pub fn new(initial: usize) -> Self {
        FlatMemory {
            words: vec![0; initial],
            full: vec![false; initial],
        }
    }

    /// Words currently allocated.
    pub fn allocated(&self) -> usize {
        self.words.len()
    }

    fn ensure(&mut self, addr: Addr) -> Result<usize, MemError> {
        if addr.0 >= Self::DEFAULT_LIMIT {
            return Err(MemError::BadAddress(addr.0 as i64));
        }
        if addr.0 >= self.words.len() {
            self.words.resize(addr.0 + 1, 0);
            self.full.resize(addr.0 + 1, false);
        }
        Ok(addr.0)
    }
}

impl DataMemory for FlatMemory {
    fn load(&mut self, addr: Addr) -> Result<i64, MemError> {
        let i = self.ensure(addr)?;
        Ok(self.words[i])
    }

    fn store(&mut self, addr: Addr, value: i64) -> Result<(), MemError> {
        let i = self.ensure(addr)?;
        self.words[i] = value;
        self.full[i] = true;
        Ok(())
    }

    fn fe_load(&mut self, addr: Addr) -> Result<Option<i64>, MemError> {
        let i = self.ensure(addr)?;
        Ok(self.full[i].then_some(self.words[i]))
    }

    fn fe_store(&mut self, addr: Addr, value: i64) -> Result<bool, MemError> {
        let i = self.ensure(addr)?;
        if self.full[i] {
            Ok(false)
        } else {
            self.words[i] = value;
            self.full[i] = true;
            Ok(true)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized_and_grows() {
        let mut m = FlatMemory::new(0);
        assert_eq!(m.load(Addr(100)).unwrap(), 0);
        assert!(m.allocated() >= 101);
    }

    #[test]
    fn limit_enforced() {
        let limit = FlatMemory::DEFAULT_LIMIT;
        let mut m = FlatMemory::new(0);
        assert_eq!(
            m.store(Addr(limit), 1),
            Err(MemError::BadAddress(limit as i64))
        );
        assert_eq!(m.allocated(), 0, "a refused store allocates nothing");
        assert!(MemError::BadAddress(10).to_string().contains("10"));
    }

    #[test]
    fn atomics() {
        let mut m = FlatMemory::new(4);
        assert_eq!(m.fetch_add(Addr(0), 5).unwrap(), 0);
        assert_eq!(m.fetch_add(Addr(0), 5).unwrap(), 5);
        assert_eq!(m.test_set(Addr(1)).unwrap(), 0);
        assert_eq!(m.test_set(Addr(1)).unwrap(), 1);
    }

    #[test]
    fn full_empty_semantics() {
        let mut m = FlatMemory::new(4);
        assert_eq!(m.fe_load(Addr(2)).unwrap(), None);
        assert!(m.fe_store(Addr(2), 9).unwrap());
        assert!(!m.fe_store(Addr(2), 10).unwrap());
        assert_eq!(m.fe_load(Addr(2)).unwrap(), Some(9));
        // A plain store marks the word full too.
        m.store(Addr(3), 1).unwrap();
        assert_eq!(m.fe_load(Addr(3)).unwrap(), Some(1));
    }
}
