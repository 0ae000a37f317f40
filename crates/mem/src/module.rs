//! A banked memory element with explicit service times.

use std::fmt;

use ttda_sim::Cycle;

/// A word address within one memory element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub usize);

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

impl From<usize> for Addr {
    fn from(v: usize) -> Self {
        Addr(v)
    }
}

/// One memory element of the abstract multiprocessor (Fig 1-1), as a
/// timing model: interleaved banks, each bank a FIFO server with a
/// fixed access time. Requests to distinct banks proceed in parallel;
/// requests to one bank serialize — the "bandwidth of each memory element
/// (bits per second per port)" bound of §1.1. It holds no words: the
/// von Neumann machines keep theirs in `ttda_vn::FlatMemory`, and the
/// C.mmp model prices its shared-memory accesses here.
///
/// # Example
///
/// ```
/// use ttda_mem::{Addr, MemoryModule};
/// use ttda_sim::Cycle;
///
/// let mut m = MemoryModule::new(4, Cycle(10));
/// // Timing: two same-bank accesses serialize.
/// let t1 = m.access_time(Cycle(0), Addr(0));
/// let t2 = m.access_time(Cycle(0), Addr(4)); // bank 0 again (4 % 4)
/// assert!(t2 > t1);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryModule {
    banks: usize,
    access: Cycle,
    bank_free: Vec<Cycle>,
}

impl MemoryModule {
    /// Creates a module of `banks` interleaved banks with the given
    /// per-access service time.
    ///
    /// # Panics
    ///
    /// Panics if `banks == 0`.
    pub fn new(banks: usize, access: Cycle) -> Self {
        assert!(banks > 0, "memory module needs at least one bank");
        MemoryModule {
            banks,
            access,
            bank_free: vec![Cycle::ZERO; banks],
        }
    }

    /// The bank serving `addr`.
    pub fn bank_of(&self, addr: Addr) -> usize {
        addr.0 % self.banks
    }

    /// Timing model: when does an access issued at `now` complete?
    ///
    /// Occupies the addressed bank for one service time. Writes and reads
    /// cost the same here; I-structure writes cost double at an
    /// I-structure module's port (see
    /// [`IStructurePort`](crate::IStructurePort)), not here.
    pub fn access_time(&mut self, now: Cycle, addr: Addr) -> Cycle {
        let bank = self.bank_of(addr);
        let start = now.max(self.bank_free[bank]);
        let done = start + self.access;
        self.bank_free[bank] = done;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_banks_parallel_same_bank_serial() {
        let mut m = MemoryModule::new(4, Cycle(10));
        let a = m.access_time(Cycle(0), Addr(0));
        let b = m.access_time(Cycle(0), Addr(1));
        assert_eq!(a, b, "different banks serve concurrently");
        let c = m.access_time(Cycle(0), Addr(8)); // bank 0
        assert_eq!(c, Cycle(20), "same bank queues");
    }

    #[test]
    fn addr_display_and_from() {
        assert_eq!(Addr(7).to_string(), "@7");
        assert_eq!(Addr::from(3), Addr(3));
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_panics() {
        let _ = MemoryModule::new(0, Cycle(1));
    }
}
