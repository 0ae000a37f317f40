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

/// One memory element of the abstract multiprocessor (Fig 1-1): a word
/// array divided into interleaved banks, each bank a FIFO server with a
/// fixed access time. Requests to distinct banks proceed in parallel;
/// requests to one bank serialize — the "bandwidth of each memory element
/// (bits per second per port)" bound of §1.1.
///
/// The module is generic over the stored word type so the same timing
/// model backs the von Neumann machines (`i64` words) and the dataflow
/// machine's program/structure stores.
///
/// # Example
///
/// ```
/// use ttda_mem::{Addr, MemoryModule};
/// use ttda_sim::Cycle;
///
/// let mut m: MemoryModule<i64> = MemoryModule::new(1024, 4, Cycle(10));
/// m.store(Addr(7), 99).unwrap();
/// assert_eq!(m.load(Addr(7)), Some(&99));
/// // Timing: two same-bank accesses serialize.
/// let t1 = m.access_time(Cycle(0), Addr(0));
/// let t2 = m.access_time(Cycle(0), Addr(4)); // bank 0 again (4 % 4)
/// assert!(t2 > t1);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryModule<T> {
    words: Vec<Option<T>>,
    banks: usize,
    access: Cycle,
    bank_free: Vec<Cycle>,
}

impl<T> MemoryModule<T> {
    /// Creates a module of `size` words in `banks` interleaved banks with
    /// the given per-access service time.
    ///
    /// # Panics
    ///
    /// Panics if `banks == 0`.
    pub fn new(size: usize, banks: usize, access: Cycle) -> Self {
        assert!(banks > 0, "memory module needs at least one bank");
        MemoryModule {
            words: std::iter::repeat_with(|| None).take(size).collect(),
            banks,
            access,
            bank_free: vec![Cycle::ZERO; banks],
        }
    }

    /// Capacity in words.
    pub fn size(&self) -> usize {
        self.words.len()
    }

    /// The bank serving `addr`.
    pub fn bank_of(&self, addr: Addr) -> usize {
        addr.0 % self.banks
    }

    /// Functional read; `None` if out of range or never written.
    pub fn load(&self, addr: Addr) -> Option<&T> {
        self.words.get(addr.0).and_then(|w| w.as_ref())
    }

    /// Functional write.
    ///
    /// # Errors
    ///
    /// Returns the value back if `addr` is out of range.
    pub fn store(&mut self, addr: Addr, value: T) -> Result<(), T> {
        match self.words.get_mut(addr.0) {
            Some(slot) => {
                *slot = Some(value);
                Ok(())
            }
            None => Err(value),
        }
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
    fn store_load_roundtrip() {
        let mut m: MemoryModule<&str> = MemoryModule::new(4, 2, Cycle(5));
        assert_eq!(m.load(Addr(0)), None);
        m.store(Addr(0), "hi").unwrap();
        assert_eq!(m.load(Addr(0)), Some(&"hi"));
        assert!(m.store(Addr(99), "nope").is_err());
        assert_eq!(m.load(Addr(99)), None);
    }

    #[test]
    fn distinct_banks_parallel_same_bank_serial() {
        let mut m: MemoryModule<i64> = MemoryModule::new(16, 4, Cycle(10));
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
        let _: MemoryModule<i64> = MemoryModule::new(4, 0, Cycle(1));
    }
}
