//! Demand caches and the coherence machinery of §1.1.
//!
//! The paper: "A dynamic scheme for exploiting locality is the (demand)
//! cache for main memory. This scheme is difficult to apply in a
//! multiprocessor context due to the cache coherence problem." This module
//! provides a multi-cache system with two coherence mechanisms —
//! bus-snooping write-invalidate and a Censier & Feautrier-style
//! directory — and with both *store-through* and *store-in* write
//! policies, so the scaling experiments (E3) can measure exactly the
//! overheads the paper predicts: invalidation traffic that grows with
//! sharing and with processor count.
//!
//! Addresses given to [`CoherentSystem`] are **line** addresses; callers
//! that think in bytes or words divide by their line size first.

use ttda_sim::Cycle;

use crate::module::Addr;

/// Store-through vs store-in (the paper's §1.1 terminology; today:
/// write-through vs write-back).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Every write is propagated to memory immediately; caches never hold
    /// dirty data. Other copies must still be invalidated — "using a
    /// store-through design instead of a store-in design does not
    /// completely solve the problem either".
    StoreThrough,
    /// Writes dirty the cache line; memory is updated on eviction or
    /// intervention (MSI states).
    StoreIn,
}

/// How invalidations find the other cached copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// A broadcast bus: every cache snoops every transaction. Cheap at
    /// small scale; the bus serializes and every transaction costs every
    /// cache a lookup.
    Snoop,
    /// A directory at memory tracks the sharer set per line (Censier &
    /// Feautrier 1978) and sends point-to-point invalidations.
    Directory,
}

/// Geometry and timing of a [`CoherentSystem`].
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Number of sets per cache.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Write policy.
    pub write_policy: WritePolicy,
    /// Coherence mechanism.
    pub protocol: Protocol,
    /// Cycles for a cache hit.
    pub hit_latency: Cycle,
    /// Cycles for a main-memory access.
    pub memory_latency: Cycle,
    /// Cycles for one bus transaction / one directory message hop.
    pub bus_latency: Cycle,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            sets: 64,
            ways: 2,
            write_policy: WritePolicy::StoreIn,
            protocol: Protocol::Snoop,
            hit_latency: Cycle(1),
            memory_latency: Cycle(20),
            bus_latency: Cycle(4),
        }
    }
}

/// Traffic and outcome counters for a [`CoherentSystem`].
#[derive(Debug, Clone, Default)]
pub struct CoherenceStats {
    /// Read requests issued.
    pub reads: u64,
    /// Write requests issued.
    pub writes: u64,
    /// Requests satisfied locally with no coherence action.
    pub hits: u64,
    /// Requests that went to memory (or a remote cache).
    pub misses: u64,
    /// Cached copies killed in *other* caches.
    pub invalidations: u64,
    /// Dirty lines written back to memory.
    pub writebacks: u64,
    /// Bus transactions (snoop) or messages (directory) on the
    /// interconnect.
    pub coherence_traffic: u64,
    /// Writes propagated straight to memory (store-through only).
    pub write_throughs: u64,
}

impl CoherenceStats {
    /// Hit ratio over all accesses.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.reads + self.writes;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Coherence messages per access — the paper's "overhead and/or
    /// decreased parallelism", in one number.
    pub fn traffic_per_access(&self) -> f64 {
        let total = self.reads + self.writes;
        if total == 0 {
            0.0
        } else {
            self.coherence_traffic as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Shared,
    Modified,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: usize,
    state: State,
    lru: u64,
}

#[derive(Debug, Clone)]
struct CacheArray {
    sets: usize,
    ways: usize,
    lines: Vec<Option<Line>>,
    tick: u64,
}

impl CacheArray {
    fn new(sets: usize, ways: usize) -> Self {
        CacheArray {
            sets,
            ways,
            lines: vec![None; sets * ways],
            tick: 0,
        }
    }

    fn set_range(&self, addr: Addr) -> std::ops::Range<usize> {
        let set = addr.0 % self.sets;
        set * self.ways..(set + 1) * self.ways
    }

    fn lookup(&mut self, addr: Addr) -> Option<&mut Line> {
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(addr);
        let line = self.lines[range]
            .iter_mut()
            .flatten()
            .find(|l| l.tag == addr.0)?;
        line.lru = tick;
        Some(line)
    }

    fn peek_state(&self, addr: Addr) -> Option<State> {
        let range = self.set_range(addr);
        self.lines[range.clone()]
            .iter()
            .flatten()
            .find(|l| l.tag == addr.0)
            .map(|l| l.state)
    }

    /// Inserts `addr`, returning any evicted line.
    fn insert(&mut self, addr: Addr, state: State) -> Option<Line> {
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(addr);
        // Already present: update in place.
        if let Some(line) = self.lines[range.clone()]
            .iter_mut()
            .flatten()
            .find(|l| l.tag == addr.0)
        {
            line.state = state;
            line.lru = tick;
            return None;
        }
        // Empty way?
        let base = range.start;
        if let Some(i) = self.lines[range.clone()].iter().position(|l| l.is_none()) {
            self.lines[base + i] = Some(Line {
                tag: addr.0,
                state,
                lru: tick,
            });
            return None;
        }
        // Evict LRU.
        let victim_off = self.lines[range]
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.map(|l| l.lru).unwrap_or(0))
            .map(|(i, _)| i)
            .expect("ways > 0");
        let victim = self.lines[base + victim_off];
        self.lines[base + victim_off] = Some(Line {
            tag: addr.0,
            state,
            lru: tick,
        });
        victim
    }

    fn invalidate(&mut self, addr: Addr) -> Option<State> {
        let range = self.set_range(addr);
        for slot in &mut self.lines[range] {
            if let Some(line) = slot {
                if line.tag == addr.0 {
                    let s = line.state;
                    *slot = None;
                    return Some(s);
                }
            }
        }
        None
    }

    fn downgrade(&mut self, addr: Addr) -> bool {
        let range = self.set_range(addr);
        for line in self.lines[range].iter_mut().flatten() {
            if line.tag == addr.0 && line.state == State::Modified {
                line.state = State::Shared;
                return true;
            }
        }
        false
    }
}

/// `n` private caches kept coherent over one shared memory.
///
/// [`CoherentSystem::read`] / [`CoherentSystem::write`] return the cycle
/// cost of the access, having performed all coherence actions and
/// recorded their traffic in [`CoherenceStats`]. The model is
/// sequentially consistent at the granularity of these calls: each call
/// completes before the next begins (the experiments interleave calls
/// from different processors explicitly).
///
/// # Example
///
/// ```
/// use ttda_mem::cache::{CacheConfig, CoherentSystem};
/// use ttda_mem::Addr;
///
/// let mut sys = CoherentSystem::new(2, CacheConfig::default());
/// sys.write(0, Addr(100)); // proc 0 dirties the line
/// sys.read(1, Addr(100));  // proc 1 pulls it: intervention + downgrade
/// let s = sys.stats();
/// assert_eq!(s.writebacks, 1);
/// assert!(s.coherence_traffic > 0);
/// ```
#[derive(Debug, Clone)]
pub struct CoherentSystem {
    caches: Vec<CacheArray>,
    config: CacheConfig,
    stats: CoherenceStats,
}

impl CoherentSystem {
    /// Creates a system of `procs` private caches.
    ///
    /// # Panics
    ///
    /// Panics if `procs == 0` or the config has zero sets/ways.
    pub fn new(procs: usize, config: CacheConfig) -> Self {
        assert!(procs > 0, "need at least one processor");
        assert!(
            config.sets > 0 && config.ways > 0,
            "cache geometry must be nonzero"
        );
        CoherentSystem {
            caches: (0..procs)
                .map(|_| CacheArray::new(config.sets, config.ways))
                .collect(),
            config,
            stats: CoherenceStats::default(),
        }
    }

    /// Number of processors/caches.
    pub fn procs(&self) -> usize {
        self.caches.len()
    }

    /// The configuration in force.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CoherenceStats {
        &self.stats
    }

    /// True if `proc` currently holds `addr` (any state).
    pub fn is_cached(&self, proc: usize, addr: Addr) -> bool {
        self.caches[proc].peek_state(addr).is_some()
    }

    fn others_holding(&self, proc: usize, addr: Addr) -> Vec<usize> {
        (0..self.caches.len())
            .filter(|&p| p != proc && self.caches[p].peek_state(addr).is_some())
            .collect()
    }

    fn handle_eviction(&mut self, victim: Option<Line>) -> Cycle {
        match victim {
            Some(line) if line.state == State::Modified => {
                self.stats.writebacks += 1;
                self.stats.coherence_traffic += 1;
                self.config.memory_latency + self.config.bus_latency
            }
            Some(_) if self.config.protocol == Protocol::Directory => {
                // Shared eviction notice keeps the directory exact.
                self.stats.coherence_traffic += 1;
                self.config.bus_latency
            }
            _ => Cycle::ZERO,
        }
    }

    /// Processor `proc` reads line `addr`; returns the access cost.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    pub fn read(&mut self, proc: usize, addr: Addr) -> Cycle {
        self.stats.reads += 1;
        if self.caches[proc].lookup(addr).is_some() {
            self.stats.hits += 1;
            return self.config.hit_latency;
        }
        self.stats.misses += 1;
        let mut cost = self.config.hit_latency + self.config.bus_latency; // request out
        self.stats.coherence_traffic += 1;

        // A dirty copy elsewhere must be written back (intervention).
        let holders = self.others_holding(proc, addr);
        let mut from_memory = true;
        for p in &holders {
            if self.caches[*p].peek_state(addr) == Some(State::Modified) {
                self.caches[*p].downgrade(addr);
                self.stats.writebacks += 1;
                self.stats.coherence_traffic += 1;
                cost += self.config.bus_latency + self.config.memory_latency;
                from_memory = false;
            }
        }
        if from_memory {
            cost += self.config.memory_latency;
        }
        let victim = self.caches[proc].insert(addr, State::Shared);
        cost += self.handle_eviction(victim);
        cost
    }

    /// Processor `proc` writes line `addr`; returns the access cost.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    pub fn write(&mut self, proc: usize, addr: Addr) -> Cycle {
        self.stats.writes += 1;
        let holders = self.others_holding(proc, addr);
        let local = self.caches[proc].peek_state(addr);

        let mut cost = self.config.hit_latency;

        // Invalidate all other copies — "a mechanism which, upon the
        // occurrence of a write to location x, invalidates all other
        // cached copies of location x wherever they may occur".
        if !holders.is_empty() {
            match self.config.protocol {
                Protocol::Snoop => {
                    // One broadcast transaction kills them all.
                    self.stats.coherence_traffic += 1;
                    cost += self.config.bus_latency;
                }
                Protocol::Directory => {
                    // Directory lookup + one message per sharer + acks.
                    self.stats.coherence_traffic += 1 + 2 * holders.len() as u64;
                    cost += self.config.bus_latency
                        + self.config.bus_latency.saturating_mul(holders.len() as u64);
                }
            }
            for p in &holders {
                if self.caches[*p].invalidate(addr) == Some(State::Modified) {
                    self.stats.writebacks += 1;
                    cost += self.config.memory_latency;
                }
                self.stats.invalidations += 1;
            }
        }

        match self.config.write_policy {
            WritePolicy::StoreThrough => {
                // No allocate, no dirty state: the word goes to memory.
                self.stats.write_throughs += 1;
                self.stats.coherence_traffic += 1;
                cost += self.config.bus_latency + self.config.memory_latency;
                if local.is_some() {
                    self.stats.hits += 1;
                    // Keep our copy valid (updated in place).
                } else {
                    self.stats.misses += 1;
                }
            }
            WritePolicy::StoreIn => {
                match local {
                    Some(State::Modified) => {
                        self.stats.hits += 1;
                    }
                    Some(State::Shared) => {
                        // Upgrade; hit but with the invalidation cost above.
                        self.stats.hits += 1;
                        self.caches[proc].insert(addr, State::Modified);
                    }
                    None => {
                        self.stats.misses += 1;
                        self.stats.coherence_traffic += 1;
                        cost += self.config.bus_latency + self.config.memory_latency;
                        let victim = self.caches[proc].insert(addr, State::Modified);
                        cost += self.handle_eviction(victim);
                    }
                }
            }
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CacheConfig {
        CacheConfig::default()
    }

    #[test]
    fn read_hit_after_miss() {
        let mut sys = CoherentSystem::new(1, cfg());
        let miss = sys.read(0, Addr(5));
        let hit = sys.read(0, Addr(5));
        assert!(miss > hit);
        assert_eq!(sys.stats().hits, 1);
        assert_eq!(sys.stats().misses, 1);
    }

    #[test]
    fn write_invalidates_other_copies() {
        let mut sys = CoherentSystem::new(4, cfg());
        for p in 0..4 {
            sys.read(p, Addr(9));
        }
        sys.write(0, Addr(9));
        assert_eq!(sys.stats().invalidations, 3);
        assert!(!sys.is_cached(1, Addr(9)));
        assert!(!sys.is_cached(3, Addr(9)));
        assert!(sys.is_cached(0, Addr(9)));
    }

    #[test]
    fn stale_copy_never_readable() {
        // The coherence definition of Censier & Feautrier: a LOAD always
        // sees the latest STORE. After p0 writes, p1's next read must miss
        // (traffic) rather than silently hit a stale line.
        let mut sys = CoherentSystem::new(2, cfg());
        sys.read(1, Addr(3));
        let before = sys.stats().misses;
        sys.write(0, Addr(3));
        sys.read(1, Addr(3));
        assert_eq!(
            sys.stats().misses,
            before + 2,
            "p0 write-miss + p1 re-fetch"
        );
    }

    #[test]
    fn dirty_intervention_causes_writeback() {
        let mut sys = CoherentSystem::new(2, cfg());
        sys.write(0, Addr(7)); // M in cache 0
        sys.read(1, Addr(7)); // intervention
        assert_eq!(sys.stats().writebacks, 1);
        // Both now shared; a further read by 0 is a hit.
        let c = sys.read(0, Addr(7));
        assert_eq!(c, sys.config().hit_latency);
    }

    #[test]
    fn store_through_always_touches_memory() {
        let mut c = cfg();
        c.write_policy = WritePolicy::StoreThrough;
        let mut sys = CoherentSystem::new(2, c);
        sys.read(0, Addr(1));
        let cost1 = sys.write(0, Addr(1));
        let cost2 = sys.write(0, Addr(1));
        assert_eq!(cost1, cost2, "every store-through write pays memory");
        assert_eq!(sys.stats().write_throughs, 2);
    }

    #[test]
    fn directory_traffic_scales_with_sharers() {
        let mut sc = cfg();
        sc.protocol = Protocol::Snoop;
        let mut dc = cfg();
        dc.protocol = Protocol::Directory;

        let measure = |mut sys: CoherentSystem, sharers: usize| {
            for p in 1..=sharers {
                sys.read(p, Addr(2));
            }
            let before = sys.stats().coherence_traffic;
            sys.write(0, Addr(2));
            sys.stats().coherence_traffic - before
        };
        let snoop = measure(CoherentSystem::new(8, sc), 7);
        let dir = measure(CoherentSystem::new(8, dc), 7);
        assert!(dir > snoop, "directory sends per-sharer messages");
    }

    #[test]
    fn eviction_of_dirty_line_writes_back() {
        let mut c = cfg();
        c.sets = 1;
        c.ways = 1; // direct-mapped, single line
        let mut sys = CoherentSystem::new(1, c);
        sys.write(0, Addr(0));
        sys.write(0, Addr(1)); // evicts dirty line 0
        assert_eq!(sys.stats().writebacks, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = cfg();
        c.sets = 1;
        c.ways = 2;
        let mut sys = CoherentSystem::new(1, c);
        sys.read(0, Addr(10));
        sys.read(0, Addr(20));
        sys.read(0, Addr(10)); // 20 is now LRU
        sys.read(0, Addr(30)); // evicts 20
        assert!(sys.is_cached(0, Addr(10)));
        assert!(!sys.is_cached(0, Addr(20)));
        assert!(sys.is_cached(0, Addr(30)));
    }

    #[test]
    fn hit_ratio_and_traffic_helpers() {
        let mut sys = CoherentSystem::new(1, cfg());
        sys.read(0, Addr(0));
        sys.read(0, Addr(0));
        let s = sys.stats();
        assert!((s.hit_ratio() - 0.5).abs() < 1e-9);
        assert!(s.traffic_per_access() > 0.0);
        assert_eq!(CoherenceStats::default().hit_ratio(), 0.0);
        assert_eq!(CoherenceStats::default().traffic_per_access(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_procs_panics() {
        let _ = CoherentSystem::new(0, cfg());
    }
}
