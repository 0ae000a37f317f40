//! C.mmp: minicomputers on a crossbar into shared memory (§1.2.1).

use ttda_mem::cache::{CacheConfig, CoherenceStats, CoherentSystem};
use ttda_mem::{Addr, MemoryModule};
use ttda_net::{Crossbar, Fabric, FabricConfig, NodeId, Topology};
use ttda_sim::Cycle;
use ttda_vn::{Core, CoreError, MemAccess, MemRef, RunConfig};

use crate::smp::{Smp, SmpStats};

/// Configuration for a [`Cmmp`] machine.
#[derive(Debug, Clone)]
pub struct CmmpConfig {
    /// Number of processors (C.mmp had 16).
    pub procs: usize,
    /// Memory banks behind the crossbar.
    pub banks: usize,
    /// Memory access time.
    pub mem_access: Cycle,
    /// Crossbar timing ("the switch speed was comparable to the speed of
    /// a local memory reference").
    pub fabric: FabricConfig,
    /// Per-processor caches, if fitted. C.mmp's design called for them
    /// but only one was ever built — enabling this shows why.
    pub caches: Option<CacheConfig>,
    /// Cache line size in words (for address→line mapping).
    pub line_words: usize,
    /// Processor timing.
    pub run: RunConfig,
}

impl Default for CmmpConfig {
    fn default() -> Self {
        CmmpConfig {
            procs: 16,
            banks: 16,
            mem_access: Cycle(4),
            fabric: FabricConfig {
                link_service: Cycle(1),
                switch_delay: Cycle(1),
                injection_delay: Cycle(0),
            },
            caches: None,
            line_words: 4,
            run: RunConfig::default(),
        }
    }
}

struct CmmpModel {
    fabric: Fabric<Crossbar>,
    memory: MemoryModule,
    caches: Option<CoherentSystem>,
    line_words: usize,
    procs: usize,
}

impl crate::smp::LatencyModel for CmmpModel {
    fn latency(&mut self, proc: usize, r: &MemRef, now: Cycle) -> Cycle {
        if let Some(caches) = &mut self.caches {
            // Atomics bypass the cache (they must be globally visible),
            // everything else goes through the coherent hierarchy.
            let line = Addr(r.addr.0 / self.line_words);
            match r.op {
                MemAccess::Atomic => {
                    let arrive = self.fabric.send(now, NodeId(proc), self.mem_port(r.addr));
                    let done = self.memory.access_time(arrive, r.addr);
                    (done - now) + (arrive - now) // there and back
                }
                MemAccess::Load | MemAccess::FeLoad => caches.read(proc, line),
                MemAccess::Store | MemAccess::FeStore => caches.write(proc, line),
            }
        } else {
            // Cacheless C.mmp: every reference crosses the crossbar to a
            // memory bank and back.
            let arrive = self.fabric.send(now, NodeId(proc), self.mem_port(r.addr));
            let served = self.memory.access_time(arrive, r.addr);
            // Return trip mirrors the request path cost.
            let one_way = arrive - now;
            (served - now) + one_way
        }
    }
}

impl CmmpModel {
    fn mem_port(&self, addr: Addr) -> NodeId {
        // Memory ports share the crossbar's port space with processors in
        // this model; bank b answers on port b mod ports.
        NodeId(addr.0 % self.procs)
    }
}

/// The C.mmp machine: [`Smp`] cores + crossbar + banked shared memory,
/// optionally with coherent per-processor caches.
///
/// # Example
///
/// ```
/// use ttda_machines::{Cmmp, CmmpConfig};
/// use ttda_vn::{AluOp, Core, ProgramBuilder, Reg};
///
/// let mut b = ProgramBuilder::new();
/// b.li(Reg(1), 10).load(Reg(2), Reg(1), 0).halt();
/// let prog = b.build()?;
/// let cfg = CmmpConfig { procs: 4, ..CmmpConfig::default() };
/// let mut machine = Cmmp::new(vec![Core::new(prog.clone()); 4], cfg);
/// let stats = machine.run()?;
/// assert!(stats.completed);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Cmmp {
    smp: Smp,
    config: CmmpConfig,
    coherence: Option<CoherenceStats>,
}

impl Cmmp {
    /// Builds the machine; one core per processor.
    ///
    /// # Panics
    ///
    /// Panics if `cores.len() != config.procs` or `procs == 0`.
    pub fn new(cores: Vec<Core>, config: CmmpConfig) -> Self {
        assert_eq!(cores.len(), config.procs, "one core per processor");
        assert!(config.procs > 0, "need processors");
        let smp = Smp::new(cores, ttda_vn::FlatMemory::new(1 << 16), config.run);
        Cmmp {
            smp,
            config,
            coherence: None,
        }
    }

    /// The crossbar's crosspoint count (the quadratic cost of §1.2.1).
    pub fn switch_cost(&self) -> u64 {
        Crossbar::new(self.config.procs)
            .expect("procs > 0")
            .hardware_cost()
    }

    /// Runs all processors to completion.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError`] from any processor.
    pub fn run(&mut self) -> Result<SmpStats, CoreError> {
        let xbar = Crossbar::new(self.config.procs).expect("procs > 0");
        let mut model = CmmpModel {
            fabric: Fabric::new(xbar, self.config.fabric),
            memory: MemoryModule::new(self.config.banks, self.config.mem_access),
            caches: self
                .config
                .caches
                .map(|c| CoherentSystem::new(self.config.procs, c)),
            line_words: self.config.line_words.max(1),
            procs: self.config.procs,
        };
        let stats = self.smp.run(&mut model)?;
        self.coherence = model.caches.map(|c| c.stats().clone());
        Ok(stats)
    }

    /// Coherence statistics from the last cached run, if caches were
    /// fitted.
    pub fn coherence(&self) -> Option<&CoherenceStats> {
        self.coherence.as_ref()
    }

    /// Post-run core access.
    pub fn core(&self, proc: usize) -> &Core {
        self.smp.core(proc)
    }

    /// Post-run shared-memory access.
    pub fn memory_mut(&mut self) -> &mut ttda_vn::FlatMemory {
        self.smp.memory_mut()
    }

    /// The number of ports the crossbar serves.
    pub fn ports(&self) -> usize {
        Crossbar::new(self.config.procs).expect("procs > 0").ports()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttda_vn::{AluOp, Cond, DataMemory, ProgramBuilder, Reg};

    /// Each processor bumps a shared counter `k` times with FETCH-AND-ADD.
    fn counter_program(k: i64) -> ttda_vn::Program {
        let (one, i, n, t) = (Reg(1), Reg(2), Reg(3), Reg(4));
        let mut b = ProgramBuilder::new();
        b.li(one, 1).li(i, 0).li(n, k).li(Reg(5), 500);
        b.label("l");
        b.fetch_add(t, Reg(5), 0, one);
        b.alui(AluOp::Add, i, i, 1);
        b.branch(Cond::Lt, i, n, "l");
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn shared_counter_is_exact() {
        let cfg = CmmpConfig {
            procs: 8,
            ..CmmpConfig::default()
        };
        let cores = vec![Core::new(counter_program(10)); 8];
        let mut m = Cmmp::new(cores, cfg);
        let stats = m.run().unwrap();
        assert!(stats.completed);
        assert_eq!(m.smp.memory_mut().load(Addr(500)).unwrap(), 80);
    }

    /// Each processor repeatedly loads and stores one shared word —
    /// migratory sharing, the coherence worst case.
    fn sharing_program(k: i64) -> ttda_vn::Program {
        let (i, n, t, a) = (Reg(2), Reg(3), Reg(4), Reg(5));
        let mut b = ProgramBuilder::new();
        b.li(i, 0).li(n, k).li(a, 600);
        b.label("l");
        b.load(t, a, 0);
        b.alui(AluOp::Add, t, t, 1);
        b.store(t, a, 0);
        b.alui(AluOp::Add, i, i, 1);
        b.branch(Cond::Lt, i, n, "l");
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn caches_track_coherence_traffic() {
        let cfg = CmmpConfig {
            procs: 4,
            caches: Some(CacheConfig::default()),
            ..CmmpConfig::default()
        };
        let cores = vec![Core::new(sharing_program(5)); 4];
        let mut m = Cmmp::new(cores, cfg);
        m.run().unwrap();
        let c = m.coherence().expect("caches fitted");
        assert!(c.reads + c.writes > 0);
        assert!(c.invalidations > 0, "migratory sharing must invalidate");
    }

    #[test]
    fn cacheless_run_has_no_coherence_stats() {
        let cfg = CmmpConfig {
            procs: 2,
            ..CmmpConfig::default()
        };
        let mut m = Cmmp::new(vec![Core::new(counter_program(2)); 2], cfg);
        m.run().unwrap();
        assert!(m.coherence().is_none());
    }

    #[test]
    fn switch_cost_quadratic() {
        let cfg4 = CmmpConfig {
            procs: 4,
            ..CmmpConfig::default()
        };
        let cfg16 = CmmpConfig {
            procs: 16,
            ..CmmpConfig::default()
        };
        let m4 = Cmmp::new(vec![Core::new(counter_program(1)); 4], cfg4);
        let m16 = Cmmp::new(vec![Core::new(counter_program(1)); 16], cfg16);
        assert_eq!(m4.switch_cost() * 16, m16.switch_cost());
        assert_eq!(m16.ports(), 16);
    }

    #[test]
    #[should_panic(expected = "one core per processor")]
    fn core_count_mismatch_panics() {
        let cfg = CmmpConfig {
            procs: 4,
            ..CmmpConfig::default()
        };
        let _ = Cmmp::new(vec![Core::new(counter_program(1)); 2], cfg);
    }
}
