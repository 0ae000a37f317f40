//! The shared-memory multiprocessor interleaver.

use ttda_sim::{Cycle, EventQueue};
use ttda_vn::{Core, CoreError, MemAccess, MemRef, RunConfig, Step};

/// A per-reference timing model: given *which processor* touched *which
/// word*, how many cycles does the round trip take?
///
/// The functional side of memory is shared [`FlatMemory`]
/// (`ttda-vn`); this trait supplies only the timing, which is where
/// C.mmp and Cm* differ.
///
/// [`FlatMemory`]: ttda_vn::FlatMemory
pub trait LatencyModel {
    /// Round-trip latency for one reference issued at `now`.
    fn latency(&mut self, proc: usize, r: &MemRef, now: Cycle) -> Cycle;
}

impl<F: FnMut(usize, &MemRef, Cycle) -> Cycle> LatencyModel for F {
    fn latency(&mut self, proc: usize, r: &MemRef, now: Cycle) -> Cycle {
        self(proc, r, now)
    }
}

/// What an [`Smp::run`] measured, overall and per processor.
#[derive(Debug, Clone)]
pub struct SmpStats {
    /// Wall-clock completion time (last processor's halt).
    pub cycles: Cycle,
    /// Instructions retired, per processor.
    pub instructions: Vec<u64>,
    /// Busy cycles (instruction execution), per processor.
    pub busy: Vec<Cycle>,
    /// Idle cycles (waiting on memory), per processor.
    pub idle: Vec<Cycle>,
    /// Memory references issued, per processor.
    pub mem_refs: Vec<u64>,
    /// Busy-wait retries observed, per processor.
    pub busy_waits: Vec<u64>,
    /// Whether every processor halted before the horizon.
    pub completed: bool,
}

impl SmpStats {
    /// Mean processor utilization: total busy over `procs × cycles`.
    pub fn utilization(&self) -> f64 {
        let total: u64 = self.busy.iter().map(|b| b.as_u64()).sum();
        let denom = self.cycles.as_u64().saturating_mul(self.busy.len() as u64);
        if denom == 0 {
            0.0
        } else {
            total as f64 / denom as f64
        }
    }
}

/// An event-driven interleaver for `n` blocking von Neumann processors
/// over one shared functional memory.
///
/// Processors execute in global time order (an event queue keyed by each
/// processor's next-ready time), so atomic operations and spin locks
/// behave correctly: the shared [`FlatMemory`](ttda_vn::FlatMemory) is
/// mutated in exactly the order the timing model dictates.
///
/// Every reference *blocks* its processor for the model's round-trip
/// latency — the von Neumann discipline whose consequences §1.1 and the
/// Cm* experience establish. (The TTDA side of the comparison lives in
/// `ttda-core`.)
#[derive(Debug)]
pub struct Smp {
    cores: Vec<Core>,
    mem: ttda_vn::FlatMemory,
    cfg: RunConfig,
}

impl Smp {
    /// Creates a machine from per-processor programs (usually the same
    /// program with a per-processor id in a register) and a shared
    /// memory.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is empty.
    pub fn new(cores: Vec<Core>, mem: ttda_vn::FlatMemory, cfg: RunConfig) -> Self {
        assert!(!cores.is_empty(), "need at least one processor");
        Smp { cores, mem, cfg }
    }

    /// Number of processors.
    pub fn procs(&self) -> usize {
        self.cores.len()
    }

    /// Post-run access to a core (for reading result registers).
    pub fn core(&self, proc: usize) -> &Core {
        &self.cores[proc]
    }

    /// Post-run access to the shared memory.
    pub fn memory_mut(&mut self) -> &mut ttda_vn::FlatMemory {
        &mut self.mem
    }

    /// Runs every processor to `Halt` under `model`.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError`] from any processor.
    pub fn run(&mut self, model: &mut dyn LatencyModel) -> Result<SmpStats, CoreError> {
        let n = self.cores.len();
        let mut stats = SmpStats {
            cycles: Cycle::ZERO,
            instructions: vec![0; n],
            busy: vec![Cycle::ZERO; n],
            idle: vec![Cycle::ZERO; n],
            mem_refs: vec![0; n],
            busy_waits: vec![0; n],
            completed: false,
        };
        let mut q: EventQueue<usize> = EventQueue::new();
        for p in 0..n {
            q.push(Cycle::ZERO, p);
        }
        let mut running = n;
        let mut end = Cycle::ZERO;

        while let Some((now, p)) = q.pop() {
            if now >= self.cfg.max_cycles {
                stats.cycles = now;
                return Ok(stats);
            }
            match self.cores[p].step(&mut self.mem)? {
                Step::Halted => {
                    running -= 1;
                    end = end.max(now);
                    if running == 0 {
                        break;
                    }
                }
                Step::Executed { mem } => {
                    stats.instructions[p] += 1;
                    stats.busy[p] += self.cfg.instr_time;
                    let mut ready = now + self.cfg.instr_time;
                    if let Some(r) = mem {
                        stats.mem_refs[p] += 1;
                        let l = model.latency(p, &r, ready);
                        stats.idle[p] += l;
                        ready += l;
                    }
                    q.push(ready, p);
                }
                Step::BusyWait { addr } => {
                    stats.busy_waits[p] += 1;
                    stats.mem_refs[p] += 1;
                    stats.busy[p] += self.cfg.instr_time;
                    let mut ready = now + self.cfg.instr_time;
                    let r = MemRef {
                        addr,
                        op: MemAccess::FeLoad,
                    };
                    let l = model.latency(p, &r, ready) + self.cfg.retry_interval;
                    stats.idle[p] += l;
                    ready += l;
                    q.push(ready, p);
                }
            }
        }
        stats.cycles = end;
        stats.completed = running == 0;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttda_vn::{AluOp, Cond, FlatMemory, ProgramBuilder, Reg};

    /// Each proc stores its id at slot id, then sums all slots once the
    /// barrier counter reaches n.
    fn barrier_program(n: i64) -> ttda_vn::Program {
        let (id, one, cnt, tmp, sum, i) = (Reg(1), Reg(2), Reg(3), Reg(4), Reg(5), Reg(6));
        let mut b = ProgramBuilder::new();
        // mem[100 + id] = id; cnt = fetch_add(mem[99], 1)
        b.li(one, 1);
        b.alui(AluOp::Add, tmp, id, 100);
        b.store(id, tmp, 0);
        b.li(cnt, 99);
        b.fetch_add(tmp, cnt, 0, one);
        // spin until mem[99] == n
        b.li(Reg(7), n);
        b.label("spin");
        b.load(tmp, cnt, 0);
        b.branch(Cond::Lt, tmp, Reg(7), "spin");
        // sum
        b.li(sum, 0).li(i, 0);
        b.label("sum");
        b.alui(AluOp::Add, tmp, i, 100);
        b.load(tmp, tmp, 0);
        b.alu(AluOp::Add, sum, sum, tmp);
        b.alui(AluOp::Add, i, i, 1);
        b.branch(Cond::Lt, i, Reg(7), "sum");
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn four_procs_synchronize_and_agree() {
        let n = 4;
        let prog = barrier_program(n as i64);
        let cores: Vec<Core> = (0..n)
            .map(|p| {
                let mut c = Core::new(prog.clone());
                c.set_reg(Reg(1), p as i64);
                c
            })
            .collect();
        let mut smp = Smp::new(cores, FlatMemory::new(256), RunConfig::default());
        let stats = smp
            .run(&mut |_: usize, _: &MemRef, _: Cycle| Cycle(3))
            .unwrap();
        assert!(stats.completed);
        for p in 0..n {
            assert_eq!(smp.core(p).reg(Reg(5)), 1 + 2 + 3, "proc {p} sum");
        }
        assert!(stats.utilization() > 0.0 && stats.utilization() <= 1.0);
        assert_eq!(stats.instructions.len(), n);
    }

    #[test]
    fn higher_latency_lowers_utilization() {
        let prog = barrier_program(1);
        let run_at = |l: u64| {
            let mut c = Core::new(prog.clone());
            c.set_reg(Reg(1), 0);
            let mut smp = Smp::new(vec![c], FlatMemory::new(256), RunConfig::default());
            smp.run(&mut |_: usize, _: &MemRef, _: Cycle| Cycle(l))
                .unwrap()
        };
        let u1 = run_at(1).utilization();
        let u50 = run_at(50).utilization();
        assert!(u50 < u1 / 2.0, "u1={u1} u50={u50}");
    }

    #[test]
    fn horizon_stops_spinners() {
        let mut b = ProgramBuilder::new();
        b.label("spin").jump("spin");
        let cfg = RunConfig {
            max_cycles: Cycle(500),
            ..RunConfig::default()
        };
        let mut smp = Smp::new(vec![Core::new(b.build().unwrap())], FlatMemory::new(4), cfg);
        let stats = smp
            .run(&mut |_: usize, _: &MemRef, _: Cycle| Cycle(0))
            .unwrap();
        assert!(!stats.completed);
    }
}
