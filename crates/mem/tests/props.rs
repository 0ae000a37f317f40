//! Property tests for the memory models, driven by the in-tree
//! `check` harness.

use ttda_mem::cache::{CacheConfig, CoherentSystem, Protocol, WritePolicy};
use ttda_mem::{Addr, FullEmptyMemory, IStructurePort, MemoryModule, TryReadOutcome};
use ttda_sim::{check, Cycle};

#[test]
fn every_cache_access_is_hit_or_miss() {
    check::forall("every cache access is hit or miss", |rng| {
        let policy = if rng.chance(0.5) {
            WritePolicy::StoreIn
        } else {
            WritePolicy::StoreThrough
        };
        let protocol = if rng.chance(0.5) {
            Protocol::Snoop
        } else {
            Protocol::Directory
        };
        let cfg = CacheConfig {
            write_policy: policy,
            protocol,
            ..CacheConfig::default()
        };
        let mut sys = CoherentSystem::new(4, cfg);
        let ops = rng.gen_range(1usize..300);
        for _ in 0..ops {
            let p = rng.gen_range(0usize..4);
            let addr = Addr(rng.gen_range(0usize..64));
            let c = if rng.chance(0.5) {
                sys.write(p, addr)
            } else {
                sys.read(p, addr)
            };
            assert!(c > Cycle::ZERO);
        }
        let s = sys.stats();
        assert_eq!(s.hits + s.misses, s.reads + s.writes);
    });
}

#[test]
fn coherence_no_stale_read_hits() {
    check::forall("coherence no stale read hits", |rng| {
        // Model check: a processor's read hit must return the latest
        // write. We shadow the protocol with a "who could be stale" set:
        // after p writes line a, every other processor's copy is stale
        // until it re-fetches. A read that hits while stale is a bug.
        let mut sys = CoherentSystem::new(3, CacheConfig::default());
        let mut stale = [[false; 8]; 3];
        let ops = rng.gen_range(1usize..200);
        for _ in 0..ops {
            let p = rng.gen_range(0usize..3);
            let a = rng.gen_range(0usize..8);
            if rng.chance(0.5) {
                sys.write(p, Addr(a));
                for (q, row) in stale.iter_mut().enumerate() {
                    row[a] = q != p;
                }
            } else {
                let had_copy = sys.is_cached(p, Addr(a));
                let before_hits = sys.stats().hits;
                sys.read(p, Addr(a));
                let was_hit = sys.stats().hits > before_hits;
                if was_hit && had_copy {
                    assert!(!stale[p][a], "proc {p} read stale line {a} as a hit");
                }
                stale[p][a] = false;
            }
        }
    });
}

#[test]
fn memory_module_bank_times_never_decrease() {
    check::forall("memory module bank times never decrease", |rng| {
        let mut m = MemoryModule::new(4, Cycle(7));
        let mut per_bank: [Cycle; 4] = [Cycle::ZERO; 4];
        let accesses = rng.gen_range(1usize..100);
        for _ in 0..accesses {
            let addr = Addr(rng.gen_range(0usize..64));
            let done = m.access_time(Cycle::ZERO, addr);
            let bank = m.bank_of(addr);
            assert!(done > per_bank[bank]);
            per_bank[bank] = done;
        }
    });
}

#[test]
fn istructure_port_serves_in_arrival_order() {
    check::forall("istructure port serves in arrival order", |rng| {
        let access = Cycle(rng.gen_range(1u64..20));
        let mut port = IStructurePort::new(access);
        let mut last = Cycle::ZERO;
        let ops = rng.gen_range(1usize..80);
        for _ in 0..ops {
            // Every request arrives at time 0, so each waits for the one
            // before it and then holds the port for its own price.
            let write = rng.chance(0.5);
            let done = port.serve(Cycle::ZERO, write);
            let price = if write {
                Cycle(2 * access.as_u64())
            } else {
                access
            };
            assert_eq!(done, last + price, "port must serve one request at a time");
            last = done;
        }
    });
}

#[test]
fn full_empty_read_returns_latest_write() {
    check::forall("full/empty read returns latest write", |rng| {
        let mut m: FullEmptyMemory<i64> = FullEmptyMemory::new(8);
        let mut shadow: [Option<i64>; 8] = [None; 8];
        let ops = rng.gen_range(1usize..120);
        for _ in 0..ops {
            let a = rng.gen_range(0usize..8);
            let v = rng.gen_range(-50i64..50);
            if rng.chance(0.5) {
                let ok = m.try_write(Addr(a), v).unwrap();
                assert_eq!(ok, shadow[a].is_none());
                if ok {
                    shadow[a] = Some(v);
                }
            } else {
                match m.try_read(Addr(a)).unwrap() {
                    TryReadOutcome::Value(got) => assert_eq!(Some(got), shadow[a]),
                    TryReadOutcome::BusyWait => assert!(shadow[a].is_none()),
                }
            }
        }
    });
}
