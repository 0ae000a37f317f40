//! E12: the Section-3 emulation facility's hypercube network.

use ttda_net::{Fabric, FabricConfig, Hypercube, NodeId, Topology};
use ttda_sim::stats::Histogram;
use ttda_sim::table::{f3, Table};
use ttda_sim::{Cycle, SimRng};

use super::section;

fn mean_hops(cube: &Hypercube) -> (f64, usize, usize) {
    let n = cube.ports();
    let mut total = 0usize;
    let mut worst = 0usize;
    let mut unreachable = 0usize;
    for a in 0..n {
        for b in 0..n {
            match cube.hops(NodeId(a), NodeId(b)) {
                Ok(h) => {
                    total += h;
                    worst = worst.max(h);
                }
                Err(_) => unreachable += 1,
            }
        }
    }
    (total as f64 / (n * n) as f64, worst, unreachable)
}

/// E12: table-based routing, fault tolerance and partitioning on the
/// 7-cube, and its bit-serial links under random traffic.
pub fn e12() -> String {
    let mut out = section(
        "e12",
        "The 7-dimensional hypercube emulation network",
        "\"a seven dimensional hypercube with each connection implemented as a 4 \
         megabyte per second bit-serial link ... exploiting the redundancy in the \
         hypercube network for message routing and for fault tolerance. Table-based \
         routing also allows the facility to be statically partitioned\" (§3)",
    );

    // Fault sweep: kill k random links, re-route, measure stretch.
    let mut t = Table::new(&[
        "failed links",
        "mean hops",
        "worst hops",
        "unreachable pairs",
        "stretch vs fault-free",
    ]);
    let mut rng = SimRng::seed(226); // the memo number
    let mut cube = Hypercube::new(7).expect("7-cube");
    let (base_mean, _, _) = mean_hops(&cube);
    let mut killed = 0usize;
    for target in [0usize, 1, 2, 4, 8, 16, 32] {
        while killed < target {
            let a = NodeId(rng.gen_range(0..cube.ports()));
            let d = rng.gen_range(0..cube.dim());
            let b = cube.neighbor(a, d);
            if cube.fail_link(a, b).is_ok() {
                killed += 1;
            }
        }
        let (mean, worst, unreachable) = mean_hops(&cube);
        t.row_owned(vec![
            target.to_string(),
            f3(mean),
            worst.to_string(),
            unreachable.to_string(),
            format!("{:.3}x", mean / base_mean),
        ]);
    }
    out.push_str(&t.to_string());

    // Partitioning: split into independent emulation machines.
    let mut t2 = Table::new(&[
        "partitions",
        "machine size",
        "intra reachable",
        "cross reachable",
    ]);
    for split in [0usize, 1, 2] {
        let mut cube = Hypercube::new(7).expect("7-cube");
        cube.partition(split).expect("split ok");
        let n = cube.ports();
        let sub = n >> split;
        let intra = cube.hops(NodeId(0), NodeId(sub - 1)).is_ok();
        let cross = if split == 0 {
            "n/a".to_string()
        } else {
            cube.hops(NodeId(0), NodeId(sub)).is_ok().to_string()
        };
        t2.row_owned(vec![
            (1 << split).to_string(),
            sub.to_string(),
            intra.to_string(),
            cross,
        ]);
    }
    out.push_str("\nStatic partitioning:\n");
    out.push_str(&t2.to_string());

    // Bandwidth: saturate with random traffic on the bit-serial links.
    // Every packet leaves at cycle 0, so the arrival time `send` returns
    // is its latency (the fabric keeps only packet and hop counts).
    let mut t3 = Table::new(&[
        "offered packets",
        "makespan (cy)",
        "mean latency",
        "p95 latency",
        "hottest link",
    ]);
    for load in [64usize, 256, 1024] {
        let cube = Hypercube::new(7).expect("7-cube");
        let mut fabric = Fabric::new(cube, FabricConfig::bit_serial_4mbs());
        let mut rng = SimRng::seed(1983);
        let mut latency = Histogram::new(64, 8);
        for _ in 0..load {
            let a = NodeId(rng.gen_range(0..128));
            let b = NodeId(rng.gen_range(0..128));
            latency.record(fabric.send(Cycle::ZERO, a, b).as_u64());
        }
        t3.row_owned(vec![
            load.to_string(),
            latency.max().unwrap_or(0).to_string(),
            f3(latency.mean().unwrap_or(0.0)),
            latency.percentile(95.0).unwrap_or(0).to_string(),
            fabric
                .hottest_link()
                .map(|(_, n)| n)
                .unwrap_or(0)
                .to_string(),
        ]);
    }
    out.push_str("\nBit-serial (4 MB/s-equivalent) link saturation:\n");
    out.push_str(&t3.to_string());
    out.push_str(
        "\nShape check: the cube reroutes around tens of failed links with modest path\n\
         stretch and no lost connectivity (until a node is fully cut off); partitions\n\
         are perfectly isolated; and queueing latency grows smoothly with offered\n\
         load — the properties Section 3 bought with table-based routing.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stretch_is_small_for_few_faults() {
        let mut cube = Hypercube::new(5).unwrap();
        let (base, _, _) = mean_hops(&cube);
        cube.fail_link(NodeId(0), NodeId(1)).unwrap();
        cube.fail_link(NodeId(2), NodeId(6)).unwrap();
        let (faulty, _, unreachable) = mean_hops(&cube);
        assert_eq!(unreachable, 0);
        assert!(faulty / base < 1.1, "stretch {}", faulty / base);
    }

    #[test]
    fn partitions_isolate() {
        let mut cube = Hypercube::new(4).unwrap();
        cube.partition(2).unwrap(); // four 4-node machines
        assert!(cube.hops(NodeId(0), NodeId(3)).is_ok());
        assert!(cube.hops(NodeId(0), NodeId(4)).is_err());
        assert!(cube.hops(NodeId(5), NodeId(6)).is_ok());
    }
}
