//! The output section's mapping function (§2.2.2): "the activity name
//! plus some mapping information uniquely define the runtime tag and
//! processing element number".
//!
//! Both engines that place tokens call one function,
//! [`MappingPolicy::owner`]: the timed machine maps a token to a PE under
//! its configured policy, and the relaxed emulator maps it to a worker
//! under [`MappingPolicy::ByIteration`] — the policy ablation A1 found
//! cheapest once a transfer costs something (about 16 % of tokens go
//! remote, against about 90 % under `Spread`). Owners are deterministic
//! across runs and platforms.
//!
//! Every routed token pays for `owner`, so when the owner count is a
//! power of two, as it usually is, the owner is the hash masked to its
//! low bits, and otherwise the hash modulo the count. The two agree
//! exactly; the mask only saves a 64-bit divide (DESIGN.md §17).

use crate::tag::ActivityName;

/// How the output section's mapping function assigns activities to PEs
/// ("the activity name plus some mapping information uniquely define the
/// runtime tag and processing element number").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingPolicy {
    /// Hash `(u, i)`: one iteration of one activation stays on a PE,
    /// different iterations spread. The default — it exposes loop
    /// parallelism while keeping intra-iteration traffic local.
    ByIteration,
    /// Hash `u` only: a whole activation stays on one PE (procedure-level
    /// parallelism only).
    ByContext,
    /// Hash the full `(u, c, s, i)`: maximal spreading, maximal traffic.
    Spread,
}

impl MappingPolicy {
    /// The owner, among `n`, of the activity `tag`.
    ///
    /// Deliberately *not* the hash [`crate::matching`] uses for bucket
    /// placement: this one mixes a packing of some of the name's fields,
    /// the store folds the full 128-bit name through fibonacci
    /// multiplies. If they agreed, all keys one owner holds would collide
    /// into one probe chain of its table
    /// (`matching::tests::shard_resident_keys_spread_over_buckets` guards
    /// the independence).
    ///
    /// `n` is at least 1: the timed machine refuses a topology with no
    /// ports before it routes anything.
    // Not `#[inline]`: hinting it (with `key` and `mix`) made
    // `relaxed-matmul` slower in two alternating batches of 3 s runs
    // (median ×1.025 and ×1.027).
    pub(crate) fn owner(self, tag: ActivityName, n: usize) -> usize {
        let (h, n) = (mix(self.key(tag)), n as u64);
        let owner = if n.is_power_of_two() {
            h & (n - 1)
        } else {
            h % n
        };
        owner as usize
    }

    /// The packing of `tag`'s fields that this policy hashes.
    fn key(self, tag: ActivityName) -> u64 {
        match self {
            MappingPolicy::ByIteration => (tag.u.0 as u64) << 32 | tag.i.0 as u64,
            MappingPolicy::ByContext => tag.u.0 as u64,
            // Lossy: the fields overlap above 12 bits of `c`, 20 of `s`
            // and 16 of `i`.
            MappingPolicy::Spread => {
                (tag.u.0 as u64) << 48
                    | (tag.c.0 as u64) << 36
                    | (tag.s.0 as u64) << 16
                    | tag.i.0 as u64
            }
        }
    }
}

/// Stafford's mix13 finalizer.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{CodeBlockId, InstrId};
    use crate::tag::{Ctx, Iter};

    const POLICIES: [MappingPolicy; 3] = [
        MappingPolicy::ByIteration,
        MappingPolicy::ByContext,
        MappingPolicy::Spread,
    ];

    fn tag(u: u32, c: u32, s: u32, i: u32) -> ActivityName {
        ActivityName {
            u: Ctx(u),
            c: CodeBlockId(c),
            s: InstrId(s),
            i: Iter(i),
        }
    }

    #[test]
    fn by_iteration_keeps_an_iteration_on_one_owner() {
        for n in [2, 4, 8] {
            for (u, i) in [(0, 1), (1, 1), (3, 7), (1000, 64), (u32::MAX, u32::MAX)] {
                let home = MappingPolicy::ByIteration.owner(tag(u, 0, 0, i), n);
                for c in 0..8 {
                    for s in 0..64 {
                        assert_eq!(
                            MappingPolicy::ByIteration.owner(tag(u, c, s, i), n),
                            home,
                            "n={n} u={u} i={i} c={c} s={s}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn by_iteration_spreads_activations_and_iterations_evenly() {
        for n in [2, 4, 8] {
            let mut load = vec![0usize; n];
            for u in 0..64 {
                for i in 1..=64 {
                    load[MappingPolicy::ByIteration.owner(tag(u, 0, 0, i), n)] += 1;
                }
            }
            let fair = (64 * 64 / n) as f64;
            for (w, &got) in load.iter().enumerate() {
                let skew = got as f64 / fair;
                assert!(
                    (0.75..=1.25).contains(&skew),
                    "n={n}: owner {w} holds {got} of 4096 (fair {fair})"
                );
            }
        }
    }

    /// The mask `owner` takes at a power-of-two count gives exactly the
    /// remainder's owner, at every count up to 64, under every policy,
    /// on fields at both ends of their range.
    #[test]
    fn owner_is_the_hash_modulo_the_owner_count() {
        const FIELDS: [u32; 5] = [0, 1, 0xfff, 0x1_0001, u32::MAX];
        for n in 1..=64usize {
            for p in POLICIES {
                for u in FIELDS {
                    for c in FIELDS {
                        for s in FIELDS {
                            for i in FIELDS {
                                let t = tag(u, c, s, i);
                                let want = (mix(p.key(t)) % n as u64) as usize;
                                assert_eq!(p.owner(t, n), want, "{p:?} n={n} {t:?}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// Owners as the timed machine computed them before the mapping
    /// moved here, `ByIteration`/`ByContext`/`Spread` at 3, 8 and 1021
    /// places. The last rows overflow `Spread`'s packed fields, so they
    /// pin its lossy packing exactly.
    #[test]
    fn owners_match_the_recorded_table() {
        type Row = ((u32, u32, u32, u32), [[usize; 3]; 3]);
        const TABLE: [Row; 9] = [
            ((0, 0, 0, 1), [[1, 0, 1], [5, 0, 5], [782, 0, 782]]),
            ((1, 0, 3, 1), [[2, 1, 0], [1, 5, 7], [1, 782, 236]]),
            ((1, 2, 3, 4), [[0, 1, 2], [5, 5, 4], [449, 782, 104]]),
            ((7, 1, 12, 1), [[1, 1, 0], [2, 4, 1], [98, 151, 484]]),
            ((42, 5, 17, 9), [[0, 2, 2], [4, 2, 6], [452, 978, 929]]),
            ((1000, 3, 40, 17), [[1, 0, 0], [5, 7, 1], [799, 242, 44]]),
            (
                (0xffff, 0xfff, 0xffff, 0xffff),
                [[1, 2, 1], [7, 5, 3], [804, 44, 309]],
            ),
            (
                (0x1_2345, 0x1234, 0x12_3456, 0x1_0001),
                [[1, 0, 0], [3, 5, 5], [818, 70, 969]],
            ),
            (
                (u32::MAX, u32::MAX, u32::MAX, u32::MAX),
                [[0, 1, 0], [3, 4, 3], [381, 876, 381]],
            ),
        ];
        for ((u, c, s, i), owners) in TABLE {
            for (n, expect) in [3, 8, 1021].into_iter().zip(owners) {
                let got = POLICIES.map(|p| p.owner(tag(u, c, s, i), n));
                assert_eq!(got, expect, "tag ({u:#x}, {c:#x}, {s:#x}, {i:#x}) n={n}");
            }
        }
    }
}
