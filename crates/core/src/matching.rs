//! The specialized waiting–matching store (§2.2.2).
//!
//! The paper's answer to Issue 2 is an *associative* waiting–matching
//! section sitting on every token's path, which only works if a match
//! probe is nearly free. The generic `HashMap<ActivityName,
//! Vec<Option<Value>>>` we started with pays SipHash over a four-field
//! struct key plus one heap allocation per parked activity; this module
//! replaces it with a purpose-built open-addressing table:
//!
//! - the `(u, c, s, i)` activity name packs into two `u64` words
//!   ([`PackedName`]) and is hashed by two fibonacci multiplies and a
//!   mix13-style finalizer — no external hasher crate;
//! - operands for arity ≤ 3 (every opcode except wide `Apply`) live
//!   *inline* in the entry, so parking a token writes a slot in place —
//!   no per-activity `Vec`;
//! - matched entries return their arena slot to a free list, so
//!   steady-state matching performs **zero** heap allocation — wide
//!   entries (more than three operands: a wide `Apply` or `LoopEntry`)
//!   keep their operands in blocks of one shared spill pool, recycled
//!   by arity, and [`absorb`](MatchingStore::absorb) writes a completed
//!   set into the caller's reused buffer.
//!
//! The store is observationally identical to the `HashMap` version:
//! [`len`](MatchingStore::len) (the traced occupancy and
//! `peak_matching` source) counts exactly the activities with at least
//! one parked operand, and a completed match yields operands in port
//! order. `tests/properties.rs` drives it against a `HashMap` reference
//! model to pin that equivalence down.
//!
//! The hash here is deliberately *not* the placement hash of
//! `MappingPolicy::owner`: a token's relaxed worker or timed PE is
//! chosen by mix13 over a packing of some of the name's fields, while
//! slots use fibonacci folds of the full 128-bit name. If the two
//! agreed, every key routed to one owner would also land in one probe
//! chain of that owner's table, degenerating to a linked list. DESIGN.md
//! §8 spells out the argument.

use crate::tag::{ActivityName, Port};
use crate::value::Value;

/// Operand slots stored inline per entry; `OpCode::arity()` exceeds this
/// only for an `Apply` or `LoopEntry` with more than three operands,
/// which spills to a block of the store's spill pool.
const INLINE: usize = 3;

/// Empty bucket sentinel in the index table. Unambiguous: a live word
/// carries an arena index in its low half, and the arena can never grow
/// to `u32::MAX` entries.
const EMPTY: u64 = u64::MAX;

/// A live index-table word: the low 32 bits of the slot hash over the
/// arena index. Probes compare the cached hash fragment before touching
/// the (much larger) entry arena, and deletion/growth re-derive a
/// bucket's ideal position from the fragment alone — the table is the
/// only memory the probe machinery walks.
#[inline]
fn word(hash: u64, idx: u32) -> u64 {
    (hash as u32 as u64) << 32 | idx as u64
}

/// An activity name packed into two machine words: `hi = u ‖ c`,
/// `lo = s ‖ i`. Equality on the packed form is exactly equality on the
/// four fields, so the store never needs to keep the unpacked struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedName {
    hi: u64,
    lo: u64,
}

impl PackedName {
    /// Packs the four 32-bit fields, losslessly.
    #[inline]
    pub fn pack(tag: ActivityName) -> Self {
        PackedName {
            hi: (tag.u.0 as u64) << 32 | tag.c.0 as u64,
            lo: (tag.s.0 as u64) << 32 | tag.i.0 as u64,
        }
    }

    /// Recovers the activity name (the packing is a bijection).
    #[inline]
    pub fn unpack(self) -> ActivityName {
        ActivityName {
            u: crate::tag::Ctx((self.hi >> 32) as u32),
            c: crate::graph::CodeBlockId(self.hi as u32),
            s: crate::graph::InstrId((self.lo >> 32) as u32),
            i: crate::tag::Iter(self.lo as u32),
        }
    }
}

/// The slot hash: fibonacci multiplies fold the two words, a mix13-style
/// finalizer avalanches the result. Structurally unrelated to
/// `MappingPolicy::owner` (mix13 over a packing of some of the name's
/// fields), so the set of keys one relaxed worker or timed PE owns still
/// spreads over its store's buckets.
#[inline]
fn slot_hash(key: PackedName) -> u64 {
    let mut x = key.hi.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(32)
        ^ key.lo.wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    x = (x ^ (x >> 30)).wrapping_mul(0x2545_f491_4f6c_dd1d);
    x ^ (x >> 28)
}

/// A parked activity: which operand ports have arrived, and their values.
#[derive(Debug)]
struct Entry {
    key: PackedName,
    /// Operand count of the target instruction (`OpCode::arity()`).
    arity: u8,
    /// For inline entries: a bitmask of filled ports. For spilled
    /// entries: the count of filled ports.
    filled: u8,
    /// Inline operand slots (valid for ports `< arity` when the mask bit
    /// is set). `Value` is `Copy`, so unfilled slots just hold `Unit`.
    slots: [Value; INLINE],
    /// For `arity > INLINE`: where this entry's block of `arity`
    /// operand slots starts in the store's spill pool.
    spill: u32,
}

/// Error from [`MatchingStore::absorb`]: the token's port index is not a
/// valid operand slot of the target instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortOutOfRange;

/// The operand slots an instruction fills without tokens, written into
/// a fresh entry before its first token: the literal, and the
/// loop-constant operands with the constants of the token's activation.
/// `Preset::default()` fills none.
#[derive(Debug, Clone, Copy, Default)]
pub struct Preset<'a> {
    /// The instruction's literal operand.
    pub literal: Option<(Port, Value)>,
    /// `(port, slot)` loop-constant operands.
    pub consts: &'a [(Port, u8)],
    /// The activation's constants; every slot in `consts` indexes it.
    pub values: &'a [Value],
}

/// The open-addressing waiting–matching store. See the module docs.
///
/// Layout: a power-of-two index table of `hash fragment ‖ arena slot`
/// words (linear probing, backward-shift deletion — no tombstones), an
/// entry arena, and a free list of recycled arena slots. Load is kept
/// below 7/8.
#[derive(Debug)]
pub struct MatchingStore {
    /// Bucket → `hash fragment ‖ arena index` (see [`word`]), or
    /// [`EMPTY`].
    table: Vec<u64>,
    /// Power-of-two bucket-index mask (`table.len() - 1`).
    mask: usize,
    /// Slot arena; freed slots are reused via `free`.
    entries: Vec<Entry>,
    /// Recycled arena indices.
    free: Vec<u32>,
    /// Operand slots of wide entries, one block of `arity` slots each.
    spill: Vec<Option<Value>>,
    /// Recycled spill blocks, indexed by arity.
    spill_free: Vec<Vec<u32>>,
    /// Live (parked) activity count — the occupancy the traces report.
    len: usize,
    /// Highest `len` ever reached (since the last
    /// [`MatchingStore::reset_high_water`]).
    high_water: usize,
}

impl Default for MatchingStore {
    fn default() -> Self {
        MatchingStore::new()
    }
}

impl MatchingStore {
    /// Initial bucket count (must be a power of two).
    const INITIAL_BUCKETS: usize = 32;

    /// An empty store.
    pub fn new() -> Self {
        MatchingStore {
            table: vec![EMPTY; Self::INITIAL_BUCKETS],
            mask: Self::INITIAL_BUCKETS - 1,
            entries: Vec::new(),
            free: Vec::new(),
            spill: Vec::new(),
            spill_free: Vec::new(),
            len: 0,
            high_water: 0,
        }
    }

    /// Number of parked activities (identical to the old map's `len()`;
    /// this is the number every occupancy trace and `peak_matching`
    /// sample observes).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no activity is waiting.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Highest occupancy the store has reached since construction (or
    /// the last [`MatchingStore::reset_high_water`]) — an O(1) counter
    /// maintained at the single insertion site, so backpressure policies
    /// (the `ttda-workloads` service scheduler) can poll it instead of
    /// scanning. Under the parallel backend each shard keeps its own
    /// store, and `EmuResult::peak_matching` sums the shards' peaks — a
    /// schedule-dependent approximation; the sequential interpreter
    /// reports the exact occupancy.
    #[inline]
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Restarts high-water tracking from the current occupancy, so a
    /// long-lived store can be observed per burst.
    #[inline]
    pub fn reset_high_water(&mut self) {
        self.high_water = self.len;
    }

    /// Visits every parked activity name. Replaces the `HashMap::keys`
    /// scans the diagnostics (stranded-token report, k-bounded
    /// oldest-iteration probe) used to run; iteration order is
    /// unspecified, as it was for the map.
    pub fn for_each_key(&self, mut f: impl FnMut(ActivityName)) {
        for &w in &self.table {
            if w != EMPTY {
                f(self.entries[w as u32 as usize].key.unpack());
            }
        }
    }

    /// Absorbs one token for `tag`, whose target instruction has
    /// `arity` operand slots, some of them filled without tokens by
    /// `preset`. Mirrors the original `HashMap` transition function
    /// exactly: a fresh activity parks with the preset slots pre-filled;
    /// a token for an already-filled port overwrites the value; when all
    /// `arity` ports are filled the entry is recycled and the operands
    /// are written, in port order, into `out` (cleared first). Returns
    /// whether the token completed the set; `out` is untouched if not.
    /// With `out` reused across calls this never allocates, whatever
    /// the arity.
    ///
    /// Every preset port must be below `arity` (checked in debug
    /// builds only) and every constant slot an index of
    /// `preset.values`.
    ///
    /// # Panics
    ///
    /// If a constant slot is not an index of `preset.values`.
    #[inline]
    pub fn absorb(
        &mut self,
        tag: ActivityName,
        arity: u8,
        preset: &Preset<'_>,
        port: Port,
        value: Value,
        out: &mut Vec<Value>,
    ) -> Result<bool, PortOutOfRange> {
        let Some(idx) = self.match_token(tag, arity, preset, port, value)? else {
            return Ok(false);
        };
        out.clear();
        let e = &self.entries[idx as usize];
        let arity = e.arity as usize;
        if arity <= INLINE {
            out.extend_from_slice(&e.slots[..arity]);
        } else {
            let block = &self.spill[e.spill as usize..e.spill as usize + arity];
            out.extend(block.iter().map(|o| o.expect("all ports filled")));
        }
        self.recycle(idx);
        Ok(true)
    }

    /// Returns a completed entry's arena slot, and its spill block if it
    /// has one, to their free lists.
    #[inline]
    fn recycle(&mut self, idx: u32) {
        self.free.push(idx);
        let e = &self.entries[idx as usize];
        let arity = e.arity as usize;
        if arity > INLINE {
            if self.spill_free.len() <= arity {
                self.spill_free.resize_with(arity + 1, Vec::new);
            }
            self.spill_free[arity].push(e.spill);
        }
    }

    /// The transition function: parks the token, or returns the arena
    /// index of the entry it completed — already unlinked from the
    /// table, not yet recycled.
    #[inline]
    fn match_token(
        &mut self,
        tag: ActivityName,
        arity: u8,
        preset: &Preset<'_>,
        port: Port,
        value: Value,
    ) -> Result<Option<u32>, PortOutOfRange> {
        if port.0 >= arity {
            // The reference implementation reported the bad port without
            // inserting a fresh entry only if the activity was already
            // parked; since the run aborts on this error and the
            // occupancy is never observed again, we simply don't park.
            return Err(PortOutOfRange);
        }
        let key = PackedName::pack(tag);
        let hash = slot_hash(key);

        // Probe for the key. The fragment comparison keeps mismatching
        // probes (and the removal shift below) inside the index table.
        let frag = hash as u32;
        let mut pos = hash as usize & self.mask;
        loop {
            let w = self.table[pos];
            if w == EMPTY {
                break;
            }
            if (w >> 32) as u32 == frag {
                let e = &mut self.entries[w as u32 as usize];
                if e.key == key {
                    // Existing entry: fill the port.
                    Self::fill(e, &mut self.spill, port, value);
                    if Self::complete(e) {
                        let idx = w as u32;
                        self.remove_at(pos);
                        return Ok(Some(idx));
                    }
                    return Ok(None);
                }
            }
            pos = (pos + 1) & self.mask;
        }

        // Fresh activity. Build the entry as the map's `or_insert_with`
        // closure did: preset pre-filled, then this token's port.
        let idx = self.alloc_entry(key, arity, preset);
        let e = &mut self.entries[idx as usize];
        Self::fill(e, &mut self.spill, port, value);
        if Self::complete(e) {
            // Immediate completion (e.g. arity 2 with a literal): the
            // map inserted then removed, netting zero occupancy; skip
            // the table entirely.
            return Ok(Some(idx));
        }
        self.table[pos] = word(hash, idx);
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
        if self.len * 8 >= self.table.len() * 7 {
            self.grow();
        }
        Ok(None)
    }

    /// Fills `port` of `e`, whose spill block (if wide) lives in `pool`
    /// (idempotent on the fill count, like writing `Some` over `Some` in
    /// the reference model).
    #[inline]
    fn fill(e: &mut Entry, pool: &mut [Option<Value>], port: Port, value: Value) {
        let p = port.0 as usize;
        if (e.arity as usize) <= INLINE {
            e.slots[p] = value;
            e.filled |= 1 << p;
        } else {
            let slot = &mut pool[e.spill as usize + p];
            if slot.is_none() {
                e.filled += 1;
            }
            *slot = Some(value);
        }
    }

    /// Whether all `arity` ports of `e` are filled.
    #[inline]
    fn complete(e: &Entry) -> bool {
        if (e.arity as usize) <= INLINE {
            e.filled == (1u8 << e.arity) - 1
        } else {
            e.filled == e.arity
        }
    }

    /// Takes a slot from the free list or grows the arena (and, for a
    /// wide entry, a spill block of its arity from that block free list
    /// or the end of the pool), and initializes it as the reference
    /// model's `or_insert_with` closure would.
    fn alloc_entry(&mut self, key: PackedName, arity: u8, preset: &Preset<'_>) -> u32 {
        let idx = match self.free.pop() {
            Some(idx) => {
                let e = &mut self.entries[idx as usize];
                e.key = key;
                e.arity = arity;
                e.filled = 0;
                idx
            }
            None => {
                let idx = self.entries.len() as u32;
                self.entries.push(Entry {
                    key,
                    arity,
                    filled: 0,
                    slots: [Value::Unit; INLINE],
                    spill: 0,
                });
                idx
            }
        };
        let a = arity as usize;
        if a > INLINE {
            let recycled = self.spill_free.get_mut(a).and_then(Vec::pop);
            let start = match recycled {
                Some(start) => start as usize,
                None => {
                    self.spill.resize(self.spill.len() + a, None);
                    self.spill.len() - a
                }
            };
            self.spill[start..start + a].fill(None);
            self.entries[idx as usize].spill = start as u32;
        }
        // A preset port ≥ arity would set a fill bit that never lets
        // an inline entry complete.
        let e = &mut self.entries[idx as usize];
        if let Some((p, lv)) = preset.literal {
            debug_assert!(p.0 < arity, "literal port {} ≥ arity {arity}", p.0);
            Self::fill(e, &mut self.spill, p, lv);
        }
        for &(p, slot) in preset.consts {
            debug_assert!(p.0 < arity, "constant port {} ≥ arity {arity}", p.0);
            Self::fill(e, &mut self.spill, p, preset.values[slot as usize]);
        }
        idx
    }

    /// Unlinks the bucket at `pos` (the caller recycles its arena slot)
    /// and backward-shifts the following probe chain so lookups never
    /// need tombstones.
    fn remove_at(&mut self, pos: usize) {
        self.len -= 1;
        let mut hole = pos;
        self.table[hole] = EMPTY;
        let mut cur = (pos + 1) & self.mask;
        while self.table[cur] != EMPTY {
            let ideal = (self.table[cur] >> 32) as usize & self.mask;
            // An entry may slide back into the hole only if its ideal
            // bucket is at or before the hole in probe order.
            if cur.wrapping_sub(ideal) & self.mask >= cur.wrapping_sub(hole) & self.mask {
                self.table[hole] = self.table[cur];
                self.table[cur] = EMPTY;
                hole = cur;
            }
            cur = (cur + 1) & self.mask;
        }
    }

    /// Doubles the bucket table and re-files every live word by its
    /// cached hash fragment.
    fn grow(&mut self) {
        let new_cap = self.table.len() * 2;
        let old = std::mem::replace(&mut self.table, vec![EMPTY; new_cap]);
        self.mask = new_cap - 1;
        for w in old {
            if w == EMPTY {
                continue;
            }
            let mut pos = (w >> 32) as usize & self.mask;
            while self.table[pos] != EMPTY {
                pos = (pos + 1) & self.mask;
            }
            self.table[pos] = w;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{CodeBlockId, InstrId};
    use crate::tag::{Ctx, Iter};

    fn tag(u: u32, c: u32, s: u32, i: u32) -> ActivityName {
        ActivityName {
            u: Ctx(u),
            c: CodeBlockId(c),
            s: InstrId(s),
            i: Iter(i),
        }
    }

    #[test]
    fn pack_roundtrip() {
        let t = tag(7, u32::MAX, 3, 12345);
        assert_eq!(PackedName::pack(t).unpack(), t);
    }

    /// Absorbs one token through `preset`: `Some(operands)` if it
    /// completed the set.
    fn step(
        m: &mut MatchingStore,
        t: ActivityName,
        arity: u8,
        preset: &Preset<'_>,
        port: u8,
        value: Value,
    ) -> Result<Option<Vec<Value>>, PortOutOfRange> {
        let mut out = Vec::new();
        let done = m.absorb(t, arity, preset, Port(port), value, &mut out)?;
        Ok(done.then_some(out))
    }

    /// [`step`] with no preset and an integer operand.
    fn int(
        m: &mut MatchingStore,
        t: ActivityName,
        arity: u8,
        port: u8,
        v: i64,
    ) -> Result<Option<Vec<Value>>, PortOutOfRange> {
        step(m, t, arity, &Preset::default(), port, Value::Int(v))
    }

    #[test]
    fn two_operand_match() {
        let mut m = MatchingStore::new();
        let t = tag(1, 0, 4, 1);
        assert_eq!(int(&mut m, t, 2, 0, 3), Ok(None));
        assert_eq!(m.len(), 1);
        assert_eq!(
            int(&mut m, t, 2, 1, 9),
            Ok(Some(vec![Value::Int(3), Value::Int(9)]))
        );
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn literal_prefill_and_immediate_completion() {
        let mut m = MatchingStore::new();
        let t = tag(1, 0, 4, 1);
        // arity 2 with a literal at port 1: the single token completes
        // the set without the store's occupancy ever rising.
        let preset = Preset {
            literal: Some((Port(1), Value::Int(40))),
            ..Preset::default()
        };
        assert_eq!(
            step(&mut m, t, 2, &preset, 0, Value::Int(2)),
            Ok(Some(vec![Value::Int(2), Value::Int(40)]))
        );
        assert_eq!(m.len(), 0);
        assert_eq!(m.high_water(), 0);
    }

    #[test]
    fn port_overwrite_is_idempotent_on_occupancy() {
        let mut m = MatchingStore::new();
        let t = tag(1, 0, 4, 1);
        assert_eq!(int(&mut m, t, 3, 0, 1), Ok(None));
        assert_eq!(int(&mut m, t, 3, 0, 2), Ok(None));
        assert_eq!(m.len(), 1);
        assert_eq!(int(&mut m, t, 3, 1, 3), Ok(None));
        assert_eq!(
            int(&mut m, t, 3, 2, 4),
            Ok(Some(vec![Value::Int(2), Value::Int(3), Value::Int(4)]))
        );
    }

    #[test]
    fn bad_port_is_rejected_without_parking() {
        let mut m = MatchingStore::new();
        let t = tag(1, 0, 4, 1);
        assert_eq!(int(&mut m, t, 2, 2, 1), Err(PortOutOfRange));
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn spill_arity_beyond_inline() {
        let mut m = MatchingStore::new();
        let t = tag(9, 2, 7, 1);
        for p in 0..5u8 {
            assert_eq!(int(&mut m, t, 6, p, p as i64), Ok(None));
        }
        assert_eq!(m.len(), 1);
        let want: Vec<Value> = (0..6).map(Value::Int).collect();
        assert_eq!(int(&mut m, t, 6, 5, 5), Ok(Some(want)));
        assert_eq!(m.len(), 0);
        // The spill block is recycled on its arity's free list.
        assert_eq!(int(&mut m, t, 6, 0, 1), Ok(None));
        assert_eq!(m.spill.len(), 6);
    }

    #[test]
    fn presets_fill_constants_and_wide_storage_is_reused() {
        let mut m = MatchingStore::new();
        let mut out = vec![Value::Int(99)];
        let consts = [(Port(1), 2u8), (Port(4), 0u8)];
        let values = [Value::Int(10), Value::Int(11), Value::Int(12)];
        let preset = Preset {
            literal: Some((Port(2), Value::Bool(true))),
            consts: &consts,
            values: &values,
        };
        for round in 0..3 {
            let t = tag(round, 0, 9, 1);
            assert_eq!(
                m.absorb(t, 5, &preset, Port(0), Value::Int(-1), &mut out),
                Ok(false)
            );
            if round == 0 {
                // A token that parks leaves the caller's buffer alone.
                assert_eq!(out, [Value::Int(99)]);
            }
            assert_eq!(
                m.absorb(t, 5, &preset, Port(3), Value::Int(-4), &mut out),
                Ok(true)
            );
            assert_eq!(
                out,
                [
                    Value::Int(-1),
                    Value::Int(12),
                    Value::Bool(true),
                    Value::Int(-4),
                    Value::Int(10)
                ]
            );
            assert!(m.is_empty());
        }
        // Every round recycled the one entry and the one spill block it
        // used.
        assert_eq!(m.entries.len(), 1);
        assert_eq!(m.spill.len(), 5);
        assert_eq!(m.spill_free[5], [0]);
        // A narrow preset completing on its first token never parks.
        let narrow = Preset {
            consts: &consts[..1],
            values: &values,
            ..Preset::default()
        };
        let t = tag(7, 0, 3, 1);
        assert_eq!(
            m.absorb(t, 2, &narrow, Port(0), Value::Int(5), &mut out),
            Ok(true)
        );
        assert_eq!(out, [Value::Int(5), Value::Int(12)]);
        assert_eq!(m.high_water(), 1);
    }

    #[test]
    fn growth_and_backward_shift_keep_all_keys_findable() {
        let mut m = MatchingStore::new();
        let n = 500u32;
        for k in 0..n {
            assert_eq!(
                int(&mut m, tag(k, 1, 2, 1), 2, 0, k as i64),
                Ok(None),
                "key {k}"
            );
        }
        assert_eq!(m.len(), n as usize);
        let mut seen = 0usize;
        m.for_each_key(|t| {
            assert_eq!((t.c.0, t.s.0, t.i.0), (1, 2, 1));
            seen += 1;
        });
        assert_eq!(seen, n as usize);
        // Remove every third key (forces backward shifts), then verify
        // the rest still match correctly.
        for k in (0..n).step_by(3) {
            let r = int(&mut m, tag(k, 1, 2, 1), 2, 1, -1);
            assert!(matches!(r, Ok(Some(_))), "key {k}");
        }
        for k in 0..n {
            if k % 3 == 0 {
                continue;
            }
            assert_eq!(
                int(&mut m, tag(k, 1, 2, 1), 2, 1, -1),
                Ok(Some(vec![Value::Int(k as i64), Value::Int(-1)])),
                "key {k}"
            );
        }
        assert_eq!(m.len(), 0);
    }

    /// The O(1) `high_water` counter must agree with a `HashMap`
    /// reference model of the store (park on first token, recycle on
    /// completion) whose running-size maximum is recomputed from scratch
    /// after every absorb, across a randomized stream of arities,
    /// literals, repeats and completions.
    #[test]
    fn high_water_matches_reference_model() {
        use std::collections::{HashMap, HashSet};
        let mut rng = ttda_sim::SimRng::seed(0x5eed_5e44);
        let mut m = MatchingStore::new();
        let mut model: HashMap<ActivityName, (u8, HashSet<u8>)> = HashMap::new();
        let mut model_high = 0usize;
        for _ in 0..5000 {
            let t = tag(rng.gen_range(0u32..96), 1, rng.gen_range(0u32..4), 1);
            // Arity and literal are properties of the target instruction,
            // so derive them from the tag, never at random per token.
            let arity = 1 + ((t.u.0 + t.s.0) % 5) as u8;
            let literal = if arity > 1 && t.s.0.is_multiple_of(2) {
                Some((Port(arity - 1), Value::Int(-7)))
            } else {
                None
            };
            let port = if rng.chance(1.0 / 16.0) {
                Port(arity) // deliberately out of range
            } else {
                Port(rng.gen_range(0u8..arity))
            };
            let preset = Preset {
                literal,
                ..Preset::default()
            };
            let got = step(&mut m, t, arity, &preset, port.0, Value::Int(1));
            if port.0 >= arity {
                // Rejected before parking: the model is untouched.
                assert_eq!(got, Err(PortOutOfRange));
            } else {
                let parked = model.entry(t).or_insert_with(|| {
                    let mut f = HashSet::new();
                    if let Some((p, _)) = literal {
                        f.insert(p.0);
                    }
                    (arity, f)
                });
                parked.1.insert(port.0);
                if parked.1.len() == parked.0 as usize {
                    model.remove(&t);
                    assert!(matches!(got, Ok(Some(_))));
                } else {
                    assert_eq!(got, Ok(None));
                }
            }
            model_high = model_high.max(model.len());
            assert_eq!(m.len(), model.len());
            assert_eq!(m.high_water(), model_high);
        }
        assert!(m.high_water() > 0, "stream never parked anything");
        // Reset restarts tracking from the *current* occupancy.
        m.reset_high_water();
        assert_eq!(m.high_water(), m.len());
        assert!(m.high_water() < model_high || m.len() == model_high);
    }

    /// Keys confined to one owner of the engines' placement function
    /// must still spread across this store's buckets: the slot hash may
    /// not be correlated with the owner hash, or per-owner tables
    /// degenerate into one probe chain. The keys vary both `u` and `i`,
    /// the fields relaxed mode's `ByIteration` placement hashes.
    #[test]
    fn shard_resident_keys_spread_over_buckets() {
        use crate::MappingPolicy;
        let workers = 4usize;
        for policy in [
            MappingPolicy::ByIteration,
            MappingPolicy::ByContext,
            MappingPolicy::Spread,
        ] {
            let mut buckets = std::collections::HashSet::new();
            let mut in_shard = 0usize;
            for u in 0..64u32 {
                for i in 1..=64u32 {
                    let t = tag(u, 1, 2, i);
                    if policy.owner(t, workers) != 0 {
                        continue;
                    }
                    in_shard += 1;
                    let h = slot_hash(PackedName::pack(t));
                    buckets.insert(h as usize & (1024 - 1));
                }
            }
            assert!(
                in_shard > 500,
                "{policy:?} should own ~1/4 of keys, got {in_shard}"
            );
            // With ~1000 keys over 1024 buckets, a degenerate correlation
            // would collapse to a handful of buckets; a sound hash fills
            // most of the table (E[distinct] ≈ 1024·(1−e^{−1}) ≈ 647).
            assert!(
                buckets.len() > 400,
                "{policy:?}: owner-0 keys collapsed onto {} buckets",
                buckets.len()
            );
        }
    }
}
