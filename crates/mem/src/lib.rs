//! Memory-subsystem models for the TTDA suite.
//!
//! The paper's two fundamental issues both live in the memory system:
//!
//! - **Issue 1 (latency)** motivates [`MemoryModule`], a banked memory
//!   element with explicit service times, and [`cache`], the demand-cache
//!   and coherence machinery whose scaling pathologies §1.1 dissects
//!   (write-invalidate snooping and a Censier & Feautrier-style
//!   directory, with full traffic accounting);
//! - **Issue 2 (synchronization)** motivates [`IStructure`] — the paper's
//!   proposed memory with *presence bits* and *deferred read lists*
//!   (Fig 2-1) — and its foil, [`FullEmptyMemory`], the Denelcor-HEP-style
//!   memory of footnote 2 whose unsatisfiable requests busy-wait instead
//!   of deferring.
//!
//! # Example: the Fig 2-1 deferred read
//!
//! ```
//! use ttda_mem::{Addr, IStructure, ReadOutcome};
//!
//! let mut m: IStructure<i64, &str> = IStructure::new(8);
//! // A consumer reads slot 3 before the producer has written it: the
//! // request is set aside on the deferred list, not refused.
//! assert_eq!(m.read(Addr(3), "instruction x").unwrap(), ReadOutcome::Deferred);
//! // When the write arrives, the pending reader is released with the value.
//! let released = m.write(Addr(3), 42).unwrap();
//! assert_eq!(released, vec!["instruction x"]);
//! assert_eq!(m.read(Addr(3), "later").unwrap(), ReadOutcome::Value(42));
//! ```

#![warn(missing_docs)]

pub mod cache;
mod fullempty;
mod istore;
mod module;
mod packed;
mod shard;

pub use fullempty::{FullEmptyError, FullEmptyMemory, TryReadOutcome};
pub use istore::{EnumIStructure, IStructureError, IStructurePort, Presence, ReadOutcome};
pub use module::{Addr, MemoryModule};
pub use packed::PackedIStructure;
pub use shard::{shard_of, IStructureShard};

/// The I-structure store the engines run on.
///
/// Since the packed-engine rework this is the bitmap/arena
/// implementation ([`PackedIStructure`]); the original enum-cell store
/// survives as [`EnumIStructure`], the reference model the packed
/// engine is property-checked against.
pub type IStructure<T, R = u64> = PackedIStructure<T, R>;
