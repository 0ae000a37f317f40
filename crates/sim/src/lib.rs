//! Deterministic discrete-event simulation kernel for the TTDA suite.
//!
//! This crate is the substrate on which every machine model in the
//! reproduction of Arvind & Iannucci's *A Critique of Multiprocessing von
//! Neumann Style* (ISCA 1983) is built. It provides:
//!
//! - [`Cycle`]: a newtype for simulated time measured in machine cycles;
//! - [`EventQueue`]: a stable (FIFO-among-ties) priority queue of timed
//!   events, the heart of event-driven models — a 64-slot time wheel
//!   with O(1) push and pop for events due within 64 cycles of the
//!   latest pop, backed by a binary heap for the rest;
//! - [`Engine`]: a convenience driver that pops events and hands them to a
//!   handler until quiescence or a time limit;
//! - [`stats`]: counters, utilization trackers, histograms and time-series
//!   used to produce every number reported in `EXPERIMENTS.md`;
//! - [`SimRng`]: a seeded, reproducible random-number source;
//! - [`Arrivals`]: deterministic stochastic inter-arrival generators for
//!   open-loop service workloads;
//! - [`check`]: a miniature property-testing harness driven by [`SimRng`]
//!   seeds, with pinned-regression replay;
//! - [`table`]: an aligned text-table printer for experiment output.
//!
//! # Determinism
//!
//! Everything here is deterministic: the event queue breaks ties by
//! insertion order, and randomness only enters through [`SimRng`], which is
//! always explicitly seeded. The queue's wheel and heap together pop in
//! exactly the order one heap over `(time, push order)` would; the
//! invariant that guarantees it is documented on [`EventQueue`]. Two runs with the same seed produce identical
//! cycle-for-cycle behaviour, which is what makes the experiment tables in
//! the repository reproducible.
//!
//! # Example
//!
//! ```
//! use ttda_sim::{Cycle, EventQueue};
//!
//! let mut q = EventQueue::new();
//! q.push(Cycle(10), "b");
//! q.push(Cycle(5), "a");
//! q.push(Cycle(10), "c"); // same time as "b": FIFO order preserved
//!
//! assert_eq!(q.pop(), Some((Cycle(5), "a")));
//! assert_eq!(q.pop(), Some((Cycle(10), "b")));
//! assert_eq!(q.pop(), Some((Cycle(10), "c")));
//! assert_eq!(q.pop(), None);
//! ```

#![warn(missing_docs)]

mod arrivals;
pub mod check;
mod engine;
mod event;
mod rng;
pub mod stats;
pub mod table;
mod time;

pub use arrivals::Arrivals;
pub use engine::{Engine, StepOutcome};
pub use event::EventQueue;
pub use rng::{SimRng, Zipf};
pub use time::Cycle;
