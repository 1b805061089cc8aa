//! Core primitives shared by every layer of the Memento full-system simulator.
//!
//! This crate is the foundation of a trace-driven timing simulator used to
//! reproduce *Memento: Architectural Support for Ephemeral Memory Management
//! in Serverless Environments* (MICRO '23). It deliberately contains no
//! policy: just the vocabulary types every other crate speaks.
//!
//! - [`addr`] — strongly-typed virtual/physical addresses and page/line
//!   geometry constants.
//! - [`cycles`] — the [`Cycles`](cycles::Cycles) quantity and the
//!   [`CycleAccount`](cycles::CycleAccount) attribution ledger used to split
//!   execution time into the buckets the paper reports (Table 2, Fig. 9).
//! - [`physmem`] — a sparse model of simulated physical memory holding real
//!   bytes, so page tables and allocator metadata are genuine data structures
//!   rather than abstract counters.
//! - [`inthash`] — an unkeyed multiplicative hasher for maps keyed by
//!   frame numbers, object ids and other simulator-generated integers.
//! - [`stats`] — small counter utilities.
//! - [`json`] — a dependency-free JSON document model used for trace
//!   record/replay and report export (the build environment is offline).
//!
//! # Examples
//!
//! ```
//! use memento_simcore::addr::{VirtAddr, PAGE_SIZE};
//! use memento_simcore::physmem::PhysMem;
//!
//! let mut mem = PhysMem::new(64 * 1024 * 1024);
//! let frame = mem.alloc_frame().unwrap();
//! mem.write_u64(frame.base_addr(), 0xdead_beef);
//! assert_eq!(mem.read_u64(frame.base_addr()), 0xdead_beef);
//! assert_eq!(VirtAddr::new(0x1234).page_offset(), 0x234);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod cycles;
pub mod inthash;
pub mod json;
pub mod physmem;
pub mod stats;

pub use addr::{PhysAddr, VirtAddr, CACHE_LINE_SIZE, PAGE_SIZE};
pub use cycles::{CycleAccount, CycleBucket, Cycles};
pub use physmem::{Frame, PhysMem};
