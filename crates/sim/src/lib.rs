#![warn(missing_docs)]

//! # uvm-sim — discrete-event simulation substrate for the UVM stack
//!
//! This crate provides the foundation every other crate in the workspace is
//! built on:
//!
//! * [`time`] — the simulated nanosecond clock ([`SimTime`], [`SimDuration`]).
//! * [`event`] — a deterministic discrete-event queue ([`EventQueue`]) with
//!   stable FIFO ordering for simultaneous events.
//! * [`rng`] — a seeded, reproducible random source ([`DetRng`]) so that every
//!   simulation run with the same seed produces an identical trace.
//! * [`mem`] — the shared memory-layout vocabulary: virtual addresses, 4 KiB
//!   pages, and 2 MiB VABlocks exactly as the NVIDIA UVM driver defines them.
//! * [`cost`] — the analytic cost model ([`CostModel`]) that converts counted
//!   simulator work (pages migrated, PTEs torn down, radix-tree nodes
//!   allocated, …) into simulated time. The [`CostModel::titan_v`] preset is
//!   calibrated to the magnitudes reported by Allen & Ge (SC '21).
//! * [`hash`] — the deterministic hasher behind [`FastMap`] and [`FastSet`],
//!   the map and set types every simulator crate uses.
//! * [`error`] — the typed pipeline error ([`UvmError`]) that replaces
//!   panics along the servicing path.
//! * [`inject`] — deterministic, seeded fault injection ([`FaultPlan`],
//!   [`Injector`]) driving failures at named pipeline points.
//! * [`snapshot`] — the snapshot format version and the stable state digest
//!   used for checkpoint/restore and divergence detection.
//!
//! The simulator is *deterministic*: no wall-clock time, no global state, no
//! thread nondeterminism. Ties in the event queue are broken by insertion
//! order, and all randomness flows from an explicit seed.

pub mod cost;
pub mod error;
pub mod event;
pub mod hash;
pub mod inject;
pub mod mem;
pub mod rng;
pub mod snapshot;
pub mod time;

pub use cost::CostModel;
pub use error::{UvmError, UvmResult};
pub use event::EventQueue;
pub use hash::{FastMap, FastSet};
pub use inject::{FaultPlan, InjectionPoint, Injector, PointInjector, PointPlan};
pub use mem::{PageNum, VaBlockId, VirtAddr, PAGE_SIZE, PAGES_PER_VABLOCK, VABLOCK_SIZE};
pub use rng::DetRng;
pub use snapshot::{digest_value, SNAPSHOT_VERSION};
pub use time::{SimDuration, SimTime};
