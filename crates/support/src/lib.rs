//! Dependency-free support utilities for the IMPACT-I reproduction.
//!
//! The build environment carries no external crates, so everything the
//! workspace previously pulled from crates.io lives here instead:
//!
//! * [`rng`] — a small, seedable, deterministic PRNG (xoshiro256++ seeded
//!   through SplitMix64) replacing `rand`/`rand_chacha`.
//! * [`json`] — a minimal JSON document model with a [`json::ToJson`]
//!   trait and the [`json_object!`] impl macro, replacing
//!   `serde`/`serde_json` for the experiment tables and lint output.
//! * [`check`] — a tiny property-testing harness (seeded generators,
//!   deterministic shrink-free `forall`) replacing `proptest`.
//! * [`par`] — a deterministic-order, bounded fork/join `parallel_map`
//!   over scoped threads, replacing `rayon` for the evaluation engine.
//!
//! Everything here is deterministic by construction: the RNG streams and
//! the check seeds are fixed, so test failures reproduce exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod json;
pub mod par;
pub mod rng;

pub use json::{parse as parse_json, Json, JsonParseError, ToJson};
pub use par::parallel_map;
pub use rng::Rng;
