//! Trace-driven instruction cache simulation for the IMPACT-I
//! reproduction.
//!
//! Models the cache organizations evaluated in the paper:
//!
//! * direct-mapped, N-way set-associative, and fully associative (LRU),
//! * block sizes 16–128 bytes over cache sizes 512 B – 8 KB,
//! * three fill policies (§4.2.1–§4.2.2): whole-**block** fill, **sectored**
//!   fill (only the accessed sector), and **partial loading** (from the
//!   missed word to the end of the block or the first still-valid word),
//! * a stall-cycle timing model with load forwarding, early continuation
//!   and streaming.
//!
//! The unit of memory traffic is the 4-byte bus word, so the *memory
//! traffic ratio* is words fetched from memory divided by instruction
//! fetches — exactly the paper's "number of main memory accesses over the
//! number of dynamic instruction accesses".
//!
//! # Example
//!
//! ```
//! use impact_cache::{Cache, CacheConfig, AccessSink};
//!
//! // The paper's headline configuration: 2 KB direct-mapped, 64 B blocks.
//! let mut cache = Cache::new(CacheConfig::direct_mapped(2048, 64));
//! // A tiny loop: 32 instructions fetched 100 times, one run per pass.
//! for _ in 0..100 {
//!     cache.access_run(0, 32);
//! }
//! let stats = cache.stats();
//! assert_eq!(stats.misses, 2); // two blocks, each missed once
//! assert!(stats.miss_ratio() < 0.001);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod lanes;
pub mod opt;
pub mod paging;
mod prefetch;
mod sim;
pub mod smith;
mod stats;
mod timing;
mod victim;

pub use config::{Associativity, CacheConfig, ConfigError, FillPolicy};
pub use lanes::MultiLane;
pub use prefetch::NextLinePrefetcher;
pub use sim::{AccessSink, Cache, FnSink};
pub use stats::CacheStats;
pub use timing::{TimingConfig, TimingModel};
pub use victim::VictimCache;

/// Bytes per bus word and per instruction fetch.
pub const WORD_BYTES: u64 = 4;
