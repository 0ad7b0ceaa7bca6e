//! Cache geometry and fill-policy configuration.

use std::error::Error;
use std::fmt;

use crate::WORD_BYTES;

/// Set associativity of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Associativity {
    /// One way per set (the organization the paper advocates).
    Direct,
    /// N ways per set, LRU replacement.
    Ways(u32),
    /// One set containing every block, LRU replacement (Smith's design
    /// target organization).
    Full,
}

/// What gets fetched on a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FillPolicy {
    /// Fetch the whole block (§4.2.1).
    FullBlock,
    /// Fetch only the sector containing the missed word (§4.2.2,
    /// "sector" column of Table 8).
    Sectored {
        /// Sector size in bytes; must divide the block size.
        sector_bytes: u64,
    },
    /// Fetch from the missed word to the end of the block, stopping early
    /// at a previously valid word (§4.2.2, "partial" column of Table 8).
    Partial,
}

/// Which resident block a fill evicts (within a set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Replacement {
    /// Least recently used (the policy of Smith's studies and the
    /// paper's comparisons).
    #[default]
    Lru,
    /// First in, first out (insertion order; hits do not refresh).
    Fifo,
    /// Pseudo-random victim (seeded, deterministic per simulation).
    Random,
}

/// Full description of a simulated instruction cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total data store size in bytes (power of two).
    pub size_bytes: u64,
    /// Block (line) size in bytes (power of two, ≥ one word).
    pub block_bytes: u64,
    /// Set associativity.
    pub associativity: Associativity,
    /// Miss fill policy.
    pub fill: FillPolicy,
    /// Replacement policy (irrelevant for direct-mapped caches).
    pub replacement: Replacement,
}

/// An invalid cache configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// Size or block size is zero or not a power of two.
    NotPowerOfTwo {
        /// Which field was invalid.
        field: &'static str,
        /// The offending value.
        value: u64,
    },
    /// Block size exceeds cache size, or a sector misfits its block.
    BadGeometry {
        /// Human-readable description of the mismatch.
        detail: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NotPowerOfTwo { field, value } => {
                write!(f, "{field} = {value} is not a positive power of two")
            }
            ConfigError::BadGeometry { detail } => write!(f, "bad cache geometry: {detail}"),
        }
    }
}

impl Error for ConfigError {}

impl CacheConfig {
    /// A direct-mapped cache with whole-block fill.
    #[must_use]
    pub fn direct_mapped(size_bytes: u64, block_bytes: u64) -> Self {
        Self {
            size_bytes,
            block_bytes,
            associativity: Associativity::Direct,
            fill: FillPolicy::FullBlock,
            replacement: Replacement::Lru,
        }
    }

    /// A fully associative LRU cache with whole-block fill (Smith's
    /// design-target organization).
    #[must_use]
    pub fn fully_associative(size_bytes: u64, block_bytes: u64) -> Self {
        Self {
            size_bytes,
            block_bytes,
            associativity: Associativity::Full,
            fill: FillPolicy::FullBlock,
            replacement: Replacement::Lru,
        }
    }

    /// Replaces the fill policy.
    #[must_use]
    pub fn with_fill(mut self, fill: FillPolicy) -> Self {
        self.fill = fill;
        self
    }

    /// Replaces the associativity.
    #[must_use]
    pub fn with_associativity(mut self, assoc: Associativity) -> Self {
        self.associativity = assoc;
        self
    }

    /// Replaces the replacement policy.
    #[must_use]
    pub fn with_replacement(mut self, replacement: Replacement) -> Self {
        self.replacement = replacement;
        self
    }

    /// Number of ways per set.
    #[must_use]
    pub fn ways(&self) -> u64 {
        match self.associativity {
            Associativity::Direct => 1,
            Associativity::Ways(n) => u64::from(n),
            Associativity::Full => self.size_bytes / self.block_bytes,
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u64 {
        (self.size_bytes / self.block_bytes) / self.ways()
    }

    /// Words (4-byte entities) per block.
    #[must_use]
    pub fn words_per_block(&self) -> u64 {
        self.block_bytes / WORD_BYTES
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if sizes are not powers of two, the block
    /// does not fit the cache, associativity does not divide the block
    /// count, the block is smaller than a word (or larger than 256 bytes,
    /// the simulator's per-block valid-bitmap limit), or a sector size
    /// does not divide the block size in whole words.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let pow2 = |field: &'static str, v: u64| {
            if v == 0 || !v.is_power_of_two() {
                Err(ConfigError::NotPowerOfTwo { field, value: v })
            } else {
                Ok(())
            }
        };
        pow2("size_bytes", self.size_bytes)?;
        pow2("block_bytes", self.block_bytes)?;
        if self.block_bytes < WORD_BYTES {
            return Err(ConfigError::BadGeometry {
                detail: format!("block {} smaller than a word", self.block_bytes),
            });
        }
        if self.block_bytes > 256 {
            return Err(ConfigError::BadGeometry {
                detail: format!(
                    "block {} exceeds the 256-byte simulator limit",
                    self.block_bytes
                ),
            });
        }
        if self.block_bytes > self.size_bytes {
            return Err(ConfigError::BadGeometry {
                detail: format!(
                    "block {} larger than cache {}",
                    self.block_bytes, self.size_bytes
                ),
            });
        }
        let blocks = self.size_bytes / self.block_bytes;
        let ways = self.ways();
        if ways == 0 || !blocks.is_multiple_of(ways) {
            return Err(ConfigError::BadGeometry {
                detail: format!("{ways} ways do not divide {blocks} blocks"),
            });
        }
        if !ways.is_power_of_two() {
            return Err(ConfigError::BadGeometry {
                detail: format!("{ways} ways is not a power of two"),
            });
        }
        if let FillPolicy::Sectored { sector_bytes } = self.fill {
            pow2("sector_bytes", sector_bytes)?;
            if sector_bytes < WORD_BYTES || sector_bytes > self.block_bytes {
                return Err(ConfigError::BadGeometry {
                    detail: format!("sector {} misfits block {}", sector_bytes, self.block_bytes),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_config_geometry() {
        let c = CacheConfig::direct_mapped(2048, 64);
        c.validate().unwrap();
        assert_eq!(c.sets(), 32);
        assert_eq!(c.ways(), 1);
        assert_eq!(c.words_per_block(), 16);
    }

    #[test]
    fn fully_associative_is_one_set() {
        let c = CacheConfig::fully_associative(1024, 32);
        c.validate().unwrap();
        assert_eq!(c.sets(), 1);
        assert_eq!(c.ways(), 32);
    }

    #[test]
    fn set_associative_divides_ways() {
        let c = CacheConfig::direct_mapped(2048, 64).with_associativity(Associativity::Ways(8));
        c.validate().unwrap();
        assert_eq!(c.sets(), 4);
        assert_eq!(c.ways(), 8);
    }

    #[test]
    fn rejects_non_power_of_two() {
        let c = CacheConfig::direct_mapped(3000, 64);
        assert!(matches!(
            c.validate(),
            Err(ConfigError::NotPowerOfTwo {
                field: "size_bytes",
                ..
            })
        ));
    }

    #[test]
    fn rejects_block_larger_than_cache() {
        let c = CacheConfig::direct_mapped(64, 128);
        assert!(matches!(c.validate(), Err(ConfigError::BadGeometry { .. })));
    }

    #[test]
    fn rejects_misfit_sector() {
        let c = CacheConfig::direct_mapped(2048, 64)
            .with_fill(FillPolicy::Sectored { sector_bytes: 128 });
        assert!(matches!(c.validate(), Err(ConfigError::BadGeometry { .. })));
        let ok = CacheConfig::direct_mapped(2048, 64)
            .with_fill(FillPolicy::Sectored { sector_bytes: 8 });
        ok.validate().unwrap();
    }

    #[test]
    fn rejects_oversized_block() {
        let c = CacheConfig::direct_mapped(4096, 512);
        assert!(matches!(c.validate(), Err(ConfigError::BadGeometry { .. })));
    }

    #[test]
    fn rejects_ways_not_dividing_blocks() {
        let c = CacheConfig::direct_mapped(2048, 64).with_associativity(Associativity::Ways(3));
        assert!(matches!(c.validate(), Err(ConfigError::BadGeometry { .. })));
    }

    #[test]
    fn error_display_is_informative() {
        let e = ConfigError::NotPowerOfTwo {
            field: "size_bytes",
            value: 3000,
        };
        assert!(e.to_string().contains("3000"));
    }
}
