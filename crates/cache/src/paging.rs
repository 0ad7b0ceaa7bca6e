//! Instruction paging simulation (the paper's §5, second research
//! direction: "experiments on the instruction paging performance. The
//! design parameters under investigation include working set size, page
//! size, and page sectoring").
//!
//! The placement optimizer's effective/non-executed split is explicitly
//! motivated by paging: "when a page is transferred from the secondary
//! memory to the main memory, all the bytes of that page are likely to
//! be used" (§4.1.3). This module makes that measurable:
//!
//! * [`PagingSim`] — LRU page replacement over a fixed number of
//!   resident pages, with optional *page sectoring* (transfer only the
//!   touched sector of a faulting page),
//! * [`WorkingSetTracker`] — Denning working-set size over a window.

use crate::sim::AccessSink;
use crate::WORD_BYTES;

/// Configuration of a paged instruction memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageConfig {
    /// Page size in bytes (power of two).
    pub page_bytes: u64,
    /// Resident-set capacity in pages (LRU replacement).
    pub resident_pages: usize,
    /// Optional sector size: on a fault, transfer only the sector
    /// containing the touched word (plus later sectors on demand).
    pub sector_bytes: Option<u64>,
}

impl PageConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if sizes are not powers of two, the capacity is zero, or a
    /// sector misfits the page.
    pub fn assert_valid(&self) {
        assert!(
            self.page_bytes.is_power_of_two() && self.page_bytes >= WORD_BYTES,
            "page size {} invalid",
            self.page_bytes
        );
        assert!(self.resident_pages > 0, "resident set must be non-empty");
        if let Some(s) = self.sector_bytes {
            assert!(
                s.is_power_of_two() && s >= WORD_BYTES && s <= self.page_bytes,
                "sector {s} misfits page {}",
                self.page_bytes
            );
        }
    }
}

/// Counters of a paging simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PagingStats {
    /// Instruction fetches observed.
    pub accesses: u64,
    /// Page faults (a fault on a non-resident page).
    pub faults: u64,
    /// Sector transfers (equals `faults` without sectoring).
    pub sector_transfers: u64,
    /// 4-byte words transferred from backing store.
    pub words_transferred: u64,
    /// Distinct pages ever touched.
    pub distinct_pages: u64,
}

impl PagingStats {
    /// Faults per access.
    #[must_use]
    pub fn fault_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.faults as f64 / self.accesses as f64
        }
    }

    /// Words transferred per access (paging traffic ratio).
    #[must_use]
    pub fn traffic_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.words_transferred as f64 / self.accesses as f64
        }
    }
}

/// One resident page: which sectors are present, plus an LRU stamp.
#[derive(Debug, Clone)]
struct ResidentPage {
    page: u64,
    /// Bit `i` set ⇒ sector `i` present (all-ones without sectoring).
    sectors: u128,
    lru: u64,
}

/// LRU paging simulator.
///
/// ```
/// use impact_cache::paging::{PageConfig, PagingSim};
/// use impact_cache::AccessSink;
/// let mut sim = PagingSim::new(PageConfig {
///     page_bytes: 512,
///     resident_pages: 4,
///     sector_bytes: None,
/// });
/// for w in 0..256u64 {
///     sim.access(w * 4); // 1 KB touched = 2 pages
/// }
/// assert_eq!(sim.stats().faults, 2);
/// ```
#[derive(Debug, Clone)]
pub struct PagingSim {
    config: PageConfig,
    resident: Vec<ResidentPage>,
    stamp: u64,
    stats: PagingStats,
    touched: std::collections::HashSet<u64>,
}

impl PagingSim {
    /// Creates a simulator for `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn new(config: PageConfig) -> Self {
        config.assert_valid();
        if let Some(s) = config.sector_bytes {
            assert!(
                config.page_bytes / s <= 128,
                "at most 128 sectors per page supported"
            );
        }
        Self {
            config,
            resident: Vec::with_capacity(config.resident_pages),
            stamp: 0,
            stats: PagingStats::default(),
            touched: std::collections::HashSet::new(),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &PageConfig {
        &self.config
    }

    /// Current statistics.
    #[must_use]
    pub fn stats(&self) -> PagingStats {
        self.stats
    }

    fn sector_of(&self, addr: u64) -> u32 {
        match self.config.sector_bytes {
            Some(s) => ((addr % self.config.page_bytes) / s) as u32,
            None => 0,
        }
    }

    fn words_per_transfer(&self) -> u64 {
        self.config.sector_bytes.unwrap_or(self.config.page_bytes) / WORD_BYTES
    }

    /// `n` consecutive word accesses within one page sector (or one page
    /// without sectoring). Only the first access can fault or transfer;
    /// the rest contribute clock ticks and the final LRU refresh.
    fn access_segment(&mut self, addr: u64, n: u64) {
        self.stamp += n;
        self.stats.accesses += n;
        let page = addr / self.config.page_bytes;
        if self.touched.insert(page) {
            self.stats.distinct_pages += 1;
        }
        let sector = self.sector_of(addr);
        let sector_bit = 1u128 << sector;

        if let Some(rp) = self.resident.iter_mut().find(|rp| rp.page == page) {
            rp.lru = self.stamp;
            if rp.sectors & sector_bit == 0 {
                // Sector fault on a resident page: transfer the sector
                // but do not count a full page fault (the frame is
                // already mapped).
                rp.sectors |= sector_bit;
                self.stats.sector_transfers += 1;
                self.stats.words_transferred += self.words_per_transfer();
            }
            return;
        }

        // Page fault.
        self.stats.faults += 1;
        self.stats.sector_transfers += 1;
        self.stats.words_transferred += self.words_per_transfer();
        let new_page = ResidentPage {
            page,
            sectors: if self.config.sector_bytes.is_some() {
                sector_bit
            } else {
                u128::MAX
            },
            lru: self.stamp,
        };
        if self.resident.len() < self.config.resident_pages {
            self.resident.push(new_page);
        } else {
            let victim = self
                .resident
                .iter_mut()
                .min_by_key(|rp| rp.lru)
                .expect("resident set is non-empty");
            *victim = new_page;
        }
    }
}

impl AccessSink for PagingSim {
    fn access_run(&mut self, addr: u64, words: u64) {
        // Split at transfer-unit boundaries (sector, or whole page
        // without sectoring): within a unit only the first word can
        // fault.
        let seg_bytes = self.config.sector_bytes.unwrap_or(self.config.page_bytes);
        let mut a = addr;
        let mut remaining = words;
        while remaining > 0 {
            let in_seg = (a % seg_bytes) / WORD_BYTES;
            let n = remaining.min(seg_bytes / WORD_BYTES - in_seg);
            self.access_segment(a, n);
            a += n * WORD_BYTES;
            remaining -= n;
        }
    }
}

/// Denning working-set tracker: the number of distinct pages referenced
/// in the trailing `window` accesses, sampled every `window / 4`
/// accesses and averaged.
#[derive(Debug, Clone)]
pub struct WorkingSetTracker {
    page_bytes: u64,
    window: u64,
    clock: u64,
    last_access: std::collections::HashMap<u64, u64>,
    samples: u64,
    sample_sum: u64,
}

impl WorkingSetTracker {
    /// Creates a tracker with the given page size and window (in
    /// accesses).
    ///
    /// # Panics
    ///
    /// Panics if the page size is not a power of two or the window is
    /// zero.
    #[must_use]
    pub fn new(page_bytes: u64, window: u64) -> Self {
        assert!(page_bytes.is_power_of_two() && page_bytes >= WORD_BYTES);
        assert!(window > 0, "window must be positive");
        Self {
            page_bytes,
            window,
            clock: 0,
            last_access: std::collections::HashMap::new(),
            samples: 0,
            sample_sum: 0,
        }
    }

    /// Mean working-set size in pages over all samples.
    #[must_use]
    pub fn mean_pages(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sample_sum as f64 / self.samples as f64
        }
    }

    fn sample(&mut self) {
        let horizon = self.clock.saturating_sub(self.window);
        let ws = self.last_access.values().filter(|&&t| t > horizon).count() as u64;
        self.samples += 1;
        self.sample_sum += ws;
    }
}

impl AccessSink for WorkingSetTracker {
    fn access_run(&mut self, addr: u64, words: u64) {
        // Per-page segments: all words of a segment touch one page, so a
        // single map insert with the segment's final clock suffices. Any
        // sample point inside the segment sees the page as referenced
        // either way (its last access is within the window by
        // construction), so samples are taken at the same clocks with the
        // same values however the stream is split.
        let words_per_page = self.page_bytes / WORD_BYTES;
        let every = (self.window / 4).max(1);
        let mut a = addr;
        let mut remaining = words;
        while remaining > 0 {
            let in_page = (a % self.page_bytes) / WORD_BYTES;
            let n = remaining.min(words_per_page - in_page);
            let c1 = self.clock + n;
            self.last_access.insert(a / self.page_bytes, c1);
            let mut m = (self.clock / every + 1) * every;
            while m <= c1 {
                self.clock = m;
                self.sample();
                m += every;
            }
            self.clock = c1;
            a += n * WORD_BYTES;
            remaining -= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(pages: usize) -> PageConfig {
        PageConfig {
            page_bytes: 512,
            resident_pages: pages,
            sector_bytes: None,
        }
    }

    #[test]
    fn sequential_touch_faults_once_per_page() {
        let mut sim = PagingSim::new(config(8));
        for w in 0..512u64 {
            sim.access(w * 4); // 2 KB = 4 pages
        }
        let s = sim.stats();
        assert_eq!(s.faults, 4);
        assert_eq!(s.distinct_pages, 4);
        assert_eq!(s.words_transferred, 4 * 128);
    }

    #[test]
    fn lru_evicts_oldest_page() {
        let mut sim = PagingSim::new(config(2));
        sim.access(0); // page 0
        sim.access(512); // page 1
        sim.access(1024); // page 2 evicts page 0
        sim.access(0); // fault again
        assert_eq!(sim.stats().faults, 4);
    }

    #[test]
    fn resident_set_absorbs_loops() {
        let mut sim = PagingSim::new(config(4));
        for _ in 0..100 {
            for p in 0..4u64 {
                sim.access(p * 512);
            }
        }
        assert_eq!(sim.stats().faults, 4);
        assert!(sim.stats().fault_ratio() < 0.011);
    }

    #[test]
    fn sectoring_cuts_transfer_size() {
        let cfg = PageConfig {
            page_bytes: 512,
            resident_pages: 4,
            sector_bytes: Some(64),
        };
        let mut sim = PagingSim::new(cfg);
        sim.access(0);
        let s = sim.stats();
        assert_eq!(s.faults, 1);
        assert_eq!(s.words_transferred, 16); // one 64-byte sector
                                             // Touch a second sector of the same page: no page fault, one
                                             // sector transfer.
        sim.access(128);
        let s = sim.stats();
        assert_eq!(s.faults, 1);
        assert_eq!(s.sector_transfers, 2);
    }

    #[test]
    fn sectored_and_full_fault_counts_match() {
        // Sectoring changes traffic, not page-fault behavior.
        let addrs: Vec<u64> = (0..4000u64).map(|i| (i * 37) % 4096 * 4).collect();
        let mut full = PagingSim::new(config(4));
        let mut sect = PagingSim::new(PageConfig {
            sector_bytes: Some(32),
            ..config(4)
        });
        for &a in &addrs {
            full.access(a);
            sect.access(a);
        }
        assert_eq!(full.stats().faults, sect.stats().faults);
        assert!(sect.stats().words_transferred <= full.stats().words_transferred);
    }

    #[test]
    fn working_set_of_a_loop_is_its_page_count() {
        let mut ws = WorkingSetTracker::new(512, 1000);
        // The largest sample, read off each new sample's addition to
        // the running sum.
        let mut peak = 0;
        for _ in 0..100 {
            for p in 0..3u64 {
                for w in 0..16u64 {
                    let (samples, sum) = (ws.samples, ws.sample_sum);
                    ws.access(p * 512 + w * 4);
                    if ws.samples > samples {
                        peak = peak.max(ws.sample_sum - sum);
                    }
                }
            }
        }
        let mean = ws.mean_pages();
        assert!(
            (2.9..=3.0).contains(&mean),
            "3-page loop should have ~3-page working set, got {mean}"
        );
        assert_eq!(peak, 3);
    }

    #[test]
    fn working_set_window_forgets_old_pages() {
        let mut ws = WorkingSetTracker::new(512, 64);
        // Touch 10 pages once each, then spin on one page.
        for p in 0..10u64 {
            ws.access(p * 512);
        }
        for _ in 0..1000 {
            ws.access(0);
        }
        assert!(ws.mean_pages() < 2.0, "mean {}", ws.mean_pages());
    }

    #[test]
    #[should_panic(expected = "resident set must be non-empty")]
    fn zero_capacity_rejected() {
        let _ = PagingSim::new(config(0));
    }
}
