//! Evaluation-trace simulation helpers.

use impact_cache::{CacheConfig, CacheStats, MultiLane};
use impact_ir::Program;
use impact_layout::Placement;
use impact_profile::ExecLimits;
use impact_trace::TraceGenerator;

/// Streams one evaluation trace of `(program, placement)` under
/// `eval_seed` into a bank of cache configurations; returns per-config
/// statistics in input order.
///
/// The whole sweep costs a single pass over the trace (the paper applies
/// "the entire execution traces ... to the cache simulator").
#[must_use]
pub fn simulate(
    program: &Program,
    placement: &Placement,
    eval_seed: u64,
    limits: ExecLimits,
    configs: &[CacheConfig],
) -> Vec<CacheStats> {
    simulate_counted(program, placement, eval_seed, limits, configs).0
}

/// Like [`simulate`], but also returns the trace length.
///
/// This is the one raw bank-plus-generator implementation; [`simulate`]
/// delegates here, and the [`crate::session::SimSession`] equivalence
/// tests compare against this path, so the two can never diverge.
#[must_use]
pub fn simulate_counted(
    program: &Program,
    placement: &Placement,
    eval_seed: u64,
    limits: ExecLimits,
    configs: &[CacheConfig],
) -> (Vec<CacheStats>, u64) {
    let mut bank = MultiLane::new(configs.iter().copied());
    let gen = TraceGenerator::new(program, placement).with_limits(limits);
    let summary = gen.stream(eval_seed, &mut bank);
    (bank.take_stats(), summary.instructions)
}

#[cfg(test)]
mod tests {
    use impact_layout::baseline;

    use super::*;

    #[test]
    fn stats_align_with_configs() {
        let w = impact_workloads::by_name("wc").unwrap();
        let placement = baseline::natural(&w.program);
        let configs = [
            CacheConfig::direct_mapped(512, 64),
            CacheConfig::direct_mapped(2048, 64),
        ];
        let limits = ExecLimits::capped(50_000);
        let (stats, len) = simulate_counted(&w.program, &placement, 99, limits, &configs);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].accesses, len);
        assert_eq!(stats[1].accesses, len);
        // A bigger cache never misses more under LRU-per-set with equal
        // geometry... not guaranteed for direct-mapped, but trivially true
        // here because wc's working set fits both.
        assert!(stats[1].miss_ratio() <= stats[0].miss_ratio() + 1e-9);
    }
}
