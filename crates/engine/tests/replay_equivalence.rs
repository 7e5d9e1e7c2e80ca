//! Replay-equivalence properties for bounded-delay selector windows
//! (`EngineConfig::selector_window_s`): the windowed replay must match
//! the sequential engine byte-for-byte modulo the report's `selector`
//! stats block (the same masking the CI determinism job applies with
//! `sed`).

use ic_cache::{IcCacheConfig, IcCacheSystem};
use ic_engine::{EngineConfig, EngineReport, EventDrivenEngine, ServingEngine};
use ic_llmsim::Generator;
use ic_workloads::{Dataset, WorkloadGenerator, fixed_qps_arrivals};
use proptest::prelude::*;

fn seeded_engine(
    n_examples: usize,
    config: EngineConfig,
    seed: u64,
) -> (EventDrivenEngine, WorkloadGenerator) {
    let sys_cfg = IcCacheConfig::gemma_pair();
    let large = sys_cfg.primary;
    let large_spec = sys_cfg.catalog.get(large).clone();
    let mut wg = WorkloadGenerator::sized(Dataset::MsMarco, seed, n_examples.max(10));
    let examples = wg.generate_examples(n_examples, &large_spec, large, &Generator::new());
    let mut system = IcCacheSystem::new(sys_cfg);
    system.seed_examples(examples, 0.0);
    (EventDrivenEngine::new(system, config), wg)
}

fn run(config: EngineConfig, arrivals: &[f64], seed: u64) -> EngineReport {
    let (mut engine, mut wg) = seeded_engine(400, config, seed);
    let requests = wg.generate_requests(arrivals.len());
    engine.serve_workload(&requests, arrivals)
}

/// Drops the `selector` stats object — the one block the window is
/// allowed to move — from a report JSON.
fn mask_selector_block(json: &str) -> String {
    let start = json.find("\"selector\":{").expect("selector block present");
    let end = start + json[start..].find('}').expect("selector block closes") + 2;
    format!("{}{}", &json[..start], &json[end..])
}

/// `n` arrivals in same-tick groups of `per_tick`, `step` seconds apart
/// — the shape that exercises probes straddling tick boundaries.
fn tick_burst_arrivals(n: usize, per_tick: usize, step: f64) -> Vec<f64> {
    (0..n).map(|i| (i / per_tick) as f64 * step).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any look-ahead window — sub-tick to far beyond the trace — over
    /// a Poisson trace is byte-identical to the sequential engine
    /// modulo the selector block.
    #[test]
    fn windowed_replay_matches_sequential(
        seed in 0u64..500,
        qps in 1.0f64..8.0,
        window_s in 1e-6f64..40.0,
    ) {
        let arrivals = fixed_qps_arrivals(qps, 25.0, seed ^ 0x51d0);
        let sequential = run(EngineConfig::default(), &arrivals, seed);
        let windowed = run(
            EngineConfig {
                selector_batch: 8,
                selector_window_s: window_s,
                ..EngineConfig::default()
            },
            &arrivals,
            seed,
        );
        prop_assert_eq!(
            windowed.replay.preselects,
            windowed.replay.preselect_hits
                + windowed.replay.stage1_reuses
                + windowed.replay.invalidations
        );
        prop_assert_eq!(
            mask_selector_block(&sequential.to_json()),
            mask_selector_block(&windowed.to_json())
        );
    }

    /// Windows over same-tick burst traces: probes span tick groups
    /// (the arrivals a window hoists are *not* aligned with the ticks
    /// the same-tick coalescer sees) and equivalence must hold for any
    /// group size and spacing.
    #[test]
    fn windowed_replay_matches_on_tick_straddling_bursts(
        seed in 0u64..500,
        per_tick in 1usize..6,
        step in 0.05f64..1.0,
        window_s in 0.1f64..10.0,
    ) {
        let arrivals = tick_burst_arrivals(60, per_tick, step);
        let sequential = run(EngineConfig::default(), &arrivals, seed);
        let windowed = run(
            EngineConfig {
                selector_batch: 8,
                selector_window_s: window_s,
                ..EngineConfig::default()
            },
            &arrivals,
            seed,
        );
        prop_assert_eq!(
            mask_selector_block(&sequential.to_json()),
            mask_selector_block(&windowed.to_json())
        );
    }
}
