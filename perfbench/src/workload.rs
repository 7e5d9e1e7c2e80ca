//! The three traffic mixes: configuration, seeded input generation, and
//! the program setup every replay starts from.

use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

use ic_cache::{IcCacheConfig, IcCacheSystem};
use ic_engine::{EngineConfig, EventDrivenEngine};
use ic_llmsim::{Example, Generator, Request};
use ic_workloads::{Dataset, TraceConfig, WorkloadGenerator};

use crate::check::Fnv;

/// One benchmark workload (traffic mix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-mostly: 40 000-example bank, default engine.
    Paper40k,
    /// Writes beside reads: served pairs admitted, maintenance, eviction.
    LiveAdmit20k,
    /// Repeated bursts: stage-0 cache, shared-prefix KV, tight KV budget.
    BurstRepeat2k,
}

/// Input sizes of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Examples seeded into the bank.
    pub bank: usize,
    /// Warm-up serves before the replay.
    pub warmup: usize,
    /// Length of the arrival trace, simulated minutes.
    pub minutes: u32,
}

/// Requests per burst in `burst-repeat-2k`.
pub const BURST: usize = 8;

/// Requests per replayed slice; a multiple of [`BURST`], so no burst
/// straddles two slices.
pub const SLICE: usize = 256;

/// Share of the seeded bank's bytes the `live-admit-20k` cache may hold,
/// so the periodic rebalance evicts from the first period on.
pub const CAPACITY_SHARE: f64 = 0.9;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Paper40k,
        Workload::LiveAdmit20k,
        Workload::BurstRepeat2k,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper40k => "paper-40k",
            Workload::LiveAdmit20k => "live-admit-20k",
            Workload::BurstRepeat2k => "burst-repeat-2k",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The sizes the benchmark runs at.
    pub fn sizes(self) -> Sizes {
        match self {
            Workload::Paper40k => Sizes {
                bank: 40_000,
                warmup: 1_000,
                minutes: 480,
            },
            Workload::LiveAdmit20k => Sizes {
                bank: 20_000,
                warmup: 500,
                minutes: 480,
            },
            // A long warm-up settles the router's offload mix on the burst
            // trace: quality spread 12% across 10 seeds at 300 serves, 5%
            // at 2 000.
            Workload::BurstRepeat2k => Sizes {
                bank: 2_000,
                warmup: 2_000,
                minutes: 480,
            },
        }
    }

    /// The system configuration, built here and never from `IC_*`.
    pub fn system_config(self) -> IcCacheConfig {
        IcCacheConfig::gemma_pair()
    }

    /// The engine configuration, built here and never from `IC_*`.
    pub fn engine_config(self) -> EngineConfig {
        let mut config = EngineConfig::default();
        match self {
            Workload::Paper40k => {}
            Workload::LiveAdmit20k => {
                config.admit_served_pairs = true;
                config.maintenance_period_s = 300.0;
            }
            Workload::BurstRepeat2k => {
                config.resp_cache = true;
                config.kv_share = true;
                config.kv_budget_blocks = 96;
            }
        }
        config
    }

    /// Whether setup caps the example cache at [`CAPACITY_SHARE`] of
    /// the seeded bank.
    fn caps_cache(self) -> bool {
        self == Workload::LiveAdmit20k
    }
}

/// Everything the program receives, generated from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The example bank to seed.
    pub examples: Vec<Example>,
    /// Warm-up requests served during setup.
    pub warmup: Vec<Request>,
    /// The replayed requests, in arrival order.
    pub requests: Vec<Request>,
    /// Arrival time of each replayed request, simulated seconds.
    pub arrivals: Vec<f64>,
}

impl Inputs {
    /// FNV-1a digest of the example bank (ids, embeddings, token counts).
    pub fn bank_digest(&self) -> u64 {
        let mut h = Fnv::new();
        for e in &self.examples {
            h.u64(e.id.0);
            h.f32s(e.embedding.as_slice());
            h.u64(u64::from(e.request_tokens) << 32 | u64::from(e.response_tokens));
        }
        h.finish()
    }

    /// FNV-1a digest of the replayed traffic (ids, embeddings, arrivals)
    /// and the warm-up requests.
    pub fn traffic_digest(&self) -> u64 {
        let mut h = Fnv::new();
        for r in self.warmup.iter().chain(&self.requests) {
            h.u64(r.id.0);
            h.f32s(r.embedding.as_slice());
        }
        for a in &self.arrivals {
            h.u64(a.to_bits());
        }
        h.finish()
    }
}

/// One replayed slice of the trace: a run of consecutive requests, with
/// arrivals shifted to start at zero.
#[derive(Debug, Clone, PartialEq)]
pub struct Slice {
    /// The slice's requests in [`Inputs::requests`].
    pub range: Range<usize>,
    /// Their arrival times, simulated seconds from the slice's first.
    pub arrivals: Vec<f64>,
}

impl Inputs {
    /// The trace cut into consecutive [`SLICE`]-request slices.
    pub fn slices(&self) -> Vec<Slice> {
        (0..self.requests.len())
            .step_by(SLICE)
            .map(|start| {
                let range = start..(start + SLICE).min(self.requests.len());
                let t0 = self.arrivals[start];
                let arrivals = self.arrivals[range.clone()]
                    .iter()
                    .map(|a| a - t0)
                    .collect();
                Slice { range, arrivals }
            })
            .collect()
    }
}

/// Generates a workload's inputs from `seed` at the given sizes.
pub fn generate(workload: Workload, sizes: Sizes, seed: u64) -> Inputs {
    let config = workload.system_config();
    let large = config.primary;
    let large_spec = config.catalog.get(large).clone();
    let mut generator = WorkloadGenerator::sized(Dataset::MsMarco, seed ^ 21, sizes.bank);
    let examples = generator.generate_examples(sizes.bank, &large_spec, large, &Generator::new());
    let warmup = generator.generate_requests(sizes.warmup);
    let mut arrivals = trace(sizes.minutes, seed ^ 25);
    let mut requests = generator.generate_requests(arrivals.len());
    if workload == Workload::BurstRepeat2k {
        burst(&mut requests, &mut arrivals, BURST);
    }
    Inputs {
        examples,
        warmup,
        requests,
        arrivals,
    }
}

/// The 30-minute evaluation excerpt's trace shape (bursty, half-hour
/// diurnal period, six spikes an hour of up to 8x) at a quarter of its
/// 0.8 req/s base rate, extended to `minutes`. At the full rate the
/// simulated cluster falls behind in every spike, and how far behind,
/// and with it the simulated TTFT and offload mix, swings with the seed;
/// at 0.2 req/s the output guards are steady from seed to seed.
fn trace(minutes: u32, seed: u64) -> Vec<f64> {
    TraceConfig {
        duration_s: f64::from(minutes) * 60.0,
        base_rps: 0.2,
        diurnal_amplitude: 0.3,
        diurnal_period_s: 1800.0,
        spikes_per_hour: 6.0,
        spike_peak_mult: 8.0,
        spike_duration_s: 60.0,
        seed,
    }
    .generate()
}

/// Collapses every run of `burst` consecutive arrivals onto the run's
/// first instant and first request: identical requests, identical
/// example sets, one shared prefix per run.
fn burst(requests: &mut [Request], arrivals: &mut [f64], burst: usize) {
    for i in 0..requests.len() {
        let head = i - i % burst;
        if head != i {
            requests[i] = requests[head].clone();
            arrivals[i] = arrivals[head];
        }
    }
}

/// A set-up engine plus the wall time of each setup phase.
pub struct Setup {
    /// The engine, ready to replay.
    pub engine: EventDrivenEngine,
    /// `IcCacheSystem::new` + `seed_examples` (+ the capacity cap).
    pub build_s: f64,
    /// Warm-up serves.
    pub warmup_s: f64,
    /// Whole setup: build + warm-up + `EventDrivenEngine::new`.
    pub total_s: f64,
    /// Resolved example-cache byte cap, when the workload sets one.
    pub capacity_bytes: Option<usize>,
}

/// Program setup from generated inputs. Copying the bank out of
/// `inputs` happens before the clock starts: it is input handling, not
/// program work.
pub fn set_up(workload: Workload, inputs: &Inputs, engine_config: EngineConfig) -> Setup {
    let examples = inputs.examples.clone();
    let start = Instant::now();
    let mut system = IcCacheSystem::new(workload.system_config());
    system.seed_examples(examples, 0.0);
    let capacity_bytes = workload.caps_cache().then(|| {
        let bytes = (system.manager().cache().total_bytes() as f64 * CAPACITY_SHARE) as usize;
        system.set_cache_capacity(Some(bytes));
        bytes
    });
    let build_s = start.elapsed().as_secs_f64();
    let warm = Instant::now();
    for r in &inputs.warmup {
        black_box(system.serve(r));
    }
    let warmup_s = warm.elapsed().as_secs_f64();
    let engine = EventDrivenEngine::new(system, engine_config);
    Setup {
        engine,
        build_s,
        warmup_s,
        total_s: start.elapsed().as_secs_f64(),
        capacity_bytes,
    }
}
