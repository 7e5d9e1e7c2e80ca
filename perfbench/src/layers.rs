//! The decomposed pass: the replay's work driven through each crate's
//! public calls, timed from here, so the untraced replay wall can be
//! split into layers.
//!
//! The pass is an approximation of `EventDrivenEngine::serve_workload`,
//! slice by slice as the engine replays them: it serves a slice's
//! arrivals in order with no event queue. The router sees the same
//! windowed arrival-rate estimate as in the engine, but no
//! completion-latency feedback, because the pools run only afterwards,
//! in one `ClusterSim::run` over the slice's jobs. Routing can therefore
//! differ from the engine's; the pass's own served and offload counts
//! are printed beside the engine's for that reason.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use ic_cache::{IcCacheSystem, ServeOutcome};
use ic_desim::SimTime;
use ic_engine::EngineConfig;
use ic_llmsim::ModelId;
use ic_respcache::{CachedResponse, RespCacheConfig, RespCacheStats, ResponseCache};
use ic_serving::{ClusterSim, IterStats, JobId, JobSpec, KvStats, PoolConfig, SharedPrefix};
use ic_stats::split_mix64;

use crate::stats::{Tail, median, tail};
use crate::workload::{Inputs, Slice};

/// Per-call durations of one layer; its busy time is their sum.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    calls_us: Vec<f64>,
}

impl Layer {
    /// Runs `f` as one call of this layer.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.calls_us.push(start.elapsed().as_secs_f64() * 1e6);
        out
    }

    /// Keeps, call by call, the faster of this pass and `other`, a pass
    /// that made the same calls.
    ///
    /// # Panics
    ///
    /// Panics if the passes made different numbers of calls.
    pub fn keep_fastest(&mut self, other: &Layer) {
        assert_eq!(self.calls(), other.calls(), "passes made different calls");
        for (a, b) in self.calls_us.iter_mut().zip(&other.calls_us) {
            *a = a.min(*b);
        }
    }

    /// Busy seconds (`0.0` with no calls; a `sum` of no floats is `-0.0`).
    pub fn secs(&self) -> f64 {
        self.calls_us.iter().fold(0.0, |a, b| a + b) / 1e6
    }

    /// Calls made.
    pub fn calls(&self) -> usize {
        self.calls_us.len()
    }

    /// Median call, µs.
    pub fn p50_us(&self) -> f64 {
        median(&self.calls_us)
    }

    /// Tail call (see [`tail`]).
    pub fn tail(&self) -> Option<Tail> {
        tail(&self.calls_us)
    }
}

/// The replay layers of one decomposed pass, plus the counters that
/// explain them.
#[derive(Debug, Clone, Default)]
pub struct Split {
    /// Stage-0 probe: `ResponseCache::observe` + `lookup` per arrival.
    pub stage0_lookup: Layer,
    /// Stage-0 upkeep: `ResponseCache::admit` per served miss.
    pub stage0_admit: Layer,
    /// `IcCacheSystem::stage1_batch(&[r])`.
    pub stage1: Layer,
    /// `IcCacheSystem::preselect` (stage-2 scoring).
    pub stage2: Layer,
    /// `IcCacheSystem::serve_with_selection` (router + llmsim + feedback).
    pub serve_routed: Layer,
    /// `IcCacheSystem::update_cache` (served-pair admission + indexing).
    pub admit: Layer,
    /// `IcCacheSystem::run_maintenance`.
    pub maintenance: Layer,
    /// `IcCacheSystem::run_rebalance`.
    pub rebalance: Layer,
    /// `ClusterSim::run` over each slice's served jobs.
    pub serving_run: Layer,
    /// Requests that got a response (stage-0 hits included).
    pub served: u64,
    /// Responses offloaded off the primary model.
    pub offloaded: u64,
    /// Scheduler counters of the cluster run.
    pub iter: IterStats,
    /// KV-memory counters summed over the slices' cluster runs.
    pub kv: KvStats,
    /// Highest per-slice peak KV occupancy.
    pub kv_peak_occupancy: f64,
    /// Stage-0 counters (all zero when the engine runs without it).
    pub resp: RespCacheStats,
}

impl Split {
    /// Keeps, call by call, the faster of this pass and `other`, a pass
    /// over the same inputs (deterministic, so it made the same calls).
    pub fn keep_fastest(&mut self, other: &Split) {
        for ((_, a), (_, b)) in self
            .replay_layers_mut()
            .into_iter()
            .zip(other.replay_layers())
        {
            a.keep_fastest(b);
        }
    }

    fn replay_layers_mut(&mut self) -> [(&'static str, &mut Layer); 9] {
        [
            ("respcache.lookup", &mut self.stage0_lookup),
            ("respcache.admit", &mut self.stage0_admit),
            ("selector.stage1", &mut self.stage1),
            ("selector.stage2", &mut self.stage2),
            ("core.serve_routed", &mut self.serve_routed),
            ("manager.admit", &mut self.admit),
            ("manager.maintenance", &mut self.maintenance),
            ("manager.rebalance", &mut self.rebalance),
            ("serving.run", &mut self.serving_run),
        ]
    }

    /// Every replay layer by name, in report order.
    pub fn replay_layers(&self) -> [(&'static str, &Layer); 9] {
        [
            ("respcache.lookup", &self.stage0_lookup),
            ("respcache.admit", &self.stage0_admit),
            ("selector.stage1", &self.stage1),
            ("selector.stage2", &self.stage2),
            ("core.serve_routed", &self.serve_routed),
            ("manager.admit", &self.admit),
            ("manager.maintenance", &self.maintenance),
            ("manager.rebalance", &self.rebalance),
            ("serving.run", &self.serving_run),
        ]
    }

    /// Summed busy seconds of the replay layers.
    pub fn busy_s(&self) -> f64 {
        self.replay_layers().iter().map(|(_, l)| l.secs()).sum()
    }

    /// What the layers leave unexplained of an untraced replay wall: the
    /// event queue, engine dispatch and load feedback. `busy_s() +
    /// residual_s(wall) == wall`.
    pub fn residual_s(&self, wall_s: f64) -> f64 {
        wall_s - self.busy_s()
    }
}

/// The pools `EventDrivenEngine::new` builds for `system` under
/// `config`, in routing order (pool `p` serves `system.config().models[p]`).
pub fn pool_configs(system: &IcCacheSystem, config: &EngineConfig) -> Vec<PoolConfig> {
    let sys = system.config();
    let primary_gpus = sys
        .catalog
        .get(sys.primary)
        .gpus_per_replica
        .min(config.total_gpus);
    let offload = sys.offload_models();
    let small_share = if offload.is_empty() {
        0
    } else {
        (config.total_gpus.saturating_sub(primary_gpus) / offload.len() as u32).max(1)
    };
    sys.models
        .iter()
        .map(|&m| {
            let spec = sys.catalog.get(m);
            let gpus = if m == sys.primary {
                primary_gpus.max(1)
            } else {
                small_share
            };
            let mut pc = PoolConfig::for_gpus(
                &spec.name,
                gpus,
                spec.gpus_per_replica,
                config.slots_per_replica,
            );
            pc.prefill_chunk_tokens = config.prefill_chunk_tokens;
            pc.preempt_decode_quantum = config.preempt_decode_quantum;
            pc.max_queue = config.max_queue;
            pc.kv_block_tokens = config.kv_block_tokens;
            pc.kv_budget_blocks = config.kv_budget_blocks;
            pc.kv_watermarks = config.kv_watermarks;
            pc.kv_swap = config.kv_swap;
            pc.kv_share = config.kv_share;
            pc
        })
        .collect()
}

/// The shared KV prefix the engine attaches to a served job: the kept
/// example ids folded in prompt order, over the example tokens.
fn shared_prefix(out: &ServeOutcome, enabled: bool) -> Option<SharedPrefix> {
    if !enabled || out.outcome.example_tokens == 0 {
        return None;
    }
    let kept = out
        .selection
        .ids
        .len()
        .saturating_sub(out.outcome.examples_dropped as usize);
    if kept == 0 {
        return None;
    }
    let mut set = 0x1C_CAC4E_u64;
    for id in &out.selection.ids[..kept] {
        set = split_mix64(set ^ id.0);
    }
    Some(SharedPrefix {
        set,
        tokens: out.outcome.example_tokens,
    })
}

/// A periodic call site: fires at every multiple of `period_s` up to a
/// horizon, as the engine's `Maintenance`/`Rebalance` events do.
struct Periodic {
    period_s: f64,
    next_s: f64,
}

impl Periodic {
    fn new(period_s: f64) -> Self {
        Self {
            period_s,
            next_s: period_s,
        }
    }

    /// The firing times strictly before `horizon_s`, consumed.
    fn due(&mut self, horizon_s: f64) -> Vec<f64> {
        let mut due = Vec::new();
        while self.period_s > 0.0 && self.next_s < horizon_s {
            due.push(self.next_s);
            self.next_s += self.period_s;
        }
        due
    }
}

/// Drives `system` over every slice of `inputs`, in arrival order,
/// through the public calls each layer exposes, running each slice's
/// jobs on a fresh cluster with the engine's pool and KV settings.
pub fn decomposed(
    mut system: IcCacheSystem,
    config: &EngineConfig,
    inputs: &Inputs,
    slices: &[Slice],
) -> Split {
    let mut split = Split::default();
    for slice in slices {
        decomposed_slice(&mut system, config, inputs, slice, &mut split);
    }
    split
}

/// One slice of [`decomposed`]: what one `serve_workload` call does.
fn decomposed_slice(
    system: &mut IcCacheSystem,
    config: &EngineConfig,
    inputs: &Inputs,
    slice: &Slice,
    split: &mut Split,
) {
    system.front_end_mut().begin_run(config.latency_ema_alpha);
    let models: Vec<ModelId> = system.config().models.clone();
    let mut cache = config.resp_cache.then(|| {
        ResponseCache::new(RespCacheConfig {
            threshold: config.resp_threshold,
            budget_bytes: config.resp_budget_bytes,
            ttl_s: config.resp_ttl_s,
            prepop_min: config.resp_prepop_min,
            window_s: config.resp_window_s,
        })
    });
    let mut maintenance = Periodic::new(config.maintenance_period_s);
    let mut rebalance = Periodic::new(config.rebalance_period_s);
    let mut jobs = Vec::with_capacity(slice.range.len());
    let mut windows: Vec<VecDeque<f64>> = vec![VecDeque::new(); config.router_replicas.max(1)];

    for (i, &now) in slice.range.clone().zip(&slice.arrivals) {
        let r = &inputs.requests[i];
        run_periodic(system, split, &mut maintenance, &mut rebalance, now);
        observe_arrival(system, &mut windows, config.load_window, r.id, now);
        if let Some(cache) = cache.as_mut() {
            let hit = split.stage0_lookup.time(|| {
                cache.observe(&r.embedding, now);
                cache.lookup(&r.embedding, now)
            });
            if hit.is_some() {
                split.served += 1;
                continue;
            }
        }
        let stage1 = split
            .stage1
            .time(|| system.stage1_batch(&[r]))
            .pop()
            .expect("one probe per request");
        let selection = split.stage2.time(|| system.preselect(r, stage1));
        let out = split
            .serve_routed
            .time(|| system.serve_with_selection(r, selection));
        if config.admit_served_pairs {
            split.admit.time(|| {
                black_box(system.update_cache(r, &out.outcome, out.model, now));
            });
        }
        if let Some(cache) = cache.as_mut() {
            let response = CachedResponse {
                model: out.model.0,
                offloaded: out.offloaded,
                quality: out.outcome.quality,
                examples: out.selection.ids.len(),
                response_tokens: out.outcome.output_tokens,
            };
            split
                .stage0_admit
                .time(|| cache.admit(&r.embedding, response, now));
        }
        split.served += 1;
        split.offloaded += u64::from(out.offloaded);
        jobs.push(JobSpec {
            id: JobId(i as u64),
            pool: models
                .iter()
                .position(|&m| m == out.model)
                .expect("routed model has a pool"),
            arrival: SimTime::from_secs_f64(now),
            ttft_secs: out.outcome.latency.ttft,
            decode_secs: out.outcome.latency.decode,
            prefill_tokens: out.outcome.input_tokens,
            decode_tokens: out.outcome.output_tokens,
            priority: 0,
            share: shared_prefix(&out, config.kv_share),
        });
    }

    let mut cluster = ClusterSim::new(pool_configs(system, config));
    let results = split.serving_run.time(|| cluster.run(jobs));
    // The engine keeps its periodic events alive until the slice's last
    // request completes; fire the ones after the last arrival.
    let horizon = results
        .iter()
        .map(|r| r.completed.as_secs_f64())
        .fold(0.0, f64::max);
    run_periodic(system, split, &mut maintenance, &mut rebalance, horizon);
    split.iter.merge(&cluster.iter_stats());
    let kv = cluster.kv_stats();
    split.kv.merge(&kv);
    split.kv_peak_occupancy = split.kv_peak_occupancy.max(kv.peak_occupancy());
    if let Some(c) = cache {
        let stats = c.stats();
        split.resp.lookups += stats.lookups;
        split.resp.hits += stats.hits;
    }
}

/// The engine's windowed arrival-rate estimate, fed to the replica that
/// owns the request before it is routed.
fn observe_arrival(
    system: &mut IcCacheSystem,
    windows: &mut [VecDeque<f64>],
    load_window: usize,
    id: ic_llmsim::RequestId,
    now: f64,
) {
    let owner = system.front_end().replica_of(id);
    let window = &mut windows[owner];
    window.push_back(now);
    while window.len() > load_window {
        window.pop_front();
    }
    if window.len() >= 2 {
        let dt = now - window.front().expect("non-empty window");
        if dt > 0.0 {
            system
                .front_end_mut()
                .observe_arrival_load(owner, (window.len() - 1) as f64 / dt);
        }
    }
}

/// Fires the maintenance and rebalance calls due before `now`, in time
/// order (maintenance first on a tie, as the engine schedules it first).
fn run_periodic(
    system: &mut IcCacheSystem,
    split: &mut Split,
    maintenance: &mut Periodic,
    rebalance: &mut Periodic,
    now: f64,
) {
    let mut due: Vec<(f64, bool)> = maintenance
        .due(now)
        .into_iter()
        .map(|t| (t, true))
        .chain(rebalance.due(now).into_iter().map(|t| (t, false)))
        .collect();
    due.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)));
    for (t, is_maintenance) in due {
        if is_maintenance {
            split
                .maintenance
                .time(|| black_box(system.run_maintenance(t)));
        } else {
            split.rebalance.time(|| black_box(system.run_rebalance(t)));
        }
    }
}
