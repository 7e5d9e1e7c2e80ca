//! The event-driven serving engine (see the crate docs for the event
//! flow diagram).

use ic_cache::{IcCacheSystem, Selection, ServeOutcome};
use ic_desim::{Periodic, SimDuration, SimTime, Simulator};
use ic_llmsim::{ExampleId, ModelId, Request};
use ic_obs::{
    EventKind as ObsKind, LaneBuf, NO_REQUEST, ObsReport, PoolMeta, PoolSample, Recorder,
    TelemetrySample,
};
use ic_respcache::{CachedResponse, RespCacheConfig, ResponseCache};
use ic_serving::{
    IterStats, JobId, JobSpec, KvStats, KvSwap, ModelPool, Offer, PoolConfig, SharedPrefix,
    Watermarks,
};
use ic_stats::{PercentileSnapshot, Percentiles, split_mix64};
use std::collections::VecDeque;

use ic_serving::busy_interval_rps;

use crate::engine::{ServingEngine, cache_stats};
use crate::report::{
    EngineReport, LatencyStats, ReplayStats, RequestRecord, RouterStats, SelectorStats,
};

/// A deterministic fault-injection window: `pool` goes down `at_s`
/// seconds into the run and recovers `duration_s` later. While down, the
/// pool's queued + running jobs are preempted (their KV blocks released)
/// and re-enqueued through the router tier as retries, and new routing
/// decisions avoid the pool's model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolOutage {
    /// Pool index in routing order (see `EventDrivenEngine` pool layout).
    pub pool: usize,
    /// Failure time, seconds into the run.
    pub at_s: f64,
    /// Outage length in seconds; non-positive outages are ignored.
    pub duration_s: f64,
}

/// Engine knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// GPUs across the whole cluster. The primary model keeps one
    /// replica's worth; the remainder is split evenly across the offload
    /// models (mirroring the paper's 16-A100 evaluation split).
    pub total_gpus: u32,
    /// Concurrent sequences per replica (continuous-batching slots).
    pub slots_per_replica: u32,
    /// Prefill tokens processed per iteration per sequence (chunked
    /// prefill); `0` runs the whole prefill in one iteration.
    pub prefill_chunk_tokens: u32,
    /// Consecutive decode tokens before a sequence yields its slot to
    /// queued-behind jobs at a token boundary; `0` disables preemption.
    pub preempt_decode_quantum: u32,
    /// Per-pool admission-queue cap; offers past it are rejected and
    /// counted in the report's `iter.queue_rejects`. `None` is unbounded.
    pub max_queue: Option<usize>,
    /// Cross-request selector batching: up to this many arrivals landing
    /// on the same event tick (microsecond) are coalesced into one
    /// multi-query stage-1 probe (env `IC_SELECTOR_BATCH` in the bench
    /// binaries). `0` or `1` disables coalescing. The batch is a pure
    /// speedup — per-request results and the report are byte-identical
    /// to the sequential path (only the report's `selector` stats block
    /// reflects the setting). Ignored (treated as `1`) while
    /// `admit_served_pairs` is on, because a batch member's served pair
    /// could be indexed before a later member's probe in the sequential
    /// order, which a hoisted batch probe cannot observe.
    pub selector_batch: usize,
    /// Bounded-delay selector look-ahead window, in simulated seconds
    /// (env `IC_SELECTOR_WINDOW` in the bench binaries). On an arrival
    /// with no precomputed selection, the engine probes stage 1 for
    /// every arrival landing within the window in one multi-query
    /// `search_batch` shot and precomputes their full selections; each
    /// arrival then consumes its entry at its own event position,
    /// re-validating it against the selector's index/learn epochs (a
    /// learn-epoch bump re-scores stage 2 over the cached stage-1
    /// candidates; an index-epoch bump recomputes from scratch). `0.0`
    /// (default) keeps the same-tick-only coalescing path byte-for-byte.
    /// A pure speedup: the report is byte-identical to the sequential
    /// engine modulo the report's `selector` stats block. Ignored
    /// (treated as `0`) while `admit_served_pairs` is on, for the same
    /// reason as `selector_batch`.
    pub selector_window_s: f64,
    /// Tokens per KV block (paged KV memory; `0` with a zero budget
    /// disables the memory model).
    pub kv_block_tokens: u32,
    /// KV blocks per replica — the memory budget that makes preemption
    /// pressure-driven rather than slot-driven. `0` disables.
    pub kv_budget_blocks: u32,
    /// High/low occupancy watermarks gating admission and swap resume.
    pub kv_watermarks: Watermarks,
    /// Swap-vs-recompute pricing for pressure preemptions, plus the
    /// host-side swap capacity (`KvSwap::host_capacity_blocks`).
    pub kv_swap: KvSwap,
    /// Shared-prefix KV reuse (env `IC_KV_SHARE` in the bench
    /// binaries). When on, every served request carries the identity of
    /// its injected example set and the pools hash-cons the KV blocks
    /// covering that prefix: concurrent requests handed the same
    /// example set map the same physical blocks instead of allocating
    /// copies, and the first write past the prefix copy-on-writes the
    /// diverging block. Off (the default) the allocator is untouched
    /// and the report is byte-identical to the pre-sharing engine.
    pub kv_share: bool,
    /// Router replicas in the front-end tier. `1` (the default) is the
    /// pre-refactor topology — one router owning every request — and is
    /// byte-identical to it modulo the report's `router` stats block.
    /// With more replicas, arrivals are assigned by a deterministic hash
    /// of the request id, each replica learns only from its own
    /// requests' feedback, and replicas converge through gossip rounds
    /// (env `IC_ROUTER_REPLICAS` in the bench binaries).
    pub router_replicas: usize,
    /// Period of the router tier's gossip rounds, seconds (env
    /// `IC_GOSSIP_PERIOD`); `0` disables gossip. Irrelevant (never
    /// scheduled) with a single replica.
    pub gossip_period_s: f64,
    /// Deterministic pool-failover injections (env `IC_POOL_OUTAGE`,
    /// `pool:at:duration[;...]`). Empty by default: no failovers, no
    /// behaviour change.
    pub pool_outages: Vec<PoolOutage>,
    /// Period of full maintenance (replay + capacity), seconds; `0`
    /// disables.
    pub maintenance_period_s: f64,
    /// Period of the cheap capacity-only cross-shard rebalance, seconds;
    /// `0` disables. A no-op while the manager has no byte cap.
    pub rebalance_period_s: f64,
    /// Arrivals in the sliding window of the arrival-rate estimator.
    pub load_window: usize,
    /// Smoothing factor of the completion-latency EMA that drives the
    /// Little's-law load estimate.
    pub latency_ema_alpha: f64,
    /// Cache served request-response pairs back into the example store
    /// (Fig. 6 `update_cache`) at completion time.
    pub admit_served_pairs: bool,
    /// Record the full request-lifecycle event stream into the report's
    /// `obs` block (env `IC_OBS_TRACE` / `fig12_e2e --trace` in the
    /// bench binaries) for timeline export and critical-path analysis.
    /// Off (the default) no recorder exists, nothing in the stack
    /// records, and the serialized report is byte-identical to the
    /// pre-observability engine.
    pub trace: bool,
    /// Period of the telemetry sampler, simulated seconds (env
    /// `IC_OBS_SAMPLE`); `0` disables sampling. Samples land in the
    /// report's `obs` block, never in [`EngineReport::to_json`].
    pub obs_sample_s: f64,
    /// Ring-buffer capacity per recording lane, in events (env
    /// `IC_OBS_RING`). A full ring drops its oldest event and counts
    /// the eviction, so long runs degrade to a suffix trace instead of
    /// unbounded memory.
    pub obs_ring: usize,
    /// Stage-0 predictive response cache (env `IC_RESP_CACHE` in the
    /// bench binaries). When on, every fresh arrival first probes an
    /// embedding-similarity cache of whole served responses; a hit
    /// within `resp_threshold` returns the cached response after a
    /// fixed cache-serve latency and skips selection, routing, and the
    /// entire pool prefill/decode path. Off (the default) no cache
    /// exists and the serialized report is byte-identical to the
    /// pre-stage0 engine modulo the report's all-zero `resp_cache`
    /// block.
    pub resp_cache: bool,
    /// Minimum cosine similarity for a stage-0 lookup to hit (env
    /// `IC_RESP_THRESHOLD`). The 0.98 default accepts near-duplicates
    /// only; see `docs/response-cache.md` for the calibration argument.
    pub resp_threshold: f64,
    /// Byte budget of the stage-0 store (env `IC_RESP_BYTES`); LRU
    /// entries are evicted past it.
    pub resp_budget_bytes: usize,
    /// Stage-0 entry time-to-live, seconds (env `IC_RESP_TTL`); older
    /// entries are stale and evicted lazily on lookup.
    pub resp_ttl_s: f64,
    /// Duplicate sightings within the trending window required before a
    /// missed query is admitted into the stage-0 store (env
    /// `IC_RESP_PREPOP`).
    pub resp_prepop_min: u64,
    /// Width of the stage-0 trending-query frequency window, seconds
    /// (env `IC_RESP_WINDOW`).
    pub resp_window_s: f64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            total_gpus: 16,
            slots_per_replica: 8,
            prefill_chunk_tokens: 256,
            preempt_decode_quantum: 64,
            max_queue: None,
            selector_batch: 0,
            selector_window_s: 0.0,
            kv_block_tokens: 16,
            kv_budget_blocks: 1024,
            kv_watermarks: Watermarks::DEFAULT,
            kv_swap: KvSwap::DEFAULT,
            kv_share: false,
            router_replicas: 1,
            gossip_period_s: 5.0,
            pool_outages: Vec::new(),
            maintenance_period_s: 0.0,
            rebalance_period_s: 60.0,
            load_window: 30,
            latency_ema_alpha: 0.2,
            admit_served_pairs: false,
            trace: false,
            obs_sample_s: 0.0,
            obs_ring: 1 << 20,
            resp_cache: false,
            resp_threshold: 0.98,
            resp_budget_bytes: 4 << 20,
            resp_ttl_s: 300.0,
            resp_prepop_min: 2,
            resp_window_s: 60.0,
        }
    }
}

/// Simulator events.
#[derive(Debug)]
enum Event {
    /// Request `i` of the workload arrives.
    Arrival(usize),
    /// The in-flight iteration (token step) of `pool` ends. The second
    /// field is the pool's failover epoch at arming time: a pool
    /// failover bumps the epoch, so a step armed before the flush is
    /// recognisably stale and dropped — otherwise a pool that refills
    /// before the stale event fires would end up with two step
    /// lineages advancing it twice per iteration.
    StepComplete(usize, u64),
    /// One gossip round of the router tier (periodic; only scheduled
    /// with more than one replica).
    GossipRound,
    /// Fault injection: `pool` goes down — flush its work back through
    /// the router tier and keep routing off its model.
    PoolDown(usize),
    /// Fault injection: `pool` recovers.
    PoolUp(usize),
    /// Full offline maintenance (replay + capacity enforcement).
    Maintenance,
    /// Capacity-only cross-shard budget rebalance.
    Rebalance,
    /// One firing of the periodic telemetry sampler
    /// (`EngineConfig::obs_sample_s`).
    ObsSample,
    /// Request `i`, answered by the stage-0 response cache at its
    /// arrival tick, completes after the fixed cache-serve latency
    /// ([`STAGE0_HIT_LATENCY_S`]). Scheduling a real event (instead of
    /// filling the record inline with a future timestamp) keeps the
    /// completion bookkeeping — completions list, sampler percentiles,
    /// Little's-law feedback, the terminal `Finish` lifecycle event —
    /// in global time order.
    Stage0Complete(usize),
}

/// Fixed latency of serving a request from the stage-0 response cache:
/// the embedding probe plus response streaming, orders of magnitude
/// below any prefill/decode path but not free.
const STAGE0_HIT_LATENCY_S: f64 = 0.002;

/// A selection precomputed by the bounded-delay look-ahead window
/// (`EngineConfig::selector_window_s`), plus the selector epochs it was
/// certified under. At the arrival's own event position the entry is
/// re-validated: both epochs unchanged serves the cached [`Selection`]
/// outright; an unchanged index epoch alone still reuses the cached
/// stage-1 candidates (stage 2 re-scores); anything else recomputes.
struct PreSel {
    stage1: Vec<(ExampleId, f64)>,
    selection: Selection,
    index_epoch: u64,
    learn_epoch: u64,
}

/// The production-shaped serving path: IC-Cache admission, selection and
/// routing run inside a discrete-event simulation whose per-model pools
/// execute jobs at iteration (token-step) granularity — chunked prefill,
/// per-token preemption, and batch joins/leaves at step boundaries;
/// completions feed measured latency back into the router's load
/// estimate.
#[derive(Debug)]
pub struct EventDrivenEngine {
    system: IcCacheSystem,
    config: EngineConfig,
    /// `(model, pool index)` in routing order.
    model_pools: Vec<(ModelId, usize)>,
    pool_configs: Vec<PoolConfig>,
}

impl EventDrivenEngine {
    /// Builds the engine over a (typically example-seeded) system.
    pub fn new(system: IcCacheSystem, config: EngineConfig) -> Self {
        let sys_cfg = system.config();
        let primary = sys_cfg.primary;
        let offload = sys_cfg.offload_models();
        let catalog = &sys_cfg.catalog;

        let primary_spec = catalog.get(primary);
        let primary_gpus = primary_spec.gpus_per_replica.min(config.total_gpus);
        let small_share = if offload.is_empty() {
            0
        } else {
            (config.total_gpus.saturating_sub(primary_gpus) / offload.len() as u32).max(1)
        };

        let mut model_pools = Vec::new();
        let mut pool_configs = Vec::new();
        for &m in &sys_cfg.models {
            let spec = catalog.get(m);
            let gpus = if m == primary {
                primary_gpus.max(1)
            } else {
                small_share
            };
            model_pools.push((m, pool_configs.len()));
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
            pool_configs.push(pc);
        }
        Self {
            system,
            config,
            model_pools,
            pool_configs,
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Consumes the engine, returning the system.
    pub fn into_system(self) -> IcCacheSystem {
        self.system
    }
}

/// Pool index of `model` in routing order.
fn pool_index(model_pools: &[(ModelId, usize)], model: ModelId) -> usize {
    model_pools
        .iter()
        .find(|(m, _)| *m == model)
        .map(|&(_, p)| p)
        .expect("routed model has a pool")
}

/// The shareable example-set prefix of a served request's prompt, or
/// `None` when sharing is off or no injected examples survived the
/// context-window fit. The set identity is a deterministic
/// `split_mix64` fold over the *kept* example ids in prompt order —
/// two requests handed the same examples in the same order (the common
/// case when concurrent requests hit the same selector entries) hash
/// to the same set and so map the same hash-consed KV blocks; the
/// prefix length is the tokens the template + examples occupy.
fn shared_prefix_of(out: &ServeOutcome, enabled: bool) -> Option<SharedPrefix> {
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
    let mut set = 0x1C_CAC4E_u64; // domain tag: "IC-Cache" prefix sets
    for id in &out.selection.ids[..kept] {
        set = split_mix64(set ^ id.0);
    }
    Some(SharedPrefix {
        set,
        tokens: out.outcome.example_tokens,
    })
}

/// The post-selection tail of one arrival, shared by the sequential and
/// windowed paths: record the decision, offer the job to its routed
/// pool (arming the step event on an idle-pool start), and fold the
/// outcome into the run tallies. A queue-cap reject produced no
/// response: it contributes nothing to the quality/offload/cache
/// aggregates. Callers running `admit_served_pairs` cache the pair
/// afterwards, gated on the record not being rejected.
#[allow(clippy::too_many_arguments)] // run-scoped tallies, not a real API
fn admit_arrival(
    i: usize,
    out: &ServeOutcome,
    kv_share: bool,
    at: SimTime,
    now: f64,
    sim: &mut Simulator<Event>,
    pools: &mut [ModelPool],
    model_pools: &[(ModelId, usize)],
    pool_epochs: &[u64],
    records: &mut [Option<RequestRecord>],
    completed: &mut usize,
    offloaded: &mut u64,
    solicited: &mut u64,
    selection_hits: &mut u64,
    examples_used: &mut u64,
    quality_sum: &mut f64,
    mut obs: Option<&mut Recorder>,
) {
    records[i] = Some(RequestRecord {
        index: i,
        model: out.model.0,
        offloaded: out.offloaded,
        quality: out.outcome.quality,
        solicited: out.solicited_feedback,
        examples: out.selection.ids.len(),
        arrival_s: now,
        queue_s: 0.0,
        ttft_s: 0.0,
        e2e_s: 0.0,
        rejected: false,
    });

    let pool = pool_index(model_pools, out.model);
    if let Some(rec) = obs.as_mut() {
        rec.record(
            at,
            i as u64,
            ObsKind::Selected {
                model: out.model.0 as u32,
                examples: out.selection.ids.len() as u32,
                offloaded: out.offloaded,
            },
        );
        rec.record(at, i as u64, ObsKind::RouterDecision { pool: pool as u32 });
    }
    let job = JobSpec {
        id: JobId(i as u64),
        pool,
        arrival: at,
        ttft_secs: out.outcome.latency.ttft,
        decode_secs: out.outcome.latency.decode,
        prefill_tokens: out.outcome.input_tokens,
        decode_tokens: out.outcome.output_tokens,
        priority: 0,
        share: shared_prefix_of(out, kv_share),
    };
    // Iteration-level admission: an idle pool starts the job (arming
    // its step event); a busy pool keeps it queued until the next step
    // boundary.
    let offer = pools[pool].offer(job, at);
    if offer == Offer::Rejected {
        if let Some(rec) = obs.as_mut() {
            rec.record(at, i as u64, ObsKind::RejectedByCap { retry: false });
        }
        let record = records[i].as_mut().expect("record created above");
        record.rejected = true;
        *completed += 1;
    } else {
        if offer == Offer::Started {
            arm_step(sim, pools, pool, pool_epochs[pool]);
        } else if let Some(rec) = obs.as_mut() {
            rec.record(at, i as u64, ObsKind::Enqueued { pool: pool as u32 });
        }
        if out.offloaded {
            *offloaded += 1;
        }
        if out.solicited_feedback {
            *solicited += 1;
        }
        if !out.selection.ids.is_empty() {
            *selection_hits += 1;
            *examples_used += out.selection.ids.len() as u64;
        }
        *quality_sum += out.outcome.quality;
    }
}

/// Serves request `i` from the stage-0 response cache: record the
/// provenance of the cached response, emit the `Stage0Hit` lifecycle
/// marker, and schedule the completion event one cache-serve latency
/// out. No selector, router, or pool state is touched — the hit's only
/// contribution to the run tallies is its quality (it delivered the
/// cached response's answer). Timings are filled by `Stage0Complete`.
#[allow(clippy::too_many_arguments)] // run-scoped tallies, not a real API
fn serve_stage0_hit(
    i: usize,
    resp: &CachedResponse,
    owner: usize,
    at: SimTime,
    now: f64,
    sim: &mut Simulator<Event>,
    records: &mut [Option<RequestRecord>],
    quality_sum: &mut f64,
    obs: Option<&mut Recorder>,
) {
    records[i] = Some(RequestRecord {
        index: i,
        model: resp.model,
        // *This* serving ran nothing: no offload, no examples, no
        // solicitation — the cached response's provenance lives in the
        // cache entry, not in the hit's record.
        offloaded: false,
        quality: resp.quality,
        solicited: false,
        examples: 0,
        arrival_s: now,
        queue_s: 0.0,
        ttft_s: 0.0,
        e2e_s: 0.0,
        rejected: false,
    });
    *quality_sum += resp.quality;
    if let Some(rec) = obs {
        rec.record(
            at,
            i as u64,
            ObsKind::Stage0Hit {
                replica: owner as u32,
            },
        );
    }
    let done = at + SimDuration::from_secs_f64(STAGE0_HIT_LATENCY_S);
    sim.schedule(done, Event::Stage0Complete(i));
}

/// The response a served outcome leaves behind for the stage-0 cache.
fn cacheable_response(out: &ServeOutcome) -> CachedResponse {
    CachedResponse {
        model: out.model.0,
        offloaded: out.offloaded,
        quality: out.outcome.quality,
        examples: out.selection.ids.len(),
        response_tokens: out.outcome.output_tokens,
    }
}

/// Reschedules `pool`'s step event iff it still has a running batch.
/// Invariant: each busy pool has exactly one *live* `StepComplete`
/// in flight — armed here and by an `Offer::Started` admission; a
/// pool failover bumps `epoch` so the flushed lineage's pending
/// event dies on delivery instead of double-stepping a refilled
/// pool.
fn arm_step(sim: &mut Simulator<Event>, pools: &[ModelPool], pool: usize, epoch: u64) {
    if let Some(dt) = pools[pool].step_secs() {
        sim.schedule_in(
            SimDuration::from_secs_f64(dt),
            Event::StepComplete(pool, epoch),
        );
    }
}

impl ServingEngine for EventDrivenEngine {
    fn name(&self) -> &'static str {
        "event-driven"
    }

    fn serve_workload(&mut self, requests: &[Request], arrivals: &[f64]) -> EngineReport {
        assert_eq!(
            requests.len(),
            arrivals.len(),
            "one arrival time per request"
        );
        let n = requests.len();
        // Fresh pools per run: queue state never leaks across workloads.
        let mut pools: Vec<ModelPool> = self
            .pool_configs
            .iter()
            .cloned()
            .map(ModelPool::new)
            .collect();
        let config = self.config.clone();
        let model_pools = self.model_pools.clone();
        let system = &mut self.system;

        // Lifecycle tracing (`IC_OBS_TRACE`): hand each pool its
        // recording lane and keep the engine lane in the recorder. With
        // tracing off no lane exists anywhere, so the hot path costs
        // one `Option` check per would-be record.
        if config.trace {
            for (p, pool) in pools.iter_mut().enumerate() {
                pool.set_obs(LaneBuf::new(p as u32 + 1, config.obs_ring));
            }
        }
        let mut recorder = config.trace.then(|| Recorder::new(config.obs_ring));

        // Shape the router tier for this run. A changed replica count
        // re-clones the (possibly warmed) primary router into every
        // replica; an unchanged tier just resets the run-scoped
        // counters and latency EMAs. With the default single replica
        // this is behaviourally the pre-refactor engine.
        let replicas = config.router_replicas.max(1);
        {
            let fe = system.front_end_mut();
            if fe.num_replicas() != replicas {
                fe.reconfigure(replicas, config.latency_ema_alpha);
            } else {
                fe.begin_run(config.latency_ema_alpha);
            }
        }

        let mut sim: Simulator<Event> = Simulator::new();
        let times: Vec<SimTime> = arrivals
            .iter()
            .map(|&a| SimTime::from_secs_f64(a))
            .collect();
        for (i, &t) in times.iter().enumerate() {
            sim.schedule(t, Event::Arrival(i));
        }
        // Gossip only exists on a real tier: a single replica has no
        // peers, so no events are scheduled and the run is event-for-
        // event identical to the pre-refactor engine.
        let gossip = if replicas > 1 {
            Periodic::every_secs(config.gossip_period_s)
        } else {
            Periodic::every_secs(0.0)
        };
        gossip.arm(&mut sim, Event::GossipRound);
        // Telemetry sampler (`IC_OBS_SAMPLE`): periodic cluster-state
        // snapshots, independent of event tracing.
        let sampler = Periodic::every_secs(config.obs_sample_s);
        let sampler_on = sampler.enabled();
        sampler.arm(&mut sim, Event::ObsSample);
        for outage in &config.pool_outages {
            if outage.duration_s <= 0.0 || outage.pool >= pools.len() {
                continue;
            }
            let down_at = SimTime::from_secs_f64(outage.at_s);
            let up_at = SimTime::from_secs_f64(outage.at_s + outage.duration_s);
            sim.schedule(down_at, Event::PoolDown(outage.pool));
            sim.schedule(up_at, Event::PoolUp(outage.pool));
        }
        if config.maintenance_period_s > 0.0 {
            let t = SimTime::from_secs_f64(config.maintenance_period_s);
            sim.schedule(t, Event::Maintenance);
        }
        if config.rebalance_period_s > 0.0 {
            let t = SimTime::from_secs_f64(config.rebalance_period_s);
            sim.schedule(t, Event::Rebalance);
        }

        // Cross-request selector batching: how many same-tick arrivals
        // one stage-1 probe may cover. Disabled (singletons) while
        // served pairs are cached back, because the sequential order
        // would index a batch member's pair before later members probe.
        let coalesce = if config.admit_served_pairs {
            1
        } else {
            config.selector_batch.max(1)
        };
        // Bounded-delay look-ahead (`IC_SELECTOR_WINDOW`): precompute
        // selections for arrivals up to `window` ahead of the probing
        // event, consumed (epoch-validated) at their own positions.
        // Disabled alongside coalescing while served pairs are cached.
        let window_s = if config.admit_served_pairs {
            0.0
        } else {
            config.selector_window_s.max(0.0)
        };
        let window_on = window_s > 0.0 && window_s.is_finite();
        let window = SimDuration::from_secs_f64(if window_on { window_s } else { 0.0 });
        let probe_cap = if config.selector_batch >= 2 {
            config.selector_batch
        } else {
            64
        };
        // Arrival indices in firing order — the heap pops `(time, seq)`
        // and arrivals are scheduled in index order, so this is exactly
        // `(time, index)`.
        let mut order: Vec<usize> = (0..n).collect();
        if window_on {
            order.sort_by_key(|&i| (times[i], i));
        }
        let mut win_cursor = 0usize;
        let mut presel: Vec<Option<PreSel>> = (0..n).map(|_| None).collect();

        // Stage-0 response cache (`IC_RESP_CACHE`): probed per fresh
        // arrival before any selector work. `None` (the default) keeps
        // every path below byte-identical to the pre-stage0 engine.
        let mut resp_cache = config.resp_cache.then(|| {
            ResponseCache::new(RespCacheConfig {
                threshold: config.resp_threshold,
                budget_bytes: config.resp_budget_bytes,
                ttl_s: config.resp_ttl_s,
                prepop_min: config.resp_prepop_min,
                window_s: config.resp_window_s,
            })
        });

        let mut selector_stats = SelectorStats {
            batch_limit: config.selector_batch as u64,
            ..SelectorStats::default()
        };
        let mut replay_stats = ReplayStats::default();

        let mut records: Vec<Option<RequestRecord>> = (0..n).map(|_| None).collect();
        // One arrival window per router replica: each replica estimates
        // the arrival rate from the requests *it* owns — a stale, local
        // view by construction (with one replica this is exactly the
        // old global window).
        let mut arrival_windows: Vec<VecDeque<f64>> = vec![VecDeque::new(); replicas];
        let mut completions: Vec<f64> = Vec::with_capacity(n);
        // Sampler state: running latency recorders behind the periodic
        // percentile gauges, with the sorted state memoized between
        // completions (`ic_stats::PercentileSnapshot`) so back-to-back
        // idle sample ticks reuse one sort.
        let mut samples: Vec<TelemetrySample> = Vec::new();
        let mut e2e_pct = Percentiles::new();
        let mut ttft_pct = Percentiles::new();
        let mut pct_cache: Option<(usize, PercentileSnapshot, PercentileSnapshot)> = None;
        let mut completed = 0usize;
        let mut offloaded = 0u64;
        let mut solicited = 0u64;
        let mut selection_hits = 0u64;
        let mut examples_used = 0u64;
        let mut evicted = 0u64;
        let mut quality_sum = 0.0f64;
        let mut failover_requeues = 0u64;
        let mut retry_rejects = 0u64;
        // Failover bookkeeping: `pool_epochs` invalidates a flushed
        // pool's in-flight step event (see `Event::StepComplete`);
        // `down_depth` counts overlapping outage windows so a nested
        // window's `PoolUp` cannot revive a pool an enclosing window
        // still declares down.
        let mut pool_epochs: Vec<u64> = vec![0; pools.len()];
        let mut down_depth: Vec<u32> = vec![0; pools.len()];

        while let Some((at, event)) = sim.next() {
            let now = at.as_secs_f64();
            match event {
                Event::Arrival(i) if window_on => {
                    // --- bounded-delay look-ahead path ---
                    // Windowed arrival-rate estimate feeds the owning
                    // replica's load tracker before its routing decision,
                    // exactly as on the sequential path below.
                    let owner = system.front_end().replica_of(requests[i].id);
                    let load_win = &mut arrival_windows[owner];
                    load_win.push_back(now);
                    while load_win.len() > config.load_window {
                        load_win.pop_front();
                    }
                    if load_win.len() >= 2 {
                        let dt = now - load_win.front().expect("non-empty window");
                        if dt > 0.0 {
                            system
                                .front_end_mut()
                                .observe_arrival_load(owner, (load_win.len() - 1) as f64 / dt);
                        }
                    }

                    if let Some(rec) = recorder.as_mut() {
                        rec.record(
                            at,
                            i as u64,
                            ObsKind::Arrival {
                                replica: owner as u32,
                            },
                        );
                    }
                    // Stage-0 probe: a response-cache hit skips the
                    // whole selection path. A precomputed look-ahead
                    // entry is dropped (wasted probe work, nothing
                    // more); an unconsumed window-cursor slot still
                    // advances past this arrival.
                    if let Some(cache) = resp_cache.as_mut() {
                        cache.observe(&requests[i].embedding, now);
                        if let Some(resp) = cache.lookup(&requests[i].embedding, now) {
                            if presel[i].take().is_none()
                                && order.get(win_cursor).copied() == Some(i)
                            {
                                win_cursor += 1;
                            }
                            serve_stage0_hit(
                                i,
                                &resp,
                                owner,
                                at,
                                now,
                                &mut sim,
                                &mut records,
                                &mut quality_sum,
                                recorder.as_mut(),
                            );
                            continue;
                        }
                    }
                    let request = &requests[i];
                    let out = match presel[i].take() {
                        // Both epochs unchanged: the precomputed selection
                        // is exactly what `serve` would compute now.
                        Some(e)
                            if e.index_epoch == system.selector().index_epoch()
                                && e.learn_epoch == system.selector().learn_epoch() =>
                        {
                            replay_stats.preselect_hits += 1;
                            if let Some(rec) = recorder.as_mut() {
                                rec.record(
                                    at,
                                    i as u64,
                                    ObsKind::Stage1Probe {
                                        batch: 0,
                                        reused: true,
                                    },
                                );
                            }
                            system.serve_with_selection(request, e.selection)
                        }
                        // The proxy/threshold learned since the probe but
                        // the index is untouched: stage-1 candidates are
                        // still exact; re-score stage 2 only.
                        Some(e) if e.index_epoch == system.selector().index_epoch() => {
                            replay_stats.stage1_reuses += 1;
                            if let Some(rec) = recorder.as_mut() {
                                rec.record(
                                    at,
                                    i as u64,
                                    ObsKind::Stage1Probe {
                                        batch: 0,
                                        reused: true,
                                    },
                                );
                            }
                            system.serve_with_stage1(request, Some(e.stage1))
                        }
                        // The index moved (admission/eviction): recompute
                        // from scratch, as `serve` would.
                        Some(_) => {
                            replay_stats.invalidations += 1;
                            selector_stats.batches += 1;
                            selector_stats.requests += 1;
                            selector_stats.max_batch = selector_stats.max_batch.max(1);
                            if let Some(rec) = recorder.as_mut() {
                                rec.record(
                                    at,
                                    i as u64,
                                    ObsKind::Stage1Probe {
                                        batch: 1,
                                        reused: false,
                                    },
                                );
                            }
                            system.serve_with_stage1(request, None)
                        }
                        // No entry yet: probe stage 1 for every arrival in
                        // the window in one multi-query shot, precompute
                        // their full selections, then consume this one's.
                        None => {
                            if order.get(win_cursor).copied() != Some(i) {
                                debug_assert!(false, "window cursor out of sync at {i}");
                                win_cursor = order
                                    .iter()
                                    .position(|&j| j == i)
                                    .expect("arrival is in the firing order");
                            }
                            let horizon = at + window;
                            let mut batch = Vec::new();
                            while win_cursor < order.len() && batch.len() < probe_cap {
                                let j = order[win_cursor];
                                if times[j] > horizon {
                                    break;
                                }
                                batch.push(j);
                                win_cursor += 1;
                            }
                            let refs: Vec<&Request> = batch.iter().map(|&j| &requests[j]).collect();
                            let stage1 = system.stage1_batch(&refs);
                            let index_epoch = system.selector().index_epoch();
                            let learn_epoch = system.selector().learn_epoch();
                            for (&j, s1) in batch.iter().zip(stage1) {
                                let selection = system.preselect(&requests[j], s1.clone());
                                presel[j] = Some(PreSel {
                                    stage1: s1,
                                    selection,
                                    index_epoch,
                                    learn_epoch,
                                });
                            }
                            replay_stats.preselects += batch.len() as u64;
                            selector_stats.batches += 1;
                            selector_stats.requests += batch.len() as u64;
                            selector_stats.max_batch =
                                selector_stats.max_batch.max(batch.len() as u64);
                            let e = presel[i].take().expect("the probe covers its own arrival");
                            replay_stats.preselect_hits += 1;
                            if let Some(rec) = recorder.as_mut() {
                                rec.record(
                                    at,
                                    i as u64,
                                    ObsKind::Stage1Probe {
                                        batch: batch.len() as u32,
                                        reused: false,
                                    },
                                );
                            }
                            system.serve_with_selection(request, e.selection)
                        }
                    };
                    admit_arrival(
                        i,
                        &out,
                        config.kv_share,
                        at,
                        now,
                        &mut sim,
                        &mut pools,
                        &model_pools,
                        &pool_epochs,
                        &mut records,
                        &mut completed,
                        &mut offloaded,
                        &mut solicited,
                        &mut selection_hits,
                        &mut examples_used,
                        &mut quality_sum,
                        recorder.as_mut(),
                    );
                    if let Some(cache) = resp_cache.as_mut()
                        && !records[i].as_ref().expect("record created above").rejected
                    {
                        cache.admit(&requests[i].embedding, cacheable_response(&out), now);
                    }
                }
                Event::Arrival(first) => {
                    // Coalesce the run of arrivals sharing this event
                    // tick into one selector batch. Only *consecutive*
                    // same-tick arrival events are taken, so ordering
                    // relative to any interleaved step, maintenance or
                    // rebalance event is untouched.
                    let mut batch = vec![first];
                    while batch.len() < coalesce {
                        match sim.next_if(|t, ev| t == at && matches!(ev, Event::Arrival(_))) {
                            Some((_, Event::Arrival(j))) => {
                                batch.push(j);
                            }
                            Some(_) => unreachable!("predicate admits only arrivals"),
                            None => break,
                        }
                    }
                    if let Some(cache) = resp_cache.as_mut() {
                        // --- stage-0 over a coalesced batch ---
                        // Observe every member in the trending sketch
                        // *before* serving the first: a same-tick
                        // stampede of N identical arrivals is already at
                        // count N when its first member misses, so that
                        // member's served response is admitted and the
                        // other N−1 members hit it — one insertion per
                        // stampede.
                        for &i in &batch {
                            cache.observe(&requests[i].embedding, now);
                        }
                        // The hoisted stage-1 probe is computed lazily at
                        // the first miss (an all-hit batch does no
                        // selector work at all) and covers the whole
                        // batch: the probe is read-only and nothing
                        // mutates the index within the tick, so each
                        // entry is exactly what an inline probe at the
                        // member's own serve would return.
                        let mut hoisted: Option<Vec<Vec<(ExampleId, f64)>>> = None;
                        let mut misses = 0u64;
                        for (k, &i) in batch.iter().enumerate() {
                            let owner = system.front_end().replica_of(requests[i].id);
                            let load_win = &mut arrival_windows[owner];
                            load_win.push_back(now);
                            while load_win.len() > config.load_window {
                                load_win.pop_front();
                            }
                            if load_win.len() >= 2 {
                                let dt = now - load_win.front().expect("non-empty window");
                                if dt > 0.0 {
                                    system.front_end_mut().observe_arrival_load(
                                        owner,
                                        (load_win.len() - 1) as f64 / dt,
                                    );
                                }
                            }
                            if let Some(rec) = recorder.as_mut() {
                                rec.record(
                                    at,
                                    i as u64,
                                    ObsKind::Arrival {
                                        replica: owner as u32,
                                    },
                                );
                            }
                            if let Some(resp) = cache.lookup(&requests[i].embedding, now) {
                                serve_stage0_hit(
                                    i,
                                    &resp,
                                    owner,
                                    at,
                                    now,
                                    &mut sim,
                                    &mut records,
                                    &mut quality_sum,
                                    recorder.as_mut(),
                                );
                                continue;
                            }
                            misses += 1;
                            let stage1 = if batch.len() > 1 {
                                let probes = hoisted.get_or_insert_with(|| {
                                    let refs: Vec<&Request> =
                                        batch.iter().map(|&j| &requests[j]).collect();
                                    system.stage1_batch(&refs)
                                });
                                Some(probes[k].clone())
                            } else {
                                None
                            };
                            if let Some(rec) = recorder.as_mut() {
                                rec.record(
                                    at,
                                    i as u64,
                                    ObsKind::Stage1Probe {
                                        batch: batch.len() as u32,
                                        reused: false,
                                    },
                                );
                            }
                            let request = &requests[i];
                            let out = system.serve_with_stage1(request, stage1);
                            admit_arrival(
                                i,
                                &out,
                                config.kv_share,
                                at,
                                now,
                                &mut sim,
                                &mut pools,
                                &model_pools,
                                &pool_epochs,
                                &mut records,
                                &mut completed,
                                &mut offloaded,
                                &mut solicited,
                                &mut selection_hits,
                                &mut examples_used,
                                &mut quality_sum,
                                recorder.as_mut(),
                            );
                            let rejected =
                                records[i].as_ref().expect("record created above").rejected;
                            if config.admit_served_pairs && !rejected {
                                let _ = system.update_cache(request, &out.outcome, out.model, now);
                            }
                            if !rejected {
                                cache.admit(&requests[i].embedding, cacheable_response(&out), now);
                            }
                        }
                        // Selector stats count what stage 1 actually
                        // served; cache-answered members never reached
                        // it.
                        if misses > 0 {
                            selector_stats.batches += 1;
                            selector_stats.requests += misses;
                            selector_stats.max_batch = selector_stats.max_batch.max(misses);
                        }
                        continue;
                    }
                    // One multi-query stage-1 probe for the whole batch.
                    // Nothing in this path mutates the example index
                    // between these arrivals, so each entry is exactly
                    // the stage-1 result the sequential path would
                    // compute at its serve call; stage 2, routing and
                    // feedback still run per request below, in order.
                    // Singletons let `serve` probe inline.
                    let stage1: Vec<Option<Vec<(ExampleId, f64)>>> = if batch.len() > 1 {
                        let refs: Vec<&Request> = batch.iter().map(|&j| &requests[j]).collect();
                        system.stage1_batch(&refs).into_iter().map(Some).collect()
                    } else {
                        vec![None]
                    };
                    selector_stats.batches += 1;
                    selector_stats.requests += batch.len() as u64;
                    selector_stats.max_batch = selector_stats.max_batch.max(batch.len() as u64);
                    let probe_batch = batch.len() as u32;

                    for (i, stage1) in batch.into_iter().zip(stage1) {
                        // Windowed arrival-rate estimate feeds the owning
                        // replica's load tracker before its routing
                        // decision (each replica sees only its own
                        // arrivals).
                        let owner = system.front_end().replica_of(requests[i].id);
                        let load_win = &mut arrival_windows[owner];
                        load_win.push_back(now);
                        while load_win.len() > config.load_window {
                            load_win.pop_front();
                        }
                        if load_win.len() >= 2 {
                            let dt = now - load_win.front().expect("non-empty window");
                            if dt > 0.0 {
                                system
                                    .front_end_mut()
                                    .observe_arrival_load(owner, (load_win.len() - 1) as f64 / dt);
                            }
                        }

                        if let Some(rec) = recorder.as_mut() {
                            rec.record(
                                at,
                                i as u64,
                                ObsKind::Arrival {
                                    replica: owner as u32,
                                },
                            );
                            rec.record(
                                at,
                                i as u64,
                                ObsKind::Stage1Probe {
                                    batch: probe_batch,
                                    reused: false,
                                },
                            );
                        }
                        let request = &requests[i];
                        let out = system.serve_with_stage1(request, stage1);
                        admit_arrival(
                            i,
                            &out,
                            config.kv_share,
                            at,
                            now,
                            &mut sim,
                            &mut pools,
                            &model_pools,
                            &pool_epochs,
                            &mut records,
                            &mut completed,
                            &mut offloaded,
                            &mut solicited,
                            &mut selection_hits,
                            &mut examples_used,
                            &mut quality_sum,
                            recorder.as_mut(),
                        );
                        if config.admit_served_pairs
                            && !records[i].as_ref().expect("record created above").rejected
                        {
                            let _ = system.update_cache(request, &out.outcome, out.model, now);
                        }
                    }
                }
                Event::Stage0Complete(i) => {
                    // The cache-served request completes: the same
                    // bookkeeping a pool finisher gets, with no pool
                    // state to touch. Queue wait is zero (the cache
                    // answered at the arrival tick) and first token ==
                    // completion (the whole response streams at once).
                    let record = records[i].as_mut().expect("hit recorded at arrival");
                    record.queue_s = 0.0;
                    record.ttft_s = STAGE0_HIT_LATENCY_S;
                    record.e2e_s = STAGE0_HIT_LATENCY_S;
                    completions.push(now);
                    completed += 1;
                    if sampler_on {
                        e2e_pct.record(record.e2e_s);
                        ttft_pct.record(record.ttft_s);
                    }
                    // Little's-law feedback at the owning replica: the
                    // stage-0 tier held exactly this request while
                    // serving it (mirrors the baseline single-request
                    // path).
                    let owner = system.front_end().replica_of(requests[i].id);
                    system
                        .front_end_mut()
                        .observe_completion(owner, STAGE0_HIT_LATENCY_S, 1);
                    if let Some(rec) = recorder.as_mut() {
                        rec.record(at, i as u64, ObsKind::Finish { preemptions: 0 });
                    }
                }
                Event::StepComplete(pool, epoch) => {
                    if epoch != pool_epochs[pool] {
                        // A failover flushed the lineage this event was
                        // armed for; the live lineage (if any) has its
                        // own pending event.
                        continue;
                    }
                    let step = pools[pool].advance_step(at);
                    // Loop-invariant across this boundary's finishers:
                    // the step already ran, so pool occupancy is fixed.
                    let in_system: u32 = pools
                        .iter()
                        .map(|p| p.active() + p.queue_len() as u32)
                        .sum();
                    for fin in step.finished {
                        let i = fin.job.id.0 as usize;
                        let record = records[i].as_mut().expect("completion follows arrival");
                        record.queue_s = (fin.started - fin.job.arrival).as_secs_f64();
                        record.ttft_s = (fin.first_token - fin.job.arrival).as_secs_f64();
                        record.e2e_s = (fin.completed - fin.job.arrival).as_secs_f64();
                        completions.push(now);
                        completed += 1;
                        if sampler_on {
                            e2e_pct.record(record.e2e_s);
                            ttft_pct.record(record.ttft_s);
                        }

                        // Measured-latency feedback: Little's law turns
                        // the observed end-to-end latency and the work in
                        // flight into a demand estimate, recorded at the
                        // replica that owns the completed request (the
                        // same path failover retries and the baseline
                        // `serve_without_ic` feed).
                        let e2e_s = record.e2e_s;
                        let owner = system.front_end().replica_of(requests[i].id);
                        system
                            .front_end_mut()
                            .observe_completion(owner, e2e_s, in_system);
                    }
                    arm_step(&mut sim, &pools, pool, pool_epochs[pool]);
                }
                Event::GossipRound => {
                    let round = system.run_gossip(now);
                    if let Some(rec) = recorder.as_mut() {
                        rec.record(
                            at,
                            NO_REQUEST,
                            ObsKind::GossipRound {
                                merges: round.merges,
                                staleness_s: round.staleness_sum_s,
                            },
                        );
                    }
                    if completed < n {
                        gossip.arm(&mut sim, Event::GossipRound);
                    }
                }
                Event::PoolDown(pool) => {
                    // Mark the model down first so the retries below (and
                    // all future arrivals) route around it, then flush
                    // everything the pool held — running sequences free
                    // their KV blocks through the normal kvmem release
                    // path — and re-enqueue each job through the router
                    // tier as a retry. Overlapping outage windows nest:
                    // the depth counter keeps the pool down until the
                    // last window's recovery. The epoch bump invalidates
                    // the flushed lineage's in-flight step event.
                    let model = model_pools[pool].0;
                    system.failover_mut().set_model_healthy(model, false);
                    down_depth[pool] += 1;
                    pool_epochs[pool] += 1;
                    if let Some(rec) = recorder.as_mut() {
                        rec.record(at, NO_REQUEST, ObsKind::PoolDown { pool: pool as u32 });
                    }
                    for job_id in pools[pool].fail_over() {
                        let i = job_id.0 as usize;
                        failover_requeues += 1;
                        if let Some(rec) = recorder.as_mut() {
                            rec.record(at, i as u64, ObsKind::FailoverFlush { pool: pool as u32 });
                        }
                        let old = records[i].as_ref().expect("flushed job was served");
                        let original_arrival = SimTime::from_secs_f64(old.arrival_s);
                        // The first serving never completed: withdraw its
                        // contributions before the retry re-tallies.
                        if old.offloaded {
                            offloaded -= 1;
                        }
                        if old.solicited {
                            solicited -= 1;
                        }
                        if old.examples > 0 {
                            selection_hits -= 1;
                            examples_used -= old.examples as u64;
                        }
                        quality_sum -= old.quality;
                        let arrival_s = old.arrival_s;

                        // Retry: a fresh selection + routing decision at
                        // the owning replica (the down model is excluded
                        // by the failover state) and a fresh generation —
                        // through the stats-neutral retry path, so the
                        // already-counted request is not double-probed
                        // into the selector/router stats and no bandit
                        // feedback is absorbed twice. Retries also bypass
                        // stage 0: a cached answer cannot be re-offered
                        // for a request the tier already answered once.
                        let request = &requests[i];
                        let out = system.serve_retry(request);
                        records[i] = Some(RequestRecord {
                            index: i,
                            model: out.model.0,
                            offloaded: out.offloaded,
                            quality: out.outcome.quality,
                            solicited: out.solicited_feedback,
                            examples: out.selection.ids.len(),
                            arrival_s,
                            queue_s: 0.0,
                            ttft_s: 0.0,
                            e2e_s: 0.0,
                            rejected: false,
                        });
                        let retry_pool = pool_index(&model_pools, out.model);
                        if let Some(rec) = recorder.as_mut() {
                            rec.record(
                                at,
                                i as u64,
                                ObsKind::Selected {
                                    model: out.model.0 as u32,
                                    examples: out.selection.ids.len() as u32,
                                    offloaded: out.offloaded,
                                },
                            );
                            rec.record(
                                at,
                                i as u64,
                                ObsKind::RouterDecision {
                                    pool: retry_pool as u32,
                                },
                            );
                        }
                        let job = JobSpec {
                            id: JobId(i as u64),
                            pool: retry_pool,
                            // Latency stays measured from the *original*
                            // arrival: the outage's lost time is part of
                            // the user-visible queueing delay.
                            arrival: original_arrival,
                            ttft_secs: out.outcome.latency.ttft,
                            decode_secs: out.outcome.latency.decode,
                            prefill_tokens: out.outcome.input_tokens,
                            decode_tokens: out.outcome.output_tokens,
                            priority: 0,
                            share: shared_prefix_of(&out, config.kv_share),
                        };
                        let offer = pools[retry_pool].offer(job, at);
                        if offer == Offer::Rejected {
                            if let Some(rec) = recorder.as_mut() {
                                rec.record(at, i as u64, ObsKind::RejectedByCap { retry: true });
                            }
                            let record = records[i].as_mut().expect("record created above");
                            record.rejected = true;
                            completed += 1;
                            retry_rejects += 1;
                        } else {
                            if offer == Offer::Started {
                                arm_step(&mut sim, &pools, retry_pool, pool_epochs[retry_pool]);
                            } else if let Some(rec) = recorder.as_mut() {
                                rec.record(
                                    at,
                                    i as u64,
                                    ObsKind::Enqueued {
                                        pool: retry_pool as u32,
                                    },
                                );
                            }
                            // No `update_cache` here: the request's pair
                            // was already admitted at its arrival (when
                            // `admit_served_pairs` is on); re-admitting
                            // the retry outcome would double-cache it.
                            if out.offloaded {
                                offloaded += 1;
                            }
                            if out.solicited_feedback {
                                solicited += 1;
                            }
                            if !out.selection.ids.is_empty() {
                                selection_hits += 1;
                                examples_used += out.selection.ids.len() as u64;
                            }
                            quality_sum += out.outcome.quality;
                        }
                    }
                }
                Event::PoolUp(pool) => {
                    // Recover only when the outermost outage window
                    // closes (nested windows each delivered a PoolDown).
                    if let Some(rec) = recorder.as_mut() {
                        rec.record(at, NO_REQUEST, ObsKind::PoolUp { pool: pool as u32 });
                    }
                    down_depth[pool] = down_depth[pool].saturating_sub(1);
                    if down_depth[pool] == 0 {
                        let model = model_pools[pool].0;
                        system.failover_mut().set_model_healthy(model, true);
                    }
                }
                Event::Maintenance => {
                    let report = system.run_maintenance(now);
                    evicted += report.evicted as u64;
                    if completed < n {
                        let period = SimDuration::from_secs_f64(config.maintenance_period_s);
                        sim.schedule_in(period, Event::Maintenance);
                    }
                }
                Event::Rebalance => {
                    evicted += system.run_rebalance(now) as u64;
                    if completed < n {
                        let period = SimDuration::from_secs_f64(config.rebalance_period_s);
                        sim.schedule_in(period, Event::Rebalance);
                    }
                }
                Event::ObsSample => {
                    // Percentile gauges: reuse the memoized sorted
                    // snapshot unless a completion landed since the
                    // last tick.
                    let cache = match pct_cache.take() {
                        Some(c) if c.0 == e2e_pct.len() => c,
                        _ => (e2e_pct.len(), e2e_pct.snapshot(), ttft_pct.snapshot()),
                    };
                    let (_, e2e_snap, ttft_snap) = &cache;
                    let pool_samples: Vec<PoolSample> = pools
                        .iter()
                        .map(|p| PoolSample {
                            queue: p.queue_len() as u32,
                            active: p.active(),
                            swapped: p.swapped_len() as u32,
                            kv_used_blocks: p.kv_used_blocks(),
                            kv_occupancy: p.kv_occupancy(),
                            kv_shared_blocks: p.kv_shared_blocks(),
                            dedup_ratio: p.kv_stats().dedup_ratio(),
                            mean_step_batch: p.iter_stats().mean_step_batch(),
                        })
                        .collect();
                    // Pool queue caps count every drop, retries
                    // included; the sample splits them back out.
                    let total_rejects: u64 = pools.iter().map(|p| p.rejected()).sum();
                    let fe = system.front_end().stats();
                    samples.push(TelemetrySample {
                        t_us: at.as_micros(),
                        completed: completed as u64,
                        queue_rejects: total_rejects.saturating_sub(retry_rejects),
                        retry_rejects,
                        failover_requeues,
                        p50_e2e_s: e2e_snap.p50().unwrap_or(0.0),
                        p99_e2e_s: e2e_snap.p99().unwrap_or(0.0),
                        p50_ttft_s: ttft_snap.p50().unwrap_or(0.0),
                        p99_ttft_s: ttft_snap.p99().unwrap_or(0.0),
                        pools: pool_samples,
                        load_estimates: fe.load_estimates,
                        decisions: fe.decisions,
                        gossip_rounds: fe.gossip_rounds,
                        mean_staleness_s: if fe.merges == 0 {
                            0.0
                        } else {
                            fe.staleness_sum_s / fe.merges as f64
                        },
                    });
                    pct_cache = Some(cache);
                    if completed < n {
                        sampler.arm(&mut sim, Event::ObsSample);
                    }
                }
            }
        }

        let mut iter = IterStats::default();
        let mut kv = KvStats::default();
        for p in &pools {
            iter.merge(&p.iter_stats());
            kv.merge(&p.kv_stats());
        }
        let router = RouterStats::from_tier(
            self.system.front_end().stats(),
            failover_requeues,
            retry_rejects,
        );
        // Observability block: present whenever tracing or sampling ran,
        // absent (and the report bit-identical to the pre-observability
        // engine) otherwise.
        let obs = (config.trace || sampler_on).then(|| {
            let (events, dropped) = match recorder {
                Some(rec) => {
                    let lanes: Vec<LaneBuf> =
                        pools.iter_mut().filter_map(|p| p.take_obs()).collect();
                    rec.finish(lanes)
                }
                None => (Vec::new(), 0),
            };
            ObsReport {
                pools: self
                    .pool_configs
                    .iter()
                    .map(|pc| PoolMeta {
                        name: pc.name.clone(),
                        replicas: pc.replicas,
                    })
                    .collect(),
                router_replicas: replicas as u32,
                events,
                dropped,
                samples,
            }
        });
        let per_request: Vec<RequestRecord> = records
            .into_iter()
            .map(|r| r.expect("every request served"))
            .collect();
        let latency = LatencyStats::from_records(&per_request);
        EngineReport {
            engine: self.name().to_owned(),
            served: n as u64,
            offloaded,
            solicited,
            latency,
            throughput_rps: busy_interval_rps(&completions),
            // Quality averages over *executed* requests only; queue-cap
            // rejects never produced a response.
            mean_quality: {
                let executed = (n as u64).saturating_sub(iter.queue_rejects);
                if executed == 0 {
                    0.0
                } else {
                    quality_sum / executed as f64
                }
            },
            cache: cache_stats(&self.system, selection_hits, examples_used, evicted),
            iter,
            router,
            selector: selector_stats,
            kv,
            resp_cache: resp_cache.as_ref().map(|c| c.stats()).unwrap_or_default(),
            replay: replay_stats,
            obs,
            per_request,
        }
    }

    fn system(&self) -> &IcCacheSystem {
        &self.system
    }

    fn system_mut(&mut self) -> &mut IcCacheSystem {
        &mut self.system
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_cache::IcCacheConfig;
    use ic_llmsim::Generator;
    use ic_workloads::{Dataset, WorkloadGenerator, fixed_qps_arrivals};

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

    /// `n` arrivals in same-tick groups of `per_tick`, `step` seconds
    /// apart (each group shares one simulator microsecond).
    fn tick_burst_arrivals(n: usize, per_tick: usize, step: f64) -> Vec<f64> {
        (0..n).map(|i| (i / per_tick) as f64 * step).collect()
    }

    /// One engine run over `arrivals` with the given selector batch cap.
    fn run_batched(
        selector_batch: usize,
        max_queue: Option<usize>,
        arrivals: &[f64],
        seed: u64,
    ) -> EngineReport {
        let config = EngineConfig {
            selector_batch,
            max_queue,
            ..EngineConfig::default()
        };
        let (mut engine, mut wg) = seeded_engine(500, config, seed);
        let requests = wg.generate_requests(arrivals.len());
        engine.serve_workload(&requests, arrivals)
    }

    /// Drops the `selector` stats object — the one block allowed to
    /// differ between batched and sequential runs — from a report JSON.
    fn mask_selector_block(json: &str) -> String {
        let start = json.find("\"selector\":{").expect("selector block present");
        let end = start + json[start..].find('}').expect("selector block closes") + 2;
        format!("{}{}", &json[..start], &json[end..])
    }

    /// Field-level equality of the per-request joins (not serialized in
    /// `to_json`, so checked directly).
    fn assert_same_decisions(a: &EngineReport, b: &EngineReport) {
        assert_eq!(a.per_request.len(), b.per_request.len());
        for (x, y) in a.per_request.iter().zip(&b.per_request) {
            assert_eq!(x.index, y.index);
            assert_eq!(x.model, y.model);
            assert_eq!(x.offloaded, y.offloaded);
            assert_eq!(x.examples, y.examples);
            assert_eq!(x.rejected, y.rejected);
            assert_eq!(x.quality.to_bits(), y.quality.to_bits());
            assert_eq!(x.e2e_s.to_bits(), y.e2e_s.to_bits());
            assert_eq!(x.ttft_s.to_bits(), y.ttft_s.to_bits());
        }
    }

    #[test]
    fn coalesced_selector_batches_are_byte_identical_to_sequential() {
        // Groups of four arrivals share each microsecond tick: the
        // batched run must coalesce them into multi-query probes while
        // changing nothing outside the report's selector block.
        let arrivals = tick_burst_arrivals(120, 4, 0.5);
        let sequential = run_batched(0, None, &arrivals, 431);
        let batched = run_batched(8, None, &arrivals, 431);
        // The batching left a visible trace...
        assert_eq!(batched.selector.requests, 120);
        assert_eq!(batched.selector.max_batch, 4);
        assert_eq!(batched.selector.batches, 30, "four arrivals per probe");
        assert!(batched.selector.mean_batch() > 3.9);
        assert_eq!(sequential.selector.max_batch, 1);
        assert_eq!(sequential.selector.batches, 120);
        // ...and everything else is byte-identical.
        assert_same_decisions(&sequential, &batched);
        assert_ne!(sequential.to_json(), batched.to_json());
        assert_eq!(
            mask_selector_block(&sequential.to_json()),
            mask_selector_block(&batched.to_json())
        );
    }

    #[test]
    fn batch_caps_zero_and_one_disable_coalescing() {
        let arrivals = tick_burst_arrivals(40, 4, 0.5);
        for cap in [0usize, 1] {
            let report = run_batched(cap, None, &arrivals, 433);
            assert_eq!(report.selector.batch_limit, cap as u64);
            assert_eq!(report.selector.batches, 40, "cap {cap} must not batch");
            assert_eq!(report.selector.max_batch, 1);
            assert!((report.selector.mean_batch() - 1.0).abs() < 1e-12);
        }
        // A cap smaller than the tick group splits it.
        let capped = run_batched(3, None, &arrivals, 433);
        assert_eq!(capped.selector.max_batch, 3);
        assert_eq!(capped.selector.requests, 40);
    }

    #[test]
    fn arrivals_straddling_tick_boundaries_do_not_coalesce() {
        // 1 µs apart = adjacent-but-distinct simulator ticks; the batch
        // window never spans them no matter how large the cap.
        let arrivals = vec![0.0, 1e-6, 1e-6, 2e-6, 10e-6];
        let report = run_batched(64, None, &arrivals, 435);
        assert_eq!(report.selector.requests, 5);
        assert_eq!(report.selector.batches, 4, "only the tied pair merges");
        assert_eq!(report.selector.max_batch, 2);
    }

    #[test]
    fn batch_of_one_tick_is_trivially_identical() {
        // All arrivals on distinct ticks: the batched engine runs
        // singleton probes and the whole report matches byte-for-byte
        // (selector block included, because nothing ever coalesced —
        // only batch_limit differs, so mask it).
        let arrivals = fixed_qps_arrivals(2.0, 30.0, 436);
        let sequential = run_batched(0, None, &arrivals, 437);
        let batched = run_batched(8, None, &arrivals, 437);
        assert_eq!(batched.selector.max_batch, 1, "no same-tick arrivals");
        assert_eq!(batched.selector.batches, batched.selector.requests);
        assert_same_decisions(&sequential, &batched);
        assert_eq!(
            mask_selector_block(&sequential.to_json()),
            mask_selector_block(&batched.to_json())
        );
    }

    #[test]
    fn coalescing_preserves_queue_cap_rejects() {
        // A tight queue cap under same-tick bursts: rejects must land on
        // exactly the same requests with and without batching.
        let arrivals = tick_burst_arrivals(160, 8, 0.05);
        let sequential = run_batched(0, Some(2), &arrivals, 439);
        let batched = run_batched(8, Some(2), &arrivals, 439);
        assert!(
            sequential.iter.queue_rejects > 0,
            "burst must overflow the cap"
        );
        assert_eq!(sequential.iter.queue_rejects, batched.iter.queue_rejects);
        assert!(batched.selector.max_batch > 1, "bursts must coalesce");
        assert_same_decisions(&sequential, &batched);
        assert_eq!(
            mask_selector_block(&sequential.to_json()),
            mask_selector_block(&batched.to_json())
        );
    }

    #[test]
    fn admit_served_pairs_disables_coalescing() {
        // Caching served pairs mutates the index between sequential
        // arrivals, which a hoisted batch probe cannot observe: the
        // engine must fall back to singleton probes.
        let config = EngineConfig {
            selector_batch: 8,
            admit_served_pairs: true,
            ..EngineConfig::default()
        };
        let (mut engine, mut wg) = seeded_engine(300, config, 441);
        let arrivals = tick_burst_arrivals(40, 4, 0.5);
        let requests = wg.generate_requests(arrivals.len());
        let report = engine.serve_workload(&requests, &arrivals);
        assert_eq!(report.selector.max_batch, 1, "coalescing must be off");
        assert_eq!(report.selector.batches, 40);
    }

    #[test]
    fn serves_a_trace_end_to_end() {
        let (mut engine, mut wg) = seeded_engine(600, EngineConfig::default(), 401);
        let arrivals = fixed_qps_arrivals(2.0, 60.0, 402);
        let requests = wg.generate_requests(arrivals.len());
        let report = engine.serve_workload(&requests, &arrivals);
        assert_eq!(report.served, arrivals.len() as u64);
        assert_eq!(report.per_request.len(), arrivals.len());
        assert!(report.latency.mean_e2e > 0.0);
        assert!(report.latency.p99_e2e >= report.latency.p50_e2e);
        assert!(report.cache.shards >= 2);
        assert!(report.throughput_rps > 0.0);
        for r in &report.per_request {
            assert!(r.e2e_s >= r.ttft_s);
            assert!(r.ttft_s >= r.queue_s);
        }
        // Iteration-level scheduling leaves a visible trace.
        assert!(report.iter.steps > 0);
        assert!(report.iter.decode_steps > 0);
        assert!(report.iter.chunk_steps > 0, "chunked prefill exercised");
        assert!(report.iter.mean_step_batch() >= 1.0);
        assert!(report.iter.chunked_prefill_ratio() > 0.0);
        assert_eq!(report.iter.queue_rejects, 0, "unbounded queue by default");
    }

    #[test]
    fn saturation_builds_queues_and_latency() {
        let run = |qps: f64, duration: f64| {
            let (mut engine, mut wg) = seeded_engine(400, EngineConfig::default(), 403);
            let arrivals = fixed_qps_arrivals(qps, duration, 404);
            let requests = wg.generate_requests(arrivals.len());
            engine.serve_workload(&requests, &arrivals)
        };
        let light = run(0.3, 120.0);
        // 15 small-model replicas x 8 slots absorb roughly 45 rps even
        // with everything offloaded; 60 rps exceeds cluster capacity.
        let heavy = run(60.0, 30.0);
        assert!(
            heavy.latency.mean_e2e > light.latency.mean_e2e,
            "saturation must raise latency: {} vs {}",
            light.latency.mean_e2e,
            heavy.latency.mean_e2e
        );
        assert!(
            heavy.latency.mean_queue > light.latency.mean_queue,
            "saturation must build queues"
        );
        // Deep queues trigger per-token preemption; light load does not.
        assert!(
            heavy.iter.preemptions > light.iter.preemptions,
            "saturation should preempt: {} vs {}",
            light.iter.preemptions,
            heavy.iter.preemptions
        );
        assert!(
            heavy.iter.mean_step_batch() > light.iter.mean_step_batch(),
            "saturation should deepen batches: {} vs {} (kv: {:?})",
            light.iter.mean_step_batch(),
            heavy.iter.mean_step_batch(),
            heavy.kv,
        );
    }

    #[test]
    fn overload_sheds_traffic_to_the_small_pool() {
        // The closed loop: fast arrivals -> load estimate spikes ->
        // router bias pushes decisions off the expensive primary.
        let run = |qps: f64| {
            let (mut engine, mut wg) = seeded_engine(800, EngineConfig::default(), 405);
            let arrivals = fixed_qps_arrivals(qps, 240.0, 406);
            let requests = wg.generate_requests(arrivals.len());
            engine.serve_workload(&requests, &arrivals).offload_ratio()
        };
        let calm = run(0.2);
        let overloaded = run(10.0);
        assert!(
            overloaded > calm,
            "overload should raise the offload ratio: {calm} vs {overloaded}"
        );
        assert!(
            overloaded > 0.5,
            "deep overload should mostly offload: {overloaded}"
        );
    }

    #[test]
    fn queue_cap_rejects_surface_in_the_report() {
        let config = EngineConfig {
            max_queue: Some(2),
            ..EngineConfig::default()
        };
        let (mut engine, mut wg) = seeded_engine(300, config, 411);
        // Far past capacity so queues overflow the tiny cap.
        let arrivals = fixed_qps_arrivals(80.0, 20.0, 412);
        let requests = wg.generate_requests(arrivals.len());
        let report = engine.serve_workload(&requests, &arrivals);
        assert!(report.iter.queue_rejects > 0, "cap must reject under burst");
        let rejected_records = report.per_request.iter().filter(|r| r.rejected).count() as u64;
        assert_eq!(rejected_records, report.iter.queue_rejects);
        // Rejected requests carry zero timings and are excluded from
        // latency aggregates.
        assert!(
            report
                .per_request
                .iter()
                .filter(|r| r.rejected)
                .all(|r| r.e2e_s == 0.0)
        );
    }

    #[test]
    fn kv_block_accounting_rides_in_the_report() {
        let (mut engine, mut wg) = seeded_engine(400, EngineConfig::default(), 421);
        let arrivals = fixed_qps_arrivals(2.0, 60.0, 422);
        let requests = wg.generate_requests(arrivals.len());
        let report = engine.serve_workload(&requests, &arrivals);
        assert!(report.kv.total_blocks > 0, "KV modeling on by default");
        assert!(report.kv.allocs > 0, "sequences claimed blocks");
        assert_eq!(report.kv.allocs, report.kv.frees, "blocks conserved");
        assert!(report.kv.peak_blocks > 0);
        assert!(report.kv.mean_occupancy() > 0.0);
        assert!(report.kv.peak_occupancy() <= 1.0);
        assert!(report.to_json().contains("\"kv\":{"));
    }

    #[test]
    fn tight_kv_budget_preempts_under_pressure() {
        // Shrink the per-replica budget until bursts cannot hold every
        // sequence's KV: preemption must fire on memory pressure even
        // though the quantum (slot-demand) preemption is disabled. The
        // budget holds three or four typical sequences, so admitted
        // batches collide mid-decode (a budget below a single sequence
        // would just window — no victims to preempt).
        let config = EngineConfig {
            preempt_decode_quantum: 0,
            kv_block_tokens: 16,
            kv_budget_blocks: 128,
            ..EngineConfig::default()
        };
        let (mut engine, mut wg) = seeded_engine(400, config, 423);
        let arrivals = fixed_qps_arrivals(20.0, 30.0, 424);
        let requests = wg.generate_requests(arrivals.len());
        let report = engine.serve_workload(&requests, &arrivals);
        assert_eq!(report.iter.preemptions, 0, "quantum preemption off");
        assert!(
            report.kv.pressure_preemptions > 0,
            "tight budget must trigger pressure preemption: {:?}",
            report.kv
        );
        assert_eq!(report.kv.swap_ins, report.kv.swap_outs);
        assert_eq!(report.kv.allocs, report.kv.frees, "no leaked blocks");
        assert!(report.latency.mean_e2e > 0.0);
    }

    #[test]
    fn rebalance_keeps_the_sharded_cache_under_budget() {
        let config = EngineConfig {
            rebalance_period_s: 5.0,
            admit_served_pairs: true,
            ..EngineConfig::default()
        };
        let (mut engine, mut wg) = seeded_engine(300, config, 407);
        let cap = engine.system().manager().cache().total_bytes() / 2;
        engine.system_mut().set_cache_capacity(Some(cap));
        let arrivals = fixed_qps_arrivals(4.0, 120.0, 408);
        let requests = wg.generate_requests(arrivals.len());
        let report = engine.serve_workload(&requests, &arrivals);
        assert!(report.cache.evicted > 0, "budget pressure must evict");
        assert!(
            report.cache.bytes <= cap,
            "cache must respect the byte budget: {} > {cap}",
            report.cache.bytes
        );
        assert_eq!(
            report.cache.shard_sizes.iter().sum::<usize>(),
            report.cache.examples
        );
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let run = |config: &EngineConfig, seed: u64, qps: f64, secs: f64| {
            let (mut engine, mut wg) = seeded_engine(500, config.clone(), seed);
            let arrivals = fixed_qps_arrivals(qps, secs, seed + 1);
            let requests = wg.generate_requests(arrivals.len());
            engine.serve_workload(&requests, &arrivals)
        };
        let default = EngineConfig::default();
        assert_eq!(
            run(&default, 409, 3.0, 90.0).to_json(),
            run(&default, 409, 3.0, 90.0).to_json()
        );
    }

    /// One engine run with the look-ahead window set on top of the
    /// default config.
    fn run_replay(window_s: f64, arrivals: &[f64], seed: u64) -> EngineReport {
        let config = EngineConfig {
            selector_batch: 8,
            selector_window_s: window_s,
            ..EngineConfig::default()
        };
        let (mut engine, mut wg) = seeded_engine(500, config, seed);
        let requests = wg.generate_requests(arrivals.len());
        engine.serve_workload(&requests, arrivals)
    }

    #[test]
    fn windowed_lookahead_is_byte_identical_to_sequential() {
        // A two-second look-ahead window over a 4 QPS trace: probes
        // hoist ~8 arrivals at a time, every arrival consumes a
        // precomputed selection, and nothing outside the selector stats
        // block may move.
        let arrivals = fixed_qps_arrivals(4.0, 60.0, 452);
        let sequential = run_batched(0, None, &arrivals, 451);
        let windowed = run_replay(2.0, &arrivals, 451);
        assert_eq!(windowed.replay.preselects, arrivals.len() as u64);
        assert!(windowed.replay.preselect_hits > 0);
        assert_eq!(
            windowed.replay.preselects,
            windowed.replay.preselect_hits
                + windowed.replay.stage1_reuses
                + windowed.replay.invalidations,
            "every precomputed entry is consumed exactly once: {:?}",
            windowed.replay
        );
        assert!(
            windowed.selector.max_batch > 1,
            "the window must coalesce probes"
        );
        assert_same_decisions(&sequential, &windowed);
        assert_eq!(
            mask_selector_block(&sequential.to_json()),
            mask_selector_block(&windowed.to_json())
        );
    }

    #[test]
    fn window_spans_tick_boundaries() {
        // Same-tick coalescing (window 0) can only merge the four
        // arrivals sharing a microsecond; a 2 s window must batch
        // across tick groups, and stay byte-identical.
        let arrivals = tick_burst_arrivals(96, 4, 0.5);
        let sequential = run_batched(0, None, &arrivals, 453);
        let same_tick = run_batched(8, None, &arrivals, 453);
        let windowed = run_replay(2.0, &arrivals, 453);
        assert_eq!(same_tick.selector.max_batch, 4);
        assert!(
            windowed.selector.max_batch > 4,
            "the window must straddle ticks: {:?}",
            windowed.selector
        );
        assert_same_decisions(&sequential, &windowed);
        assert_eq!(
            mask_selector_block(&sequential.to_json()),
            mask_selector_block(&windowed.to_json())
        );
    }

    #[test]
    fn admit_served_pairs_disables_the_window() {
        let config = EngineConfig {
            selector_window_s: 5.0,
            admit_served_pairs: true,
            ..EngineConfig::default()
        };
        let (mut engine, mut wg) = seeded_engine(300, config, 455);
        let arrivals = tick_burst_arrivals(40, 4, 0.5);
        let requests = wg.generate_requests(arrivals.len());
        let report = engine.serve_workload(&requests, &arrivals);
        assert_eq!(report.replay.preselects, 0, "window must be off");
        assert_eq!(report.selector.max_batch, 1);
    }

    #[test]
    fn parallel_stepping_survives_outages_and_gossip() {
        // Failover flushes (pool epochs), retries and multi-replica
        // gossip rounds interleave with pool steps in one run; the
        // replay must stay bit-identical through them.
        let arrivals = fixed_qps_arrivals(25.0, 40.0, 461);
        let run = || {
            let config = EngineConfig {
                router_replicas: 3,
                gossip_period_s: 5.0,
                pool_outages: vec![PoolOutage {
                    pool: 0,
                    at_s: 10.0,
                    duration_s: 15.0,
                }],
                ..EngineConfig::default()
            };
            let (mut engine, mut wg) = seeded_engine(500, config, 460);
            let requests = wg.generate_requests(arrivals.len());
            engine.serve_workload(&requests, &arrivals)
        };
        let first = run();
        let second = run();
        assert!(first.router.failover_requeues > 0, "outage must bite");
        assert!(first.router.gossip_rounds > 0, "replicas must gossip");
        assert_same_decisions(&first, &second);
        assert_eq!(first.to_json(), second.to_json());
    }
}
