//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Generates the workload's inputs from the seed, then sets the program
//! up and replays the trace, slice by slice, again and again for
//! `--seconds` (at least [`MIN_REPS`] times), checking every replay's
//! output. The last line of standard output is one JSON object: the
//! end-to-end metrics with `--trace 0`, the per-layer split with
//! `--trace 1`. Everything runs in this process, on one thread.
//!
//! Replay throughput takes, slice by slice, the fastest of the run's
//! replays: every replay does the same deterministic work, and on a
//! shared host interference from other tenants only ever adds time, in
//! bursts shorter than a second. A slice replays in about 0.1 s. The
//! end-to-end times are then rescaled to a nominal host speed by the
//! fastest reference pass timed between the run's reps (see `calib`);
//! the raw values are printed beside them.

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use ic_engine::{EngineConfig, EngineReport, RequestRecord, ServingEngine};
use perfbench::calib::Reference;
use perfbench::check::{Fnv, check_report, quality_mean, slo_attainment};
use perfbench::layers::{Layer, Split, decomposed};
use perfbench::stats::{Tail, median, percentile};
use perfbench::workload::{Inputs, SLICE, Slice, Workload, generate, set_up};

/// Fewest setup + replay repetitions a run makes, whatever `--seconds`.
const MIN_REPS: usize = 3;

/// Traced-engine replays, and decomposed passes, per `--trace 1` run.
const TRACED_REPS: usize = 3;

/// The simulated time-to-first-token limit of `slo_attainment_ttft_60s`.
const SLO_TTFT_S: f64 = 60.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if s == 0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Measured results of one run, plus what the checks found.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    digest: Option<u64>,
    capacity_bytes: Option<usize>,
}

impl Tally {
    /// Checks one replay (its slices' reports) and folds it in. Every
    /// replay of one set of inputs, traced or not, must give the same
    /// report bytes.
    fn replay(&mut self, label: &str, reports: &[EngineReport], slices: &[Slice]) {
        let mut digest = Fnv::new();
        let (mut sent, mut served, mut refused, mut hits, mut offloaded) = (0, 0, 0, 0, 0);
        for (report, slice) in reports.iter().zip(slices) {
            digest.bytes(report.to_json().as_bytes());
            let n = slice.range.len();
            sent += n as u64;
            match check_report(report, n) {
                Ok(a) => {
                    served += a.served;
                    refused += a.refused;
                    hits += a.stage0_hits;
                    offloaded += report.offloaded;
                }
                Err(e) => {
                    refused += n as u64;
                    self.errors
                        .push(format!("{label}, slice at {}: {e}", slice.range.start));
                }
            }
        }
        self.attempted += sent;
        self.failed += refused;
        let digest = digest.finish();
        let ttft: Vec<f64> = records(reports).map(|r| r.ttft_s).collect();
        println!(
            "{label}: sent={sent} served={served} refused={refused} stage0_hits={hits} offloaded={offloaded} sim_ttft_p50_s={:.3} sim_ttft_p90_s={:.3} digest={digest:016x}",
            percentile(&ttft, 50.0),
            percentile(&ttft, 90.0),
        );
        match self.digest {
            None => self.digest = Some(digest),
            Some(d) if d != digest => {
                self.errors.push(format!(
                    "{label}: digest {digest:016x} differs from {d:016x}"
                ));
            }
            Some(_) => {}
        }
    }
}

/// Every request record of one replay, in arrival order.
fn records(reports: &[EngineReport]) -> impl Iterator<Item = &RequestRecord> {
    reports.iter().flat_map(|r| &r.per_request)
}

/// Wall times of one setup + replay.
struct Rep {
    setup_s: f64,
    build_s: f64,
    warmup_s: f64,
    slice_walls: Vec<f64>,
}

/// Sets up, replays every slice and checks once.
fn rep(
    args: &Args,
    inputs: &Inputs,
    slices: &[Slice],
    config: EngineConfig,
    label: &str,
    tally: &mut Tally,
) -> (Rep, Vec<EngineReport>) {
    let mut setup = set_up(args.workload, inputs, config);
    let mut slice_walls = Vec::with_capacity(slices.len());
    let reports: Vec<EngineReport> = slices
        .iter()
        .map(|s| {
            let start = Instant::now();
            let report = setup
                .engine
                .serve_workload(&inputs.requests[s.range.clone()], &s.arrivals);
            slice_walls.push(start.elapsed().as_secs_f64());
            report
        })
        .collect();
    tally.replay(label, &reports, slices);
    tally.capacity_bytes = setup.capacity_bytes;
    println!(
        "{label}: setup_s={:.4} build_s={:.4} warmup_s={:.4} replay_s={:.4}",
        setup.total_s,
        setup.build_s,
        setup.warmup_s,
        slice_walls.iter().sum::<f64>()
    );
    let rep = Rep {
        setup_s: setup.total_s,
        build_s: setup.build_s,
        warmup_s: setup.warmup_s,
        slice_walls,
    };
    (rep, reports)
}

/// What the untraced reps of a run measured.
struct Untraced {
    reps: Vec<Rep>,
    /// The first replay's reports.
    first: Vec<EngineReport>,
    /// Peak RSS after the first rep, before any reference sample.
    peak_rss_mib: f64,
    reference: Reference,
}

/// Untraced reps for `--seconds`, at least [`MIN_REPS`], each followed
/// by a reference sample.
fn untraced_reps(args: &Args, inputs: &Inputs, slices: &[Slice], tally: &mut Tally) -> Untraced {
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut first = None;
    let mut peak_rss_mib = f64::NAN;
    let mut reference = Reference::new();
    while reps.len() < MIN_REPS || start.elapsed().as_secs() < args.seconds {
        let label = format!("rep {}", reps.len());
        let config = args.workload.engine_config();
        let (r, reports) = rep(args, inputs, slices, config, &label, tally);
        if first.is_none() {
            first = Some(reports);
            peak_rss_mib = read_peak_rss_mib().unwrap_or(f64::NAN);
        }
        reps.push(r);
        reference.sample();
    }
    Untraced {
        reps,
        first: first.expect("at least one rep"),
        peak_rss_mib,
        reference,
    }
}

/// Replay wall: slice by slice, the fastest of `reps`.
fn fastest_replay_s(reps: &[Rep]) -> f64 {
    (0..reps[0].slice_walls.len())
        .map(|k| {
            reps.iter()
                .map(|r| r.slice_walls[k])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// Process high-water resident set, MiB (`VmHWM`).
fn read_peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The commit the checkout was made from, when it carries `.git`.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unavailable".into(),
    }
}

/// FNV-1a over the program's sources (`crates/`, `vendor/`, the root
/// manifest and lock file), identifying the revision without git.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, files);
                }
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("vendor"), &mut files);
    files.sort();
    let mut h = Fnv::new();
    for f in files {
        h.bytes(f.to_string_lossy().as_bytes());
        h.bytes(&std::fs::read(&f).unwrap_or_default());
    }
    h.finish()
}

/// The resolved configuration, printed beside the result.
fn config_line(args: &Args, inputs: &Inputs, capacity: Option<usize>) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let sizes = args.workload.sizes();
    format!(
        concat!(
            "config {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},",
            "\"bank\":{},\"warmup\":{},\"trace_minutes\":{},\"requests\":{},\"slice\":{},",
            "\"bank_digest\":\"{:016x}\",\"traffic_digest\":\"{:016x}\",",
            "\"cache_capacity_bytes\":{},\"slo_ttft_s\":{},\"nproc\":{},",
            "\"git_revision\":\"{}\",\"source_digest\":\"{:016x}\",",
            "\"engine_config\":\"{}\"}}"
        ),
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sizes.bank,
        sizes.warmup,
        sizes.minutes,
        inputs.requests.len(),
        SLICE,
        inputs.bank_digest(),
        inputs.traffic_digest(),
        capacity.map_or("null".into(), |c| c.to_string()),
        SLO_TTFT_S,
        nproc,
        git_revision(),
        source_digest(),
        format!("{:?}", args.workload.engine_config()).replace('"', "'"),
    )
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn result_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        tally.attempted, tally.failed
    );
    for (i, x) in metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        write!(
            s,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            x.name, x.value, x.unit
        )
        .expect("write to String");
    }
    s.push_str("}}");
    s
}

fn end_to_end(args: &Args, inputs: &Inputs, tally: &mut Tally) -> Vec<Metric> {
    let slices = inputs.slices();
    let Untraced {
        reps,
        first,
        peak_rss_mib,
        reference,
    } = untraced_reps(args, inputs, &slices, tally);
    let host = reference.host_factor();
    let setup_s = median(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>());
    let replay_s = fastest_replay_s(&reps);
    let rps = inputs.requests.len() as f64 / replay_s;
    println!(
        "raw: setup_s={setup_s:.4} replay_s={replay_s:.4} replay_rps={rps:.1}; fastest reference pass {:.4} ms, host factor {host:.4}",
        reference.fastest_s() * 1e3
    );
    vec![
        m("setup_s", setup_s / host, "s"),
        m("replay_rps", rps * host, "req/s"),
        m("peak_rss_mib", peak_rss_mib, "MiB"),
        m("quality_mean", quality_mean(records(&first)), "score"),
        m(
            "slo_attainment_ttft_60s",
            slo_attainment(records(&first), SLO_TTFT_S),
            "share",
        ),
    ]
}

fn layer_row(name: &str, l: &Layer, wall_s: f64) -> String {
    let tail = l.tail().map_or("-".into(), |t| {
        format!(
            "p{} {:.1} (n={}, {} beyond)",
            t.pct, t.value, t.samples, t.beyond
        )
    });
    format!(
        "layer {name:<22} busy_s={:.4} share={:.3} calls={} p50_us={:.1} tail_us={tail}",
        l.secs(),
        l.secs() / wall_s,
        l.calls(),
        l.p50_us(),
    )
}

fn per_layer(args: &Args, inputs: &Inputs, gen_s: f64, tally: &mut Tally) -> Vec<Metric> {
    let slices = inputs.slices();
    let Untraced {
        reps,
        first: engine,
        reference,
        ..
    } = untraced_reps(args, inputs, &slices, tally);
    let med = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let wall_s = fastest_replay_s(&reps);

    let mut traced_config = args.workload.engine_config();
    traced_config.trace = true;
    let traced: Vec<Rep> = (0..TRACED_REPS)
        .map(|k| {
            let label = format!("traced rep {k}");
            rep(args, inputs, &slices, traced_config.clone(), &label, tally).0
        })
        .collect();

    let config = args.workload.engine_config();
    let mut split: Option<Split> = None;
    for _ in 0..TRACED_REPS {
        let system = set_up(args.workload, inputs, config.clone())
            .engine
            .into_system();
        let pass = decomposed(system, &config, inputs, &slices);
        tally.attempted += inputs.requests.len() as u64;
        match split.as_mut() {
            None => split = Some(pass),
            Some(s) => s.keep_fastest(&pass),
        }
    }
    let split = split.expect("at least one decomposed pass");
    println!(
        "decomposed: served={} offloaded={} stage0_hits={} steps={} swap_outs={} | engine: served={} offloaded={} stage0_hits={} steps={} swap_outs={}",
        split.served,
        split.offloaded,
        split.resp.hits,
        split.iter.steps,
        split.kv.swap_outs,
        records(&engine).filter(|r| !r.rejected).count(),
        engine.iter().map(|r| r.offloaded).sum::<u64>(),
        engine.iter().map(|r| r.resp_cache.hits).sum::<u64>(),
        engine.iter().map(|r| r.iter.steps).sum::<u64>(),
        engine.iter().map(|r| r.kv.swap_outs).sum::<u64>(),
    );
    if split.served != inputs.requests.len() as u64 {
        tally.failed += inputs.requests.len() as u64 - split.served;
        tally
            .errors
            .push(format!("decomposed pass served {}", split.served));
    }
    for (name, l) in split.replay_layers() {
        println!("{}", layer_row(name, l, wall_s));
    }
    let residual_s = split.residual_s(wall_s);
    println!(
        "replay wall_s={wall_s:.4} = layers {:.4} + residual {residual_s:.4}",
        split.busy_s()
    );

    let tail_us = |l: &Layer| l.tail().map_or(f64::NAN, |t: Tail| t.value);
    let share = |l: &Layer| l.secs() / wall_s;
    vec![
        m("workloads.gen_s", gen_s, "s"),
        m("vecindex.build_s", med(|r| r.build_s), "s"),
        m("core.warmup_s", med(|r| r.warmup_s), "s"),
        m("selector.stage1_s", split.stage1.secs(), "s"),
        m(
            "selector.stage1_calls",
            split.stage1.calls() as f64,
            "count",
        ),
        m("selector.stage1_p50_us", split.stage1.p50_us(), "us"),
        m("selector.stage1_tail_us", tail_us(&split.stage1), "us"),
        m("selector.stage2_s", split.stage2.secs(), "s"),
        m("selector.stage2_p50_us", split.stage2.p50_us(), "us"),
        m("selector.stage2_tail_us", tail_us(&split.stage2), "us"),
        m("core.serve_routed_s", split.serve_routed.secs(), "s"),
        m(
            "core.serve_routed_p50_us",
            split.serve_routed.p50_us(),
            "us",
        ),
        m(
            "core.serve_routed_tail_us",
            tail_us(&split.serve_routed),
            "us",
        ),
        m("manager.admit_calls", split.admit.calls() as f64, "count"),
        m("manager.admit_share", share(&split.admit), "share"),
        m(
            "manager.maintenance_share",
            share(&split.maintenance),
            "share",
        ),
        m("manager.rebalance_share", share(&split.rebalance), "share"),
        m(
            "respcache.lookup_share",
            share(&split.stage0_lookup) + share(&split.stage0_admit),
            "share",
        ),
        m("respcache.hit_ratio", split.resp.hit_ratio(), "share"),
        m("serving.run_s", split.serving_run.secs(), "s"),
        m("serving.steps", split.iter.steps as f64, "count"),
        m("serving.mean_batch", split.iter.mean_step_batch(), "seqs"),
        m("kvmem.swap_outs", split.kv.swap_outs as f64, "count"),
        m("kvmem.peak_occupancy", split.kv_peak_occupancy, "share"),
        m("kvmem.dedup_ratio", split.kv.dedup_ratio(), "share"),
        m("engine.replay_wall_s", wall_s, "s"),
        m("engine.residual_s", residual_s, "s"),
        m(
            "obs.trace_overhead",
            fastest_replay_s(&traced) / wall_s,
            "ratio",
        ),
        m("host.ref_pass_ms", reference.fastest_s() * 1e3, "ms"),
    ]
}

fn main() -> ExitCode {
    let mut ic_vars: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("IC_"))
        .collect();
    if !ic_vars.is_empty() {
        ic_vars.sort();
        eprintln!(
            "perfbench: refusing to run with IC_* variables set ({}); the benchmark fixes its own configuration",
            ic_vars.join(", ")
        );
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };

    let gen_start = Instant::now();
    let inputs = generate(args.workload, args.workload.sizes(), args.seed);
    let gen_s = gen_start.elapsed().as_secs_f64();
    println!("inputs: gen_s={gen_s:.4}");

    let mut tally = Tally::default();
    let metrics = if args.trace {
        per_layer(&args, &inputs, gen_s, &mut tally)
    } else {
        end_to_end(&args, &inputs, &mut tally)
    };
    for x in &metrics {
        if !x.value.is_finite() {
            tally.errors.push(format!("{} is {}", x.name, x.value));
        }
    }
    println!("{}", config_line(&args, &inputs, tally.capacity_bytes));
    for e in &tally.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = tally.errors.is_empty();
    let metrics: Vec<Metric> = metrics
        .into_iter()
        .map(|x| Metric {
            value: if x.value.is_finite() { x.value } else { -1.0 },
            ..x
        })
        .collect();
    println!("{}", result_line(correct, &tally, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
