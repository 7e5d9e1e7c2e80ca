//! Checks of the benchmark's own machinery, at small input sizes.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::time::Instant;

use ic_engine::ServingEngine;
use perfbench::check::check_report;
use perfbench::layers::decomposed;
use perfbench::stats::{TAIL_BEYOND, tail};
use perfbench::workload::{SLICE, Sizes, Workload, generate, set_up};

const SMALL: Sizes = Sizes {
    bank: 300,
    warmup: 30,
    minutes: 30,
};

#[test]
fn same_seed_gives_identical_inputs_and_another_seed_different_ones() {
    for w in Workload::ALL {
        let a = generate(w, SMALL, 11);
        let b = generate(w, SMALL, 11);
        let ids = |i: &perfbench::workload::Inputs| -> Vec<u64> {
            i.requests.iter().map(|r| r.id.0).collect()
        };
        assert_eq!(a.arrivals, b.arrivals, "{}", w.name());
        assert_eq!(ids(&a), ids(&b), "{}", w.name());
        assert_eq!(a.bank_digest(), b.bank_digest(), "{}", w.name());
        assert_eq!(a.traffic_digest(), b.traffic_digest(), "{}", w.name());

        let c = generate(w, SMALL, 12);
        assert_ne!(a.arrivals, c.arrivals, "{}", w.name());
        assert_ne!(a.bank_digest(), c.bank_digest(), "{}", w.name());
        assert_ne!(a.traffic_digest(), c.traffic_digest(), "{}", w.name());
    }
}

#[test]
fn slices_cover_the_trace_once_from_time_zero() {
    let inputs = generate(Workload::Paper40k, SMALL, 9);
    let slices = inputs.slices();
    assert!(slices.len() > 1, "the small trace spans several slices");
    let mut next = 0;
    for s in &slices {
        assert_eq!(s.range.start, next);
        assert!(s.range.len() <= SLICE && s.range.len() == s.arrivals.len());
        assert_eq!(s.arrivals[0], 0.0);
        assert!(s.arrivals.windows(2).all(|w| w[0] <= w[1]));
        next = s.range.end;
    }
    assert_eq!(next, inputs.requests.len());
}

#[test]
fn burst_workload_repeats_each_request_eight_times() {
    let inputs = generate(Workload::BurstRepeat2k, SMALL, 3);
    for (i, r) in inputs.requests.iter().enumerate() {
        let head = i - i % 8;
        assert_eq!(r.id, inputs.requests[head].id);
        assert_eq!(inputs.arrivals[i], inputs.arrivals[head]);
    }
}

#[test]
fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
    let series = |n: usize| -> Vec<f64> { (1..=n).rev().map(|x| x as f64).collect() };

    // 1000 samples: p99 sits at rank 990 with exactly 10 beyond.
    let t = tail(&series(1000)).expect("enough samples");
    assert_eq!(
        (t.pct, t.value, t.samples, t.beyond),
        (99.0, 990.0, 1000, 10)
    );

    // 999 samples leave only 9 beyond p99, so p90 is reported.
    let t = tail(&series(999)).expect("enough samples");
    assert_eq!(
        (t.pct, t.value, t.samples, t.beyond),
        (90.0, 900.0, 999, 99)
    );

    // 100 000 samples support p99.99 (10 beyond rank 99 990).
    let t = tail(&series(100_000)).expect("enough samples");
    assert_eq!((t.pct, t.beyond), (99.99, 10));

    // 20 samples support only the median; 19 support nothing.
    let t = tail(&series(20)).expect("enough samples");
    assert_eq!((t.pct, t.value, t.beyond), (50.0, 10.0, TAIL_BEYOND));
    assert_eq!(tail(&series(19)), None);
}

#[test]
fn layer_busy_time_plus_residual_is_the_replay_wall() {
    for w in Workload::ALL {
        let inputs = generate(w, SMALL, 5);
        let mut setup = set_up(w, &inputs, w.engine_config());
        let mut wall_s = 0.0;
        for s in inputs.slices() {
            let start = Instant::now();
            let report = setup
                .engine
                .serve_workload(&inputs.requests[s.range.clone()], &s.arrivals);
            wall_s += start.elapsed().as_secs_f64();
            check_report(&report, s.range.len()).expect("engine output passes its checks");
        }

        let config = w.engine_config();
        let system = set_up(w, &inputs, config.clone()).engine.into_system();
        let split = decomposed(system, &config, &inputs, &inputs.slices());
        assert_eq!(split.served, inputs.requests.len() as u64, "{}", w.name());

        let layers: f64 = split.replay_layers().iter().map(|(_, l)| l.secs()).sum();
        assert_eq!(layers, split.busy_s(), "{}", w.name());
        let residual = split.residual_s(wall_s);
        assert!(
            (layers + residual - wall_s).abs() < 1e-9,
            "{}: {layers} + {residual} != {wall_s}",
            w.name()
        );
        assert!(split.stage1.calls() > 0);
        assert_eq!(split.serving_run.calls(), inputs.slices().len());
    }
}

#[test]
fn output_checks_catch_lost_requests_and_bad_latencies() {
    let w = Workload::Paper40k;
    let inputs = generate(w, SMALL, 7);
    let mut setup = set_up(w, &inputs, w.engine_config());
    let s = &inputs.slices()[0];
    let report = setup
        .engine
        .serve_workload(&inputs.requests[s.range.clone()], &s.arrivals);
    let sent = s.range.len();
    let a = check_report(&report, sent).expect("a clean replay passes");
    assert_eq!(a.served + a.refused, a.sent);

    let mut lost = report.clone();
    lost.per_request.pop();
    assert!(check_report(&lost, sent).is_err());

    let mut negative = report.clone();
    negative.per_request[0].ttft_s = -1.0;
    assert!(check_report(&negative, sent).is_err());

    let mut infinite = report.clone();
    infinite.per_request[1].e2e_s = f64::INFINITY;
    assert!(check_report(&infinite, sent).is_err());

    let mut refused = report;
    refused.per_request[2].rejected = true;
    assert!(
        check_report(&refused, sent).is_err(),
        "a refusal the scheduler never counted is an accounting error"
    );
}
