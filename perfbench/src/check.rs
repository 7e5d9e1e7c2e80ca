//! Output checks on every replay, and the digest that identifies a
//! replay's output.

use ic_engine::{EngineReport, RequestRecord};

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The FNV offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a `u64` in (little-endian).
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Folds the bit patterns of `f32`s in.
    pub fn f32s(&mut self, xs: &[f32]) {
        for x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

/// Where every sent request of one replay ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Accounting {
    /// Requests sent.
    pub sent: u64,
    /// Requests that got a response (stage-0 hits included).
    pub served: u64,
    /// Requests refused by a queue cap.
    pub refused: u64,
    /// Requests answered by the stage-0 response cache.
    pub stage0_hits: u64,
}

/// Checks one replay's report against the `sent` requests: every
/// request is accounted for exactly once, and every latency is finite
/// and non-negative. Returns the accounting, or what is wrong.
pub fn check_report(report: &EngineReport, sent: usize) -> Result<Accounting, String> {
    if report.per_request.len() != sent {
        return Err(format!(
            "{} records for {sent} sent requests",
            report.per_request.len()
        ));
    }
    if report.served != sent as u64 {
        return Err(format!("report counts {} of {sent} sent", report.served));
    }
    let mut refused = 0u64;
    for (i, r) in report.per_request.iter().enumerate() {
        if r.index != i {
            return Err(format!("record {i} carries index {}", r.index));
        }
        for (name, v) in [
            ("arrival", r.arrival_s),
            ("queue", r.queue_s),
            ("ttft", r.ttft_s),
            ("e2e", r.e2e_s),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("request {i}: {name} latency {v}"));
            }
        }
        if r.rejected {
            refused += 1;
        } else if r.ttft_s > r.e2e_s {
            return Err(format!(
                "request {i}: ttft {} after completion {}",
                r.ttft_s, r.e2e_s
            ));
        }
    }
    let l = &report.latency;
    for (name, v) in [
        ("mean_e2e", l.mean_e2e),
        ("p50_e2e", l.p50_e2e),
        ("p99_e2e", l.p99_e2e),
        ("mean_ttft", l.mean_ttft),
        ("p99_ttft", l.p99_ttft),
        ("mean_queue", l.mean_queue),
    ] {
        if !(v.is_finite() && v >= 0.0) {
            return Err(format!("aggregate {name} latency {v}"));
        }
    }
    if refused != report.iter.queue_rejects {
        return Err(format!(
            "{refused} refused records but {} queue rejects",
            report.iter.queue_rejects
        ));
    }
    let served = sent as u64 - refused;
    let stage0_hits = report.resp_cache.hits;
    if stage0_hits > served {
        return Err(format!("{stage0_hits} stage-0 hits exceed {served} served"));
    }
    Ok(Accounting {
        sent: sent as u64,
        served,
        refused,
        stage0_hits,
    })
}

/// Share of sent requests (`records`) served with a simulated time to
/// first token of at most `limit_s`; refused requests count as misses.
pub fn slo_attainment<'a>(records: impl Iterator<Item = &'a RequestRecord>, limit_s: f64) -> f64 {
    let (mut sent, mut met) = (0usize, 0usize);
    for r in records {
        sent += 1;
        met += usize::from(!r.rejected && r.ttft_s <= limit_s);
    }
    met as f64 / sent.max(1) as f64
}

/// Mean latent response quality over the served requests of `records`
/// (stage-0 hits included).
pub fn quality_mean<'a>(records: impl Iterator<Item = &'a RequestRecord>) -> f64 {
    let (mut served, mut sum) = (0usize, 0.0);
    for r in records.filter(|r| !r.rejected) {
        served += 1;
        sum += r.quality;
    }
    sum / served.max(1) as f64
}
