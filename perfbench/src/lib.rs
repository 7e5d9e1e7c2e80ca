//! Wall-clock benchmark of the IC-Cache reproduction: program setup and
//! replay throughput on three traffic mixes, with a per-layer split of
//! the replay timed at public calls. See `NOTES.md` for the metrics and
//! why each workload exists.

pub mod calib;
pub mod check;
pub mod layers;
pub mod stats;
pub mod workload;
