//! Periodic event scheduling on the simulation kernel.
//!
//! Several subsystems fire on a fixed cadence — cache maintenance,
//! cross-shard rebalance, and the router tier's gossip rounds. The
//! pattern is always the same: schedule the first occurrence one period
//! in, and re-arm from the handler while work remains. [`Periodic`]
//! captures that pattern (including the "period zero disables the
//! event" convention) so drivers cannot drift on the details.

use crate::sim::Simulator;
use crate::time::SimDuration;

/// A fixed-cadence event source. Construction validates the period;
/// a disabled source (period `<= 0` or non-finite) arms nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Periodic {
    period: Option<SimDuration>,
}

impl Periodic {
    /// A source firing every `period_secs` simulated seconds; any
    /// non-positive or non-finite period disables it.
    pub fn every_secs(period_secs: f64) -> Self {
        Self {
            period: (period_secs.is_finite() && period_secs > 0.0)
                .then(|| SimDuration::from_secs_f64(period_secs)),
        }
    }

    /// Whether this source ever fires.
    pub fn enabled(&self) -> bool {
        self.period.is_some()
    }

    /// Arms the next occurrence, one period after the simulator's
    /// current instant (used both for the first arm at time zero and
    /// for re-arming from the handler). Returns whether an event was
    /// scheduled.
    pub fn arm<E>(&self, sim: &mut Simulator<E>, event: E) -> bool {
        match self.period {
            Some(p) => {
                sim.schedule_in(p, event);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn fires_on_the_configured_cadence() {
        let tick = Periodic::every_secs(0.5);
        assert!(tick.enabled());
        let mut sim: Simulator<u32> = Simulator::new();
        assert!(tick.arm(&mut sim, 0));
        let mut fired = Vec::new();
        sim.run(|sim, n| {
            fired.push((sim.now(), n));
            if n < 3 {
                tick.arm(sim, n + 1);
            }
        });
        assert_eq!(fired.len(), 4);
        assert_eq!(fired[0].0, SimTime::from_secs_f64(0.5));
        assert_eq!(fired[3].0, SimTime::from_secs_f64(2.0));
    }

    #[test]
    fn non_positive_or_nan_periods_disable() {
        for period in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let tick = Periodic::every_secs(period);
            assert!(!tick.enabled(), "period {period} must disable");
            let mut sim: Simulator<()> = Simulator::new();
            assert!(!tick.arm(&mut sim, ()));
            assert!(sim.is_empty());
        }
    }
}
