//! Channel fault injection for the DRAM-PIM simulator.
//!
//! Production PIM deployments cannot assume every channel stays healthy:
//! channels die outright (board-level failures, retired ranks), stall
//! transiently (thermal throttling, error-recovery storms), or lose
//! bandwidth (link retraining to a lower rate). A [`FaultPlan`] describes
//! such conditions deterministically so the scheduler can route work around
//! dead channels and the timing engine can charge the stall/derate cost to
//! the channels that survive — attach a plan to the
//! [`RunOptions`](crate::timing::RunOptions) passed to
//! [`schedule`](crate::scheduler::schedule) and
//! [`run_channels`](crate::timing::run_channels).
//!
//! Plans are value types: constructing one never touches global state, and
//! [`FaultPlan::from_seed`] derives the same plan from the same seed on
//! every platform, so fault experiments replay bit-identically.

use pimflow_rng::Rng;

/// One channel's fault condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The channel is unavailable: it must receive no work at all.
    Dead,
    /// The channel freezes for `duration_cycles` once its local clock
    /// reaches `start_cycle` (error-recovery pause, thermal throttle).
    Stall {
        /// Local cycle at which the stall begins.
        start_cycle: u64,
        /// Length of the freeze in cycles.
        duration_cycles: u64,
    },
    /// The channel's I/O bus runs at `percent`% of nominal bandwidth
    /// (link retrained to a lower rate). `percent` is clamped to `1..=100`
    /// when applied.
    Derate {
        /// Remaining bandwidth as a percentage of nominal (1–100).
        percent: u8,
    },
}

/// A fault bound to a specific channel index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelFault {
    /// Channel the fault applies to.
    pub channel: usize,
    /// What is wrong with it.
    pub kind: FaultKind,
}

/// A channel's fault condition as the timing engine sees it: remaining
/// I/O bandwidth in percent and the pending stall `(start, duration)`.
pub(crate) type FaultCondition = (u32, Option<(u64, u64)>);

/// A deterministic description of which channels are faulty and how.
///
/// At most one fault is kept per channel; pushing a second fault for the
/// same channel replaces the first (last write wins), which keeps seeded
/// generation and hand-built plans equally predictable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<ChannelFault>,
}

impl FaultPlan {
    /// A plan with no faults: every channel is healthy.
    pub fn healthy() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan contains no faults at all.
    pub fn is_healthy(&self) -> bool {
        self.faults.is_empty()
    }

    /// The faults in the plan, in channel order.
    pub fn faults(&self) -> &[ChannelFault] {
        &self.faults
    }

    /// Adds (or replaces) the fault for `fault.channel`.
    pub fn push(&mut self, fault: ChannelFault) {
        self.faults.retain(|f| f.channel != fault.channel);
        self.faults.push(fault);
        self.faults.sort_by_key(|f| f.channel);
    }

    /// Builder-style [`push`](FaultPlan::push).
    pub fn with(mut self, fault: ChannelFault) -> Self {
        self.push(fault);
        self
    }

    /// Derives a plan from a seed. `severity` in `[0, 1]` scales how many
    /// of the `channels` channels are affected and how badly: at 0 the plan
    /// is healthy, at 1 roughly three quarters of the channels carry some
    /// fault. At least one channel is always left fully healthy so a PIM
    /// workload can still make progress.
    pub fn from_seed(seed: u64, channels: usize, severity: f64) -> Self {
        let severity = severity.clamp(0.0, 1.0);
        let mut rng = Rng::seed_from_u64(seed);
        let mut plan = FaultPlan::healthy();
        if channels == 0 || severity == 0.0 {
            return plan;
        }
        // One channel is exempted from faults so capacity never hits zero.
        let spared = rng.below(channels as u64) as usize;
        for ch in 0..channels {
            // Draw the per-channel randomness unconditionally so the set of
            // faulty channels is a stable function of (seed, channels) and
            // only *grows* with severity.
            let roll = rng.next_f64();
            let kind_roll = rng.next_f64();
            let start = rng.below(20_000);
            let duration = 1_000 + rng.below(49_000);
            let percent = 25 + rng.below(50) as u8;
            if ch == spared || roll >= severity * 0.75 {
                continue;
            }
            let kind = if kind_roll < 1.0 / 3.0 {
                FaultKind::Dead
            } else if kind_roll < 2.0 / 3.0 {
                FaultKind::Stall {
                    start_cycle: start,
                    duration_cycles: duration,
                }
            } else {
                FaultKind::Derate { percent }
            };
            plan.push(ChannelFault { channel: ch, kind });
        }
        plan
    }

    /// The fault affecting `channel`, if any.
    pub fn fault_for(&self, channel: usize) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|f| f.channel == channel)
            .map(|f| f.kind)
    }

    /// Whether `channel` is hard-failed and must receive no work.
    pub fn is_dead(&self, channel: usize) -> bool {
        matches!(self.fault_for(channel), Some(FaultKind::Dead))
    }

    /// Remaining I/O bandwidth of `channel` as a percentage (100 = nominal).
    pub fn derate_percent(&self, channel: usize) -> u32 {
        match self.fault_for(channel) {
            Some(FaultKind::Derate { percent }) => u32::from(percent).clamp(1, 100),
            _ => 100,
        }
    }

    /// The transient stall scheduled for `channel`, as
    /// `(start_cycle, duration_cycles)`.
    pub fn stall(&self, channel: usize) -> Option<(u64, u64)> {
        match self.fault_for(channel) {
            Some(FaultKind::Stall {
                start_cycle,
                duration_cycles,
            }) => Some((start_cycle, duration_cycles)),
            _ => None,
        }
    }

    /// What a channel engine knows about `channel` besides its command
    /// stream: the I/O derating and the pending stall. Two channels with
    /// equal conditions time an equal stream identically.
    pub(crate) fn condition(&self, channel: usize) -> FaultCondition {
        (self.derate_percent(channel), self.stall(channel))
    }

    /// Indices in `0..total` that are not hard-failed, in ascending order.
    pub fn alive_channels(&self, total: usize) -> Vec<usize> {
        (0..total).filter(|&c| !self.is_dead(c)).collect()
    }

    /// A bitmask over `0..total.min(64)` with bit `c` set iff channel `c`
    /// is not hard-failed. Stalled or derated channels still count as up —
    /// they are slow, not gone — which is exactly the availability view the
    /// compiler's channel mask needs.
    pub fn availability_mask(&self, total: usize) -> u64 {
        let mut bits = 0u64;
        for c in 0..total.min(64) {
            if !self.is_dead(c) {
                bits |= 1 << c;
            }
        }
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_replay() {
        let a = FaultPlan::from_seed(7, 16, 0.8);
        let b = FaultPlan::from_seed(7, 16, 0.8);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::from_seed(8, 16, 0.8));
    }

    #[test]
    fn zero_severity_is_healthy() {
        assert!(FaultPlan::from_seed(1, 16, 0.0).is_healthy());
        assert!(FaultPlan::from_seed(1, 0, 1.0).is_healthy());
    }

    #[test]
    fn severity_grows_monotonically() {
        // The set of faulty channels at low severity is a subset of the set
        // at high severity (same seed).
        for seed in 0..8u64 {
            let low = FaultPlan::from_seed(seed, 16, 0.3);
            let high = FaultPlan::from_seed(seed, 16, 1.0);
            for f in low.faults() {
                assert!(
                    high.fault_for(f.channel).is_some(),
                    "seed {seed}: channel {} faulty at 0.3 but not 1.0",
                    f.channel
                );
            }
            assert!(low.faults().len() <= high.faults().len());
        }
    }

    #[test]
    fn one_channel_always_survives() {
        for seed in 0..32u64 {
            let plan = FaultPlan::from_seed(seed, 8, 1.0);
            assert!(
                !plan.alive_channels(8).is_empty(),
                "seed {seed} killed every channel"
            );
        }
    }

    #[test]
    fn push_replaces_per_channel() {
        let plan = FaultPlan::healthy()
            .with(ChannelFault {
                channel: 3,
                kind: FaultKind::Derate { percent: 50 },
            })
            .with(ChannelFault {
                channel: 3,
                kind: FaultKind::Dead,
            });
        assert_eq!(plan.faults().len(), 1);
        assert!(plan.is_dead(3));
    }

    #[test]
    fn availability_mask_clears_dead_bits() {
        let plan = FaultPlan::healthy().with(ChannelFault {
            channel: 2,
            kind: FaultKind::Dead,
        });
        let mask = plan.availability_mask(4);
        assert_eq!(mask, 0b1011);
        assert_eq!(plan.alive_channels(4), vec![0, 1, 3]);
    }

    #[test]
    fn accessors_default_to_healthy() {
        let plan = FaultPlan::healthy();
        assert!(!plan.is_dead(0));
        assert_eq!(plan.derate_percent(5), 100);
        assert_eq!(plan.stall(1), None);
    }
}
