//! Fault injection for the simulated network.
//!
//! A [`FaultPlan`] describes the misbehaviour the transport should inject:
//! probabilistic message **drops**, **duplications**, and **reorderings**
//! (an extra latency spike that lets later messages overtake), plus
//! scheduled **partitions** that cut a set of sites off from the rest of
//! the group for a window of simulated time. All randomness is sampled
//! from the simulation's own seeded generator, so a chaos run is exactly
//! reproducible from its seed.
//!
//! Site **crashes** and snapshot **rejoins** are membership events rather
//! than per-message faults; they live on
//! [`SimNet`](crate::sim::SimNet::crash_site) directly.
//!
//! Every `SimNet` leg runs over the acknowledged session layer in
//! [`crate::reliable`], which retransmits what a plan drops or partitions
//! and suppresses what it duplicates.

use rand::rngs::StdRng;
use rand::Rng;

/// A scheduled network partition: while `from_ms <= now < until_ms`, no
/// message crosses between the `isolated` set and the rest of the group
/// (in either direction). Traffic *within* either side flows normally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Site indices on the isolated side of the cut.
    pub isolated: Vec<usize>,
    /// Simulated time (ms) the partition begins.
    pub from_ms: u64,
    /// Simulated time (ms) the partition heals. Keep this finite if the
    /// run is expected to quiesce: retransmission across an eternal
    /// partition never succeeds.
    pub until_ms: u64,
}

impl Partition {
    /// `true` while the partition separates `a` from `b` at time `now`.
    fn cuts(&self, a: usize, b: usize, now: u64) -> bool {
        if now < self.from_ms || now >= self.until_ms {
            return false;
        }
        let a_in = self.isolated.contains(&a);
        let b_in = self.isolated.contains(&b);
        a_in != b_in
    }
}

/// What the chaos transport is allowed to do to traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability an individual delivery leg is silently dropped.
    pub drop_prob: f64,
    /// Probability a leg is delivered twice.
    pub dup_prob: f64,
    /// Probability a leg is held back by an extra [`reorder_extra`] ms of
    /// latency, letting messages sent after it arrive first.
    ///
    /// [`reorder_extra`]: FaultPlan::reorder_extra
    pub reorder_prob: f64,
    /// The extra delay applied to reordered legs (ms).
    pub reorder_extra: u64,
    /// Scheduled partition windows.
    pub partitions: Vec<Partition>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            drop_prob: 0.0,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            reorder_extra: 250,
            partitions: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// A plan that injects nothing (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// Sets the per-leg drop probability.
    pub fn with_drops(mut self, p: f64) -> Self {
        self.drop_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-leg duplication probability.
    pub fn with_duplicates(mut self, p: f64) -> Self {
        self.dup_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-leg reorder probability and the extra delay reordered
    /// legs suffer.
    pub fn with_reordering(mut self, p: f64, extra_ms: u64) -> Self {
        self.reorder_prob = p.clamp(0.0, 1.0);
        self.reorder_extra = extra_ms;
        self
    }

    /// Adds a partition window isolating `isolated` from everyone else
    /// during `[from_ms, until_ms)`.
    pub fn with_partition(
        mut self,
        isolated: impl IntoIterator<Item = usize>,
        from_ms: u64,
        until_ms: u64,
    ) -> Self {
        self.partitions.push(Partition {
            isolated: isolated.into_iter().collect(),
            from_ms,
            until_ms,
        });
        self
    }

    /// `true` when a partition cuts the `src → dest` path at time `now`.
    pub fn partitioned(&self, src: usize, dest: usize, now: u64) -> bool {
        self.partitions.iter().any(|p| p.cuts(src, dest, now))
    }

    /// Samples the fate of one delivery leg from `rng`. Partitions are
    /// checked first (deterministic, no randomness spent), then drop,
    /// duplication and reordering draws — always all three, so the random
    /// stream stays aligned regardless of outcomes.
    pub fn sample(&self, src: usize, dest: usize, now: u64, rng: &mut StdRng) -> LegFate {
        if self.partitioned(src, dest, now) {
            return LegFate::Partitioned;
        }
        let dropped = self.drop_prob > 0.0 && rng.gen_bool(self.drop_prob);
        let duplicated = self.dup_prob > 0.0 && rng.gen_bool(self.dup_prob);
        let reordered = self.reorder_prob > 0.0 && rng.gen_bool(self.reorder_prob);
        if dropped {
            LegFate::Dropped
        } else {
            LegFate::Delivered {
                copies: if duplicated { 2 } else { 1 },
                extra_delay: if reordered { self.reorder_extra } else { 0 },
            }
        }
    }
}

/// The sampled outcome for one delivery leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LegFate {
    /// A partition window blocks the path: the leg is lost.
    Partitioned,
    /// The random drop draw lost the leg.
    Dropped,
    /// The leg arrives — possibly twice, possibly late.
    Delivered {
        /// Number of copies to deliver (1, or 2 when duplicated).
        copies: u32,
        /// Additional latency injected to force reordering (ms).
        extra_delay: u64,
    },
}

/// Counters for injected faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Legs lost to the random drop draw.
    pub dropped: u64,
    /// Extra copies injected by duplication.
    pub duplicated: u64,
    /// Legs delayed by the reorder draw.
    pub reordered: u64,
    /// Legs lost to partition windows.
    pub partitioned: u64,
    /// Data retransmissions performed by the reliable layer.
    pub retransmitted: u64,
    /// Site crashes injected.
    pub crashes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn default_plan_is_transparent() {
        let plan = FaultPlan::none();
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..50 {
            assert_eq!(
                plan.sample(0, 1, i, &mut rng),
                LegFate::Delivered { copies: 1, extra_delay: 0 }
            );
        }
    }

    #[test]
    fn partition_window_cuts_both_directions_then_heals() {
        let plan = FaultPlan::none().with_partition([2, 3], 100, 200);
        assert!(!plan.partitioned(0, 2, 99));
        assert!(plan.partitioned(0, 2, 100));
        assert!(plan.partitioned(2, 0, 150));
        assert!(!plan.partitioned(2, 3, 150), "within the isolated side is fine");
        assert!(!plan.partitioned(0, 1, 150), "within the majority side is fine");
        assert!(!plan.partitioned(0, 2, 200), "healed");
    }

    #[test]
    fn extreme_probabilities_are_honoured() {
        let mut rng = StdRng::seed_from_u64(2);
        let all_drop = FaultPlan::none().with_drops(1.0);
        assert_eq!(all_drop.sample(0, 1, 0, &mut rng), LegFate::Dropped);
        let all_dup = FaultPlan::none().with_duplicates(1.0).with_reordering(1.0, 42);
        assert_eq!(
            all_dup.sample(0, 1, 0, &mut rng),
            LegFate::Delivered { copies: 2, extra_delay: 42 }
        );
    }

    #[test]
    fn sampling_is_reproducible_per_seed() {
        let plan = FaultPlan::none().with_drops(0.3).with_duplicates(0.2).with_reordering(0.1, 9);
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..200).map(|i| plan.sample(0, 1, i, &mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
