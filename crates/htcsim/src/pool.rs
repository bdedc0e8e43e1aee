//! The OSPool model: glidein machines that come and go, heterogeneous
//! speeds, sites, and background contention from other pool users.
//!
//! OSG capacity is *pilot-based*: sites contribute glideins that join the
//! pool, serve jobs for a while, and vanish (taking any running job with
//! them). Capacity available to one user also fluctuates because the pool
//! is shared; we model that as a slowly-varying AR(1) "available fraction"
//! the matchmaker enforces, which is what produces the erratic running-job
//! footprints and long wait tails of Fig. 4 without tracking every other
//! user's jobs.

use rand::rngs::StdRng;
use rand::Rng;

use crate::rand_util::{exponential, lognormal_median, normal};
use crate::transfer::SiteId;

/// Identifier of a glidein machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MachineId(pub u64);

/// Pool behaviour parameters. Defaults are calibrated so the FDW
/// experiments land in the paper's regime (hundreds of concurrently
/// running jobs, multi-hour waits under load).
#[derive(Debug, Clone, PartialEq)]
pub struct PoolConfig {
    /// Steady-state number of 4-core execution slots the pool offers.
    pub target_slots: usize,
    /// Slots per arriving glidein.
    pub glidein_slots: usize,
    /// Mean glidein lifetime, seconds (exponential).
    pub glidein_lifetime_s: f64,
    /// Number of sites contributing glideins (controls cache locality).
    pub n_sites: u32,
    /// Negotiation cycle period, seconds.
    pub negotiation_period_s: u64,
    /// Mean of the available-fraction process (share of pool our user(s)
    /// can hold at once).
    pub avail_mean: f64,
    /// Standard deviation of the stationary available-fraction process.
    pub avail_sigma: f64,
    /// AR(1) mean-reversion per negotiation cycle (0 = frozen, 1 = white).
    pub avail_theta: f64,
    /// Sigma of machine speed lognormal (heterogeneity of execute nodes).
    pub speed_sigma: f64,
    /// Fraction of glideins that offer big slots (32 GB memory/disk);
    /// the rest offer standard 8 GB slots. FDW matrix/GF jobs request
    /// 16 GB and can only match big slots.
    pub big_slot_fraction: f64,
    /// Hard cap on simulated time, seconds (safety net).
    pub max_sim_time_s: u64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self {
            target_slots: 420,
            glidein_slots: 8,
            glidein_lifetime_s: 4.0 * 3600.0,
            n_sites: 30,
            negotiation_period_s: 60,
            avail_mean: 0.55,
            avail_sigma: 0.18,
            avail_theta: 0.05,
            speed_sigma: 0.15,
            big_slot_fraction: 0.35,
            max_sim_time_s: 14 * 24 * 3600,
        }
    }
}

impl PoolConfig {
    /// Mean seconds between glidein-group arrivals that sustains
    /// `target_slots` given the configured lifetime and group size.
    pub fn arrival_interval_s(&self) -> f64 {
        let groups = self.target_slots as f64 / self.glidein_slots as f64;
        (self.glidein_lifetime_s / groups).max(1.0)
    }
}

/// A glidein machine: a batch of slots at one site with one speed factor.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Machine id.
    pub id: MachineId,
    /// Site this glidein runs at.
    pub site: SiteId,
    /// Number of 4-core slots.
    pub slots: usize,
    /// Relative speed (execution times divide by this).
    pub speed: f64,
    /// Memory available per slot, MB (jobs ClassAd-match against this).
    pub slot_memory_mb: u32,
    /// Disk available per slot, MB.
    pub slot_disk_mb: u32,
    /// Slots currently running a job.
    pub busy: usize,
}

impl Machine {
    /// Free slots on this machine.
    pub fn free(&self) -> usize {
        self.slots - self.busy
    }
}

/// Live pool state: machines plus the background-contention process.
#[derive(Debug)]
pub struct Pool {
    machines: Vec<Machine>,
    next_machine: u64,
    avail_frac: f64,
    config: PoolConfig,
}

impl Pool {
    /// Create an empty pool with the given config.
    pub fn new(config: PoolConfig) -> Self {
        Self {
            machines: Vec::new(),
            next_machine: 0,
            avail_frac: config.avail_mean,
            config,
        }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// Add a glidein; returns its id and sampled lifetime in seconds.
    pub fn add_machine(&mut self, rng: &mut StdRng) -> (MachineId, f64) {
        let id = MachineId(self.next_machine);
        self.next_machine += 1;
        let site = SiteId(rng.gen_range(0..self.config.n_sites));
        let speed = lognormal_median(rng, 1.0, self.config.speed_sigma);
        let big = rng.gen::<f64>() < self.config.big_slot_fraction;
        let (mem, disk) = if big {
            (32_768, 32_768)
        } else {
            (8_192, 8_192)
        };
        self.machines.push(Machine {
            id,
            site,
            slots: self.config.glidein_slots,
            speed,
            slot_memory_mb: mem,
            slot_disk_mb: disk,
            busy: 0,
        });
        let lifetime = exponential(rng, self.config.glidein_lifetime_s);
        (id, lifetime)
    }

    /// Glideins that ever joined the pool.
    pub fn machines_joined(&self) -> u64 {
        self.next_machine
    }

    /// Glideins in the pool now.
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// Remove a machine (glidein departure). Returns the machine if it was
    /// still present.
    pub fn remove_machine(&mut self, id: MachineId) -> Option<Machine> {
        let idx = self.machines.iter().position(|m| m.id == id)?;
        Some(self.machines.swap_remove(idx))
    }

    /// Look up a machine.
    pub fn machine(&self, id: MachineId) -> Option<&Machine> {
        self.machines.iter().find(|m| m.id == id)
    }

    /// Mark one slot busy on `id`. Panics if no free slot (caller bug).
    pub fn claim_slot(&mut self, id: MachineId) {
        let m = self
            .machines
            .iter_mut()
            .find(|m| m.id == id)
            .expect("claim on unknown machine");
        assert!(m.busy < m.slots, "claim on full machine");
        m.busy += 1;
    }

    /// Release one slot on `id`; no-op if the machine already departed.
    pub fn release_slot(&mut self, id: MachineId) {
        if let Some(m) = self.machines.iter_mut().find(|m| m.id == id) {
            m.busy = m.busy.saturating_sub(1);
        }
    }

    /// Total slots currently in the pool.
    pub fn total_slots(&self) -> usize {
        self.machines.iter().map(|m| m.slots).sum()
    }

    /// Slots currently running our jobs.
    pub fn busy_slots(&self) -> usize {
        self.machines.iter().map(|m| m.busy).sum()
    }

    /// Advance the background-contention AR(1) process one negotiation
    /// cycle and return the current available fraction.
    pub fn step_avail(&mut self, rng: &mut StdRng) -> f64 {
        let c = &self.config;
        // Stationary AR(1): x' = x + theta (mu - x) + sigma sqrt(2 theta) eps.
        self.avail_frac += c.avail_theta * (c.avail_mean - self.avail_frac)
            + c.avail_sigma * (2.0 * c.avail_theta).sqrt() * normal(rng);
        self.avail_frac = self.avail_frac.clamp(0.05, 1.0);
        self.avail_frac
    }

    /// Current available fraction without advancing the process.
    pub fn avail_frac(&self) -> f64 {
        self.avail_frac
    }

    /// Number of slots our user(s) may hold this cycle.
    pub fn user_capacity(&self) -> usize {
        (self.total_slots() as f64 * self.avail_frac).floor() as usize
    }

    /// Machines with at least one free slot, as
    /// `(id, site, speed, free, slot_memory_mb, slot_disk_mb)`, in stable
    /// id order for determinism.
    pub fn free_slots(&self) -> Vec<(MachineId, SiteId, f64, usize, u32, u32)> {
        let mut v: Vec<_> = self
            .machines
            .iter()
            .filter(|m| m.free() > 0)
            .map(|m| {
                (
                    m.id,
                    m.site,
                    m.speed,
                    m.free(),
                    m.slot_memory_mb,
                    m.slot_disk_mb,
                )
            })
            .collect();
        v.sort_by_key(|e| e.0);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn pool() -> (Pool, StdRng) {
        (Pool::new(PoolConfig::default()), StdRng::seed_from_u64(7))
    }

    #[test]
    fn add_and_remove_machines() {
        let (mut p, mut rng) = pool();
        let (id, life) = p.add_machine(&mut rng);
        assert!(life > 0.0);
        assert_eq!(p.total_slots(), 8);
        assert!(p.machine(id).is_some());
        let m = p.remove_machine(id).unwrap();
        assert_eq!(m.id, id);
        assert_eq!(p.total_slots(), 0);
        assert!(p.remove_machine(id).is_none());
    }

    #[test]
    fn claim_and_release() {
        let (mut p, mut rng) = pool();
        let (id, _) = p.add_machine(&mut rng);
        p.claim_slot(id);
        assert_eq!(p.busy_slots(), 1);
        assert_eq!(p.machine(id).unwrap().free(), 7);
        p.release_slot(id);
        assert_eq!(p.busy_slots(), 0);
        // Releasing on a departed machine is a no-op.
        p.remove_machine(id);
        p.release_slot(id);
    }

    #[test]
    #[should_panic(expected = "claim on full machine")]
    fn overclaim_panics() {
        let (mut p, mut rng) = pool();
        let (id, _) = p.add_machine(&mut rng);
        for _ in 0..9 {
            p.claim_slot(id);
        }
    }

    #[test]
    fn avail_process_stays_bounded_and_reverts() {
        let (mut p, mut rng) = pool();
        let mut sum = 0.0;
        let n = 5_000;
        for _ in 0..n {
            let f = p.step_avail(&mut rng);
            assert!((0.05..=1.0).contains(&f));
            sum += f;
        }
        let mean = sum / n as f64;
        assert!(
            (mean - p.config().avail_mean).abs() < 0.08,
            "process mean {mean} vs configured {}",
            p.config().avail_mean
        );
    }

    #[test]
    fn user_capacity_tracks_avail() {
        let (mut p, mut rng) = pool();
        for _ in 0..10 {
            p.add_machine(&mut rng);
        }
        let cap = p.user_capacity();
        assert!(cap <= p.total_slots());
        assert_eq!(cap, (80.0 * p.avail_frac()).floor() as usize);
    }

    #[test]
    fn free_slots_sorted_and_filtered() {
        let (mut p, mut rng) = pool();
        let (a, _) = p.add_machine(&mut rng);
        let (b, _) = p.add_machine(&mut rng);
        for _ in 0..8 {
            p.claim_slot(a);
        }
        let free = p.free_slots();
        assert_eq!(free.len(), 1);
        assert_eq!(free[0].0, b);
        assert_eq!(free[0].3, 8);
    }

    #[test]
    fn arrival_interval_sustains_target() {
        let c = PoolConfig::default();
        let groups_alive = c.glidein_lifetime_s / c.arrival_interval_s();
        let slots = groups_alive * c.glidein_slots as f64;
        assert!((slots / c.target_slots as f64 - 1.0).abs() < 0.01);
    }

    #[test]
    fn machine_speeds_are_heterogeneous() {
        let (mut p, mut rng) = pool();
        for _ in 0..50 {
            p.add_machine(&mut rng);
        }
        let speeds: Vec<f64> = p.free_slots().iter().map(|s| s.2).collect();
        let min = speeds.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = speeds.iter().cloned().fold(0.0f64, f64::max);
        assert!(max > min, "speeds should differ");
        assert!(min > 0.4 && max < 2.5, "speeds within sane range");
    }
}
