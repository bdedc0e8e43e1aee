//! The single-machine baseline: serial/bounded-parallel execution of a job
//! list on one host — the "automated version of MudPy's FakeQuakes on a
//! single AWS instance" the paper's §6 compares the FDW against.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::job::JobSpec;
use crate::time::SimTime;

/// A single machine with a fixed number of 4-core job slots (the AWS
/// baseline instance has 4 Xeon CPUs → 1 concurrent FakeQuakes job).
#[derive(Debug, Clone, Copy)]
pub struct SingleMachine {
    /// Concurrent job slots (1 for the paper's baseline instance).
    pub slots: usize,
    /// Relative speed of the machine.
    pub speed: f64,
}

impl Default for SingleMachine {
    fn default() -> Self {
        Self {
            slots: 1,
            speed: 1.0,
        }
    }
}

/// Result of a single-machine run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SingleRunReport {
    /// Total wall-clock makespan.
    pub makespan: SimTime,
    /// Jobs executed.
    pub jobs: usize,
    /// Average total throughput, jobs per minute.
    pub throughput_jpm: f64,
}

impl SingleMachine {
    /// Execute the job list to completion with list scheduling (longest
    /// queue position first-come-first-served — the order given). Transfer
    /// times are zero: everything is local on one host.
    pub fn run(&self, specs: &[JobSpec], seed: u64) -> SingleRunReport {
        assert!(self.slots > 0, "machine must have at least one slot");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5349_4e47_4c45);
        // Slot finish times.
        let mut slots = vec![0f64; self.slots];
        for spec in specs {
            // Earliest-free slot takes the next job (FCFS list schedule).
            let (idx, _) = slots
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .expect("at least one slot");
            let dur = spec.exec.sample(&mut rng) / self.speed;
            slots[idx] += dur;
        }
        let makespan = slots.iter().cloned().fold(0.0, f64::max);
        let jobs = specs.len();
        let mins = (makespan / 60.0).max(f64::MIN_POSITIVE);
        SingleRunReport {
            makespan: SimTime::from_secs(makespan.ceil() as u64),
            jobs,
            throughput_jpm: if jobs == 0 { 0.0 } else { jobs as f64 / mins },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_runtime_is_sum() {
        let m = SingleMachine::default();
        let specs: Vec<JobSpec> = (0..10)
            .map(|i| JobSpec::fixed(format!("j{i}"), 100.0))
            .collect();
        let r = m.run(&specs, 1);
        assert_eq!(r.makespan.as_secs(), 1000);
        assert_eq!(r.jobs, 10);
        assert!((r.throughput_jpm - 10.0 / (1000.0 / 60.0)).abs() < 1e-9);
    }

    #[test]
    fn more_slots_divide_runtime() {
        let specs: Vec<JobSpec> = (0..12)
            .map(|i| JobSpec::fixed(format!("j{i}"), 100.0))
            .collect();
        let serial = SingleMachine {
            slots: 1,
            speed: 1.0,
        }
        .run(&specs, 1);
        let quad = SingleMachine {
            slots: 4,
            speed: 1.0,
        }
        .run(&specs, 1);
        assert_eq!(quad.makespan.as_secs() * 4, serial.makespan.as_secs());
    }

    #[test]
    fn speed_scales_runtime() {
        let specs = vec![JobSpec::fixed("j", 100.0)];
        let slow = SingleMachine {
            slots: 1,
            speed: 0.5,
        }
        .run(&specs, 1);
        assert_eq!(slow.makespan.as_secs(), 200);
    }

    #[test]
    fn empty_job_list() {
        let r = SingleMachine::default().run(&[], 1);
        assert_eq!(r.makespan, SimTime::ZERO);
        assert_eq!(r.throughput_jpm, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_panics() {
        SingleMachine {
            slots: 0,
            speed: 1.0,
        }
        .run(&[], 1);
    }

    #[test]
    fn deterministic_with_stochastic_models() {
        let specs: Vec<JobSpec> = (0..20)
            .map(|i| {
                let mut s = JobSpec::fixed(format!("j{i}"), 100.0);
                s.exec = crate::job::ExecModel::LogNormalMedian {
                    median_s: 100.0,
                    sigma: 0.4,
                };
                s
            })
            .collect();
        let a = SingleMachine::default().run(&specs, 7);
        let b = SingleMachine::default().run(&specs, 7);
        assert_eq!(a, b);
        let c = SingleMachine::default().run(&specs, 8);
        assert_ne!(a.makespan, c.makespan);
    }
}
