//! Fig. 5 — Simulated VDC bursting: average instant throughput and VDC
//! utilisation while sweeping Policy 1 probe times {1, 2, 5, 10, 30, 60,
//! 120 s} against a 34 JPM threshold, crossed with Policy 2 maximum queue
//! times {90, 120 min}, over two recorded DAGMan batches; the original
//! OSG records serve as controls (§4.3).

#![forbid(unsafe_code)]
use fdw_bench::record_bursting_batches;
use vdc_burst::prelude::*;

const PROBE_TIMES: [u64; 7] = [1, 2, 5, 10, 30, 60, 120];
const QUEUE_MINS: [u64; 2] = [90, 120];

fn main() {
    println!("Fig. 5 — VDC bursting sweep (Policy 1 probe x Policy 2 queue; paper Fig. 5)\n");
    let mut rows: Vec<SweepRow> = Vec::new();
    for (label, input) in &record_bursting_batches() {
        // Control: the untouched OSG record.
        let control = simulate(input, &BurstPolicies::control()).expect("control failed");
        rows.push(SweepRow {
            batch: label.to_string(),
            probe_secs: 0,
            queue_mins: 0,
            outcome: control,
        });
        for &queue in &QUEUE_MINS {
            for &probe in &PROBE_TIMES {
                let outcome = simulate(input, &BurstPolicies::paper_sweep(probe, queue))
                    .expect("sweep sim failed");
                rows.push(SweepRow {
                    batch: label.to_string(),
                    probe_secs: probe,
                    queue_mins: queue,
                    outcome,
                });
            }
        }
    }
    print!("{}", format_sweep_table(&rows));
    println!();
    println!("Expected shape (paper §5.3.1-§5.3.2): faster probes raise AIT and VDC");
    println!("usage (sharply below 10 s); controls have the lowest AIT (14.1 / 8.6 JPM);");
    println!("a 30-min shorter queue limit bursts more jobs but moves AIT by < 1 JPM;");
    println!("batch asymmetry: one batch gains far more runtime than the other.");
}
