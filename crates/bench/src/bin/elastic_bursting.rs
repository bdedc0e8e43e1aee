//! Extension harness — the elastic bursting controller of the paper's §6
//! future work ("scaling utilized VDC resources based on OSG's common
//! resources"), compared against the static Policy-1 sweep on the same
//! recorded batches. The paper notes its static policies *worsened*
//! throughput consistency; the controller targets exactly that metric
//! (windowed-throughput SD).

#![forbid(unsafe_code)]
use fdw_bench::{elastic_summary, record_bursting_batches, BurstRow, ElasticBatch};
use vdc_burst::prelude::*;

const TARGET_JPM: f64 = 20.0;

fn main() {
    println!("Extension — elastic VDC bursting vs static Policy 1 (paper §6 future work)\n");
    let mut batches = Vec::new();
    for (label, input) in record_bursting_batches() {
        let control = simulate(&input, &BurstPolicies::control()).unwrap();
        let static1 = simulate(&input, &BurstPolicies::paper_sweep(5, 90)).unwrap();
        let elastic = BurstPolicies {
            elastic: Some(ElasticPolicy {
                target_jpm: TARGET_JPM,
                control_period_s: 30,
                gain: 0.5,
                max_vdc_slots: 150,
                window_s: 300,
            }),
            ..Default::default()
        };
        let elastic = simulate(&input, &elastic).unwrap();
        let batch = ElasticBatch {
            label,
            control: BurstRow::of(&control),
            static1: BurstRow::of(&static1),
            elastic: BurstRow::of(&elastic),
            peak_vdc_slots: elastic.peak_vdc_slots,
            mean_vdc_slots: elastic.mean_vdc_slots,
        };

        println!("== {label} ({} jobs) ==", control.total_jobs);
        println!(
            "{:<22} {:>9} {:>9} {:>9} {:>9} {:>11}",
            "strategy", "AIT(jpm)", "runtime", "bursted", "cost($)", "consistency"
        );
        for (name, r) in [
            ("control (OSG only)", &batch.control),
            ("static policy 1 (5 s)", &batch.static1),
            (&*format!("elastic (target {TARGET_JPM})"), &batch.elastic),
        ] {
            println!(
                "{:<22} {:>9.1} {:>8.2}h {:>9} {:>9.2} {:>11}",
                name,
                r.ait_jpm,
                r.runtime_h,
                r.bursted,
                r.cost_usd,
                format!("sd {:.1}", r.sd_jpm),
            );
        }
        println!(
            "  elastic telemetry: peak {} VDC slots, mean {:.1} slots",
            batch.peak_vdc_slots, batch.mean_vdc_slots
        );
        println!();
        batches.push(batch);
    }
    println!("{}", elastic_summary(TARGET_JPM, &batches));
}
