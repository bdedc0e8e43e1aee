//! A BENCH file that cannot be written fails the run at once: the binary
//! exits 1 before its gates, so a stale or missing file never passes.

use std::process::Command;

#[test]
fn failed_bench_write_exits_1_before_the_gates() {
    // A regular file standing where the output's directory should be.
    let blocker = std::env::temp_dir().join(format!("fdw-bench-write-{}", std::process::id()));
    std::fs::write(&blocker, b"").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_des_scaling"))
        .env("FDW_SMOKE", "1")
        .env("FDW_THREADS", "1")
        .env("FDW_BENCH_OUT", blocker.join("BENCH_des.json"))
        .output()
        .expect("des_scaling runs");
    let _ = std::fs::remove_file(&blocker);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stdout}\n{stderr}");
    assert!(stderr.contains("writing "), "{stderr}");
    // Neither a gate verdict nor the closing summary line ran.
    for later in ["written to", "FAIL:", "sharded engine:"] {
        assert!(!stdout.contains(later), "{later:?} in:\n{stdout}");
    }
}
