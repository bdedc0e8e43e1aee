//! Fixture: three independent wall-clock -> telemetry chains whose clock
//! read sits 1, 2 and 3 calls below the function that calls the sink.
//! Each read fails `wall-clock-in-sim` on its own line, however deep.

pub fn join_depth1(obs: &Obs) {
    let x = clock_leaf1();
    obs.observe("d1", x);
}

fn clock_leaf1() -> f64 {
    let _t = std::time::Instant::now();
    0.0
}

pub fn join_depth2(obs: &Obs) {
    let x = mid2();
    obs.observe("d2", x);
}

fn mid2() -> f64 {
    clock_leaf2()
}

fn clock_leaf2() -> f64 {
    let _t = std::time::Instant::now();
    0.0
}

pub fn join_depth3(obs: &Obs) {
    let x = mid3a();
    obs.observe("d3", x);
}

fn mid3a() -> f64 {
    mid3b()
}

fn mid3b() -> f64 {
    clock_leaf3()
}

fn clock_leaf3() -> f64 {
    let _t = std::time::Instant::now();
    0.0
}
