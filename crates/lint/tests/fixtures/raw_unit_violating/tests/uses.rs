//! The caller that keeps the fixture's public items in use.
fn uses() {
    let _: Option<inca_demo::Stats> = None;
    let _ = inca_demo::latency_s;
}
