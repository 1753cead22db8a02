//! The caller that keeps the fixture's public items in use.
fn uses() {
    let _ = inca_demo::first;
}
