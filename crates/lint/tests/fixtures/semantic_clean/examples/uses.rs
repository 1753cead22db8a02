//! The caller that keeps the fixture's public items in use.
fn uses() {
    let _: Option<inca_sim::Writer<u32>> = None;
    let _: Option<&dyn inca_sim::Emit<u32>> = None;
    let _ = inca_sim::inner::deeper::answer;
}
