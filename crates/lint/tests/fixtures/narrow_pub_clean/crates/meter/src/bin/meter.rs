//! A binary target is an outside user.
fn main() {
    let m = inca_meter::Meter::new(2);
    println!("{}", m.read(3).0);
}
