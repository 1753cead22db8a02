fn main() {
    let m = inca_meter::Meter::new(2);
    assert_eq!(m.read(3).0, 6);
}
