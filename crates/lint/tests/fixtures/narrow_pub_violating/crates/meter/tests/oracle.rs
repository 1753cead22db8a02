#[test]
fn oracle_doubles() {
    assert_eq!(inca_meter::oracle(3), 6);
}
