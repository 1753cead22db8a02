fn main() {
    let _ = inca_meter::oracle(3);
}
