//! Broken on purpose: the parser cannot recover a clean item list, so
//! the lint run fails with the file and line.
??? not an item ???
pub fn emit() -> String {
    String::new()
}
