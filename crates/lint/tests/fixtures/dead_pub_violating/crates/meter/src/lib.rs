//! Violating: a re-export is not a caller, and neither are the item's
//! own tests.
mod legacy;

pub use legacy::old_scale;

pub fn oracle(raw: u32) -> u32 {
    raw * 2
}

#[cfg(test)]
mod tests {
    #[test]
    fn oracle_doubles() {
        assert_eq!(super::oracle(3), 6);
    }
}
