use std::fmt;

/// Errors produced by device-level models.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DeviceError {
    /// Parameters failed validation (e.g. `r_on >= r_off`).
    InvalidParams(String),
    /// A cell exceeded its endurance budget.
    EnduranceExceeded {
        /// Number of writes performed.
        writes: u64,
        /// The configured endurance limit.
        limit: u64,
    },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::InvalidParams(msg) => write!(f, "invalid device parameters: {msg}"),
            DeviceError::EnduranceExceeded { writes, limit } => {
                write!(f, "endurance exceeded: {writes} writes against a limit of {limit}")
            }
        }
    }
}

impl std::error::Error for DeviceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let err = DeviceError::EnduranceExceeded { writes: 11, limit: 10 };
        let msg = err.to_string();
        assert!(msg.starts_with("endurance exceeded"));
        assert!(!msg.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DeviceError>();
    }
}
