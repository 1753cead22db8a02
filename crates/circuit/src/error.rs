use std::fmt;

/// Errors produced by circuit-level models.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CircuitError {
    /// A parameter failed validation.
    InvalidParams(String),
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::InvalidParams(msg) => write!(f, "invalid circuit parameters: {msg}"),
        }
    }
}

impl std::error::Error for CircuitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(CircuitError::InvalidParams("x".into()).to_string().contains('x'));
    }
}
