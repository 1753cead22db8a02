//! What the ledger records about the host it measures on.

use serde_json::{json, Value};

/// Hardware threads the host offers (the exec pool's own view).
pub(crate) fn threads() -> usize {
    inca_core::exec::available_threads()
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in bytes.
pub(crate) fn status_bytes(field: &str) -> Option<f64> {
    kb_field(&std::fs::read_to_string("/proc/self/status").ok()?, field)
}

/// `MemAvailable` from `/proc/meminfo`, in MB.
pub(crate) fn mem_available_mb() -> Option<f64> {
    Some(kb_field(&std::fs::read_to_string("/proc/meminfo").ok()?, "MemAvailable")? / 1e6)
}

fn kb_field(text: &str, field: &str) -> Option<f64> {
    let line = text.lines().find(|l| l.split(':').next() == Some(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0)
}

/// An explicit marker for a number this host cannot produce honestly.
pub(crate) fn skipped(reason: &str) -> Value {
    json!({ "skipped": reason })
}

/// The host block of the trace artifact.
pub(crate) fn describe() -> Value {
    json!({
        "host_threads": threads() as u64,
        "simd_impl": inca_xbar::simd::active_impl(),
        "mem_available_mb": mem_available_mb().map_or_else(|| skipped("no /proc/meminfo"), |mb| json!(mb)),
        "os": std::env::consts::OS,
        "arch": std::env::consts::ARCH,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_kb_fields_by_exact_name() {
        let text = "VmHWMx:\t1 kB\nVmHWM:\t  2048 kB\nVmRSS:\t1024 kB\n";
        assert_eq!(kb_field(text, "VmHWM"), Some(2048.0 * 1024.0));
        assert_eq!(kb_field(text, "VmRSS"), Some(1024.0 * 1024.0));
        assert_eq!(kb_field(text, "VmSwap"), None);
    }

    #[test]
    fn skip_marker_names_its_reason() {
        assert_eq!(skipped("host_threads < 4")["skipped"].as_str(), Some("host_threads < 4"));
    }
}
