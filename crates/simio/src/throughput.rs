//! Throughput and size formatting helpers for reports and benches.

use crate::clock::Secs;

/// Bytes per mebibyte (the paper reports MB/s in binary units).
pub const MIB: f64 = (1u64 << 20) as f64;

/// Throughput in MiB/s.
pub fn mibps(bytes: u64, secs: Secs) -> f64 {
    if secs <= 0.0 {
        return 0.0;
    }
    bytes as f64 / MIB / secs
}

/// Format a byte count with binary-unit suffixes (B, KB, MB, GB, TB, PB).
pub fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 6] = ["B", "KB", "MB", "GB", "TB", "PB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes}B")
    } else if v >= 100.0 {
        format!("{v:.0}{}", UNITS[unit])
    } else {
        format!("{v:.1}{}", UNITS[unit])
    }
}

/// Format seconds as a human-readable duration.
pub fn human_secs(secs: Secs) -> String {
    if secs < 1e-3 {
        format!("{:.1}us", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.1}ms", secs * 1e3)
    } else if secs < 120.0 {
        format!("{secs:.2}s")
    } else if secs < 7200.0 {
        format!("{:.2}min", secs / 60.0)
    } else {
        format!("{:.2}h", secs / 3600.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mibps_basic() {
        assert_eq!(mibps(1 << 20, 1.0), 1.0);
        assert_eq!(mibps(0, 1.0), 0.0);
        assert_eq!(mibps(100, 0.0), 0.0);
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512), "512B");
        assert_eq!(human_bytes(2048), "2.0KB");
        assert_eq!(human_bytes(8 << 20), "8.0MB");
        assert_eq!(human_bytes(32u64 << 30), "32.0GB");
        assert_eq!(human_bytes(2u64 << 40), "2.0TB");
    }

    #[test]
    fn human_secs_ranges() {
        assert_eq!(human_secs(0.0000005), "0.5us");
        assert_eq!(human_secs(0.25), "250.0ms");
        assert_eq!(human_secs(5.0), "5.00s");
        assert_eq!(human_secs(150.0), "2.50min");
        assert_eq!(human_secs(7200.0), "2.00h");
    }
}
