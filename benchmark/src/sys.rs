//! Host facts recorded with every result.

use crate::json::Json;
use std::fs;

/// Processor count and cache sizes of the host.
#[derive(Clone, Debug)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Per-core L2 size from sysfs, bytes.
    pub l2_bytes: Option<u64>,
    /// L3 size from sysfs, bytes (as the host reports it).
    pub l3_bytes: Option<u64>,
}

impl Host {
    /// Reads the facts for CPU 0.
    pub fn detect() -> Self {
        let mut host = Host {
            nproc: std::thread::available_parallelism().map_or(1, |p| p.get()),
            l2_bytes: None,
            l3_bytes: None,
        };
        for index in 0..8 {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
            let level = fs::read_to_string(format!("{dir}/level")).ok();
            let kind = fs::read_to_string(format!("{dir}/type")).ok();
            let size = fs::read_to_string(format!("{dir}/size"))
                .ok()
                .and_then(|s| parse_size(&s));
            match (
                level.as_deref().map(str::trim),
                kind.as_deref().map(str::trim),
            ) {
                (Some("2"), Some("Unified")) => host.l2_bytes = size,
                (Some("3"), Some("Unified")) => host.l3_bytes = size,
                _ => {}
            }
        }
        host
    }

    /// JSON form, with `sizes` (name → bytes) set against each cache.
    pub fn to_json(&self, sizes: &[(&str, u64)]) -> Json {
        let vs = |cache: Option<u64>, bytes: u64| {
            cache.map_or(Json::Null, |c| Json::Num(bytes as f64 / c as f64))
        };
        Json::obj([
            ("nproc", Json::from(self.nproc as u64)),
            ("l2_bytes", self.l2_bytes.map_or(Json::Null, Json::from)),
            ("l3_bytes", self.l3_bytes.map_or(Json::Null, Json::from)),
            (
                "working_set",
                Json::Obj(
                    sizes
                        .iter()
                        .map(|&(name, bytes)| {
                            (
                                name.to_string(),
                                Json::obj([
                                    ("bytes", Json::from(bytes)),
                                    ("x_l2", vs(self.l2_bytes, bytes)),
                                    ("x_l3", vs(self.l3_bytes, bytes)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Parses sysfs sizes such as `2048K` or `300M`.
fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * mult)
}

/// Peak resident set (VmHWM) of this process, MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sysfs_cache_sizes() {
        assert_eq!(parse_size("2048K\n"), Some(2 << 20));
        assert_eq!(parse_size("300M"), Some(300 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }
}
