//! Process and machine readings from `/proc`: resident memory, load,
//! steal, and the run manifest that stamps every result.

use crate::json::Json;
use std::path::Path;

/// Peak resident set size (`VmHWM`) of this process, in KiB.
pub fn peak_rss_kib() -> Option<u64> {
    status_kib("VmHWM:")
}

/// Current resident set size (`VmRSS`) of this process, in KiB.
pub fn rss_kib() -> Option<u64> {
    status_kib("VmRSS:")
}

/// A KiB field of `/proc/self/status`.
fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The 1-, 5- and 15-minute load averages.
pub fn loadavg() -> Option<[f64; 3]> {
    let text = std::fs::read_to_string("/proc/loadavg").ok()?;
    let mut it = text.split_whitespace().map(|v| v.parse::<f64>().ok());
    Some([it.next()??, it.next()??, it.next()??])
}

/// Machine-wide steal ticks (time the hypervisor ran someone else while
/// the machine's CPUs wanted to run), from the aggregate `cpu` line of
/// `/proc/stat`.
pub fn steal_ticks() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// The first `model name` in `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `rustc -V` of the compiler that built this binary.
pub fn rustc_version() -> &'static str {
    env!("UNIBENCH_RUSTC_VERSION")
}

/// The commit checked out in `root`, read from `.git` without running git
/// (the benchmark may run from an export that is not a repository, and a
/// git subprocess would then search the parent directories).
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// Wall ns of a fixed single-threaded kernel (FNV-1a over 4 MiB), median
/// of five: a reading of the machine's current speed that no change to
/// the measured program can move. When two runs disagree on it, the
/// machine changed between them.
pub fn speed_probe_ns() -> f64 {
    let buffer: Vec<u8> = (0..4u32 << 20)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let started = std::time::Instant::now();
            let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in std::hint::black_box(&buffer) {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x100_0000_01b3);
            }
            std::hint::black_box(hash);
            started.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::median(&samples)
}

/// Load, steal and machine-speed readings taken at one moment.
#[derive(Debug, Clone, Copy)]
pub struct LoadSnapshot {
    /// `/proc/loadavg` 1/5/15-minute averages.
    pub loadavg: Option<[f64; 3]>,
    /// Aggregate steal ticks from `/proc/stat`.
    pub steal_ticks: Option<u64>,
    /// [`speed_probe_ns`].
    pub speed_probe_ns: f64,
}

impl LoadSnapshot {
    /// Read all three now.
    pub fn now() -> LoadSnapshot {
        LoadSnapshot {
            loadavg: loadavg(),
            steal_ticks: steal_ticks(),
            speed_probe_ns: speed_probe_ns(),
        }
    }

    fn to_json(self) -> Json {
        Json::obj([
            (
                "loadavg",
                match self.loadavg {
                    Some(l) => Json::Arr(l.iter().map(|&v| Json::Num(v)).collect()),
                    None => Json::Null,
                },
            ),
            (
                "steal_ticks",
                self.steal_ticks.map_or(Json::Null, |v| Json::Num(v as f64)),
            ),
            ("speed_probe_ns", Json::Num(self.speed_probe_ns)),
        ])
    }
}

/// What a reader needs to judge whether two results are comparable.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Commit of the measured tree.
    pub commit: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Logical CPUs.
    pub nproc: usize,
    /// CPU model name.
    pub cpu_model: String,
    /// Load and steal before the workload.
    pub before: LoadSnapshot,
    /// Load and steal after the workload.
    pub after: Option<LoadSnapshot>,
}

impl Manifest {
    /// Collect everything except the closing load snapshot.
    pub fn collect(root: &Path) -> Manifest {
        Manifest {
            commit: commit(root),
            rustc: rustc_version().to_string(),
            nproc: nproc(),
            cpu_model: cpu_model(),
            before: LoadSnapshot::now(),
            after: None,
        }
    }

    /// Render as JSON.
    pub fn to_json(&self) -> Json {
        let steal_delta = match (
            self.before.steal_ticks,
            self.after.and_then(|a| a.steal_ticks),
        ) {
            (Some(b), Some(a)) => Json::Num(a.saturating_sub(b) as f64),
            _ => Json::Null,
        };
        Json::obj([
            ("commit", Json::Str(self.commit.clone())),
            ("rustc", Json::Str(self.rustc.clone())),
            ("nproc", Json::Num(self.nproc as f64)),
            ("cpu_model", Json::Str(self.cpu_model.clone())),
            ("before", self.before.to_json()),
            (
                "after",
                self.after.map_or(Json::Null, LoadSnapshot::to_json),
            ),
            ("steal_ticks_during", steal_delta),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_available() {
        assert!(rss_kib().is_some_and(|kib| kib > 0));
        assert!(peak_rss_kib().is_some_and(|kib| kib > 0));
        assert!(loadavg().is_some());
        assert!(steal_ticks().is_some());
        assert!(nproc() >= 1);
        assert!(speed_probe_ns() > 0.0);
    }
}
