//! What the benchmark reads about its host: peak memory and the
//! fingerprint every record carries, so records from different machines,
//! toolchains or commits are never compared as like with like.

use vdc_dcsim::json::JsonObject;

/// Reset this process's peak resident set (`VmHWM`) to its current
/// resident set, so the next [`peak_rss_mib`] read covers only what ran
/// since. Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process in MiB, from `VmHWM`.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Host, toolchain, build and source identity of a record.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// CPU model string.
    pub cpu_model: String,
    /// `rustc -V` of the toolchain on the path.
    pub rustc: String,
    /// Build profile of this binary.
    pub profile: &'static str,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Fingerprint {
    /// Read the fingerprint of the running host and checkout.
    pub fn detect() -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .and_then(|rest| rest.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit: git_commit().unwrap_or_else(|| "unknown".into()),
        }
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .int("nproc", self.nproc as i64)
            .str("cpu_model", &self.cpu_model)
            .str("rustc", &self.rustc)
            .str("profile", self.profile)
            .str("commit", &self.commit)
            .build()
    }
}

/// The commit `.git/HEAD` of the working directory names, read from the
/// ref files directly so nothing outside the checkout is consulted.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| {
            let (id, name) = l.split_once(' ')?;
            (name == reference).then(|| id.to_string())
        })
}
