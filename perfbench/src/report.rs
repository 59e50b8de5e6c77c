//! The metric catalogue, the result line, and the host fingerprint.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("success_rate", "fraction"),
    ("paper_cost", "nodes/query"),
    ("peak_rss_mb", "MiB"),
    ("snapshot_bytes", "B"),
    ("rebuild_ms", "ms"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run. The
/// prefix is the crate (layer) the number belongs to.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.parse_ms", "ms"),
    ("graph.freeze_ms", "ms"),
    ("index.build_ms", "ms"),
    ("index.adapt_ms", "ms"),
    ("index.adapt_scratch_allocs", "count"),
    ("index.freeze_ms", "ms"),
    ("index.components", "count"),
    ("index.nodes", "count"),
    ("index.eval_p50_us", "us"),
    ("index.eval_p99_us", "us"),
    ("index.validated_share", "fraction"),
    ("index.index_nodes_per_query", "nodes/query"),
    ("index.data_nodes_per_query", "nodes/query"),
    ("index.cache_hit_rate", "fraction"),
    ("index.cache_bypass_cheap", "count"),
    ("index.cache_bypass_large", "count"),
    ("index.cache_evictions", "count"),
    ("path.parse_compile_us", "us"),
    ("postings.extent_bytes_per_node", "B/node"),
    ("pagecache.faults", "count"),
    ("pagecache.hits", "count"),
    ("pagecache.hit_rate", "fraction"),
    ("pagecache.evictions", "count"),
    ("pagecache.resident_bytes", "B"),
    ("pagecache.readahead_hits", "count"),
    ("pagecache.wasted_prefetches", "count"),
    ("pagecache.replay_capped_ms", "ms"),
    ("pagecache.replay_uncapped_ms", "ms"),
    ("store.save_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.ttfa_ms", "ms"),
    ("store.validate_ms", "ms"),
    ("serve.connect_ms", "ms"),
    ("serve.overhead_p50_us", "us"),
    ("serve.reload_call_ms", "ms"),
    ("serve.post_reload_p50_us", "us"),
    ("serve.post_reload_p99_us", "us"),
    ("serve.latency_samples", "count"),
    ("serve.p99_beyond", "count"),
    ("serve.shed", "count"),
    ("serve.budget_trips", "count"),
    ("serve.reply_timeouts", "count"),
    ("serve.store_errors", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

/// Whether `name` is a legal metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// No answer differed from the data-graph oracle.
    pub correct: bool,
    /// Requests attempted in the measured window.
    pub attempted: u64,
    /// Requests that failed: typed errors, sheds, transport errors and
    /// oracle mismatches.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records metric `name` (which must be in the catalogue).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric `{name}` is not in the catalogue"
        );
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The result line: exactly the end-to-end metrics (`traced == false`)
    /// or exactly the per-layer metrics (`traced == true`).
    pub fn to_json(&self, traced: bool) -> String {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut m = String::new();
        for (name, unit) in catalogue {
            let v = self
                .values
                .get(name)
                .unwrap_or_else(|| panic!("metric `{name}` was not measured"));
            if !m.is_empty() {
                m.push_str(", ");
            }
            let _ = write!(m, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where a result was measured: absolute numbers do not travel between
/// hosts, so every record carries this.
#[derive(Debug, Clone)]
pub struct Host {
    pub cores: usize,
    pub cpu: String,
    /// `git` commit of the checkout, or `unknown` outside a repository.
    pub rev: String,
    /// FNV-1a of the program's sources, which identifies the code where
    /// there is no repository.
    pub src: String,
}

impl Host {
    /// Fingerprints this host and the sources under `root`.
    pub fn detect(root: &Path) -> Host {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            cores,
            cpu,
            rev: git_rev(root).unwrap_or_else(|| "unknown".into()),
            src: format!("{:016x}", source_hash(&root.join("crates"))),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"cores\":{},\"cpu\":\"{}\",\"rev\":\"{}\",\"src_fnv\":\"{}\"}}",
            self.cores,
            escape(&self.cpu),
            escape(&self.rev),
            self.src
        )
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            _ => vec![c],
        })
        .collect()
}

/// Resolves `.git/HEAD` by hand, so no process is started.
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
}

/// FNV-1a over every file under `dir`, in path order (0 if it is absent).
fn source_hash(dir: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f
            .strip_prefix(dir)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
