//! Everything the benchmark hands the program, and the answers it expects.
//!
//! Inputs are generated here, outside every timed window: the XML bytes of
//! one document, path-expression strings, and FUP windows. The program sees
//! only those strings. Expected answers come from `mrx_path::eval_data` on
//! the data graph of the document, never from an index.

use std::collections::HashMap;

use mrx_datagen::{xmark_like, XmarkConfig};
use mrx_graph::{xml, DataGraph};
use mrx_path::{eval_data, PathExpr};
use mrx_workload::{Workload, WorkloadConfig};

/// Sizes and seeds of one benchmark configuration.
#[derive(Debug, Clone)]
pub struct Params {
    /// Target node count of the XMark-like document.
    pub nodes: usize,
    /// Seed of the document; fixed, so every workload and run serves the
    /// same document.
    pub doc_seed: u64,
    /// The FUP window `hot-zipf` and `cold-capped` are adapted to:
    /// (queries, max length, seed).
    pub hot_window: (usize, usize, u64),
    /// The workload `cold-capped` draws from, which the index was not
    /// adapted to: (queries, max length, seed).
    pub cold_workload: (usize, usize, u64),
    /// The total page-cache budget of `cold-capped`, in bytes. It is passed
    /// unchanged as the daemon's `paged_cache_bytes`, which today is a
    /// per-worker budget; a shared page cache keeps the same figure.
    pub cold_page_budget: u64,
    /// FUPs per adaptation epoch, and the seed of the max-length-4
    /// workload the epochs' windows are cut from.
    pub epoch_fups: usize,
    pub epoch_window_seed: u64,
    /// `adapt-reload` epochs per measured window (about one second).
    pub epochs_per_window: usize,
    /// Queries one connection runs during each `adapt-reload` epoch.
    pub epoch_quota: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Queries after each RELOAD that count as post-reload samples.
    pub post_reload: usize,
    /// Length of the in-process replay prefix of the traced run.
    pub replay: usize,
    /// Repetitions of the open / first-answer / validate timings.
    pub open_reps: usize,
}

impl Params {
    /// The benchmark's configuration: a 1M-target-node document (905,303
    /// nodes, 24.7 MB of XML, a 45.3 MB adapted v6 snapshot).
    pub fn full() -> Params {
        Params {
            nodes: 1_000_000,
            doc_seed: 0xA0C71,
            hot_window: (500, 4, 7),
            cold_workload: (2_000, 6, 11),
            // 25% of the 45,277,512-byte adapted snapshot, written as a
            // number so that later format changes are measured under the
            // same configured budget.
            cold_page_budget: 11_319_378,
            epoch_fups: 25,
            epoch_window_seed: 13,
            epochs_per_window: 12,
            epoch_quota: 300,
            setups: 5,
            post_reload: 10,
            replay: 4_000,
            open_reps: 5,
        }
    }

    /// A few-thousand-node configuration for the benchmark's own tests.
    pub fn tiny() -> Params {
        Params {
            nodes: 6_000,
            doc_seed: 0xA0C71,
            hot_window: (60, 4, 7),
            cold_workload: (120, 6, 11),
            cold_page_budget: 24 * 1024,
            epoch_fups: 5,
            epoch_window_seed: 13,
            epochs_per_window: 8,
            epoch_quota: 20,
            setups: 2,
            post_reload: 3,
            replay: 100,
            open_reps: 2,
        }
    }
}

/// The document: its XML bytes and, for the oracle, its data graph. Node
/// ids are assigned by the parser in document order, so the oracle's graph
/// is parsed from the same bytes the timed set-up parses.
pub struct Document {
    pub xml: String,
    pub graph: DataGraph,
}

impl Document {
    pub fn generate(p: &Params) -> Result<Document, String> {
        let generated = xmark_like(&XmarkConfig::with_target_nodes(p.nodes), p.doc_seed);
        let xml = xml::write_document(&generated).map_err(|e| e.to_string())?;
        drop(generated);
        let graph = xml::parse(&xml).map_err(|e| e.to_string())?;
        Ok(Document { xml, graph })
    }

    /// `n` `//`-path strings of at most `max_len` edges, the paper's
    /// workload recipe.
    pub fn queries(&self, n: usize, max_len: usize, seed: u64) -> Vec<String> {
        let cfg = WorkloadConfig {
            max_path_len: max_len,
            num_queries: n,
            seed,
            max_enumerated_paths: 200_000,
        };
        Workload::generate(&self.graph, &cfg)
            .queries
            .iter()
            .map(|q| q.to_string())
            .collect()
    }
}

/// Distinct expressions of a run, each with its expected answer.
#[derive(Default)]
pub struct Table {
    pub exprs: Vec<String>,
    /// `eval_data` answers (sorted node ids), parallel to `exprs`.
    pub answers: Vec<Vec<u32>>,
    ids: HashMap<String, usize>,
}

impl Table {
    /// The id of `expr`, added if new.
    pub fn intern(&mut self, expr: &str) -> usize {
        if let Some(&id) = self.ids.get(expr) {
            return id;
        }
        self.exprs.push(expr.to_string());
        self.ids.insert(expr.to_string(), self.exprs.len() - 1);
        self.exprs.len() - 1
    }

    pub fn intern_all(&mut self, exprs: &[String]) -> Vec<usize> {
        exprs.iter().map(|e| self.intern(e)).collect()
    }

    /// Computes every missing answer on the data graph.
    pub fn solve(&mut self, g: &DataGraph) -> Result<(), String> {
        for e in &self.exprs[self.answers.len()..] {
            let pe = PathExpr::parse(e).map_err(|err| format!("{e}: {err}"))?;
            let mut ans: Vec<u32> = eval_data(g, &pe.compile(g)).iter().map(|n| n.0).collect();
            ans.sort_unstable();
            self.answers.push(ans);
        }
        Ok(())
    }

    /// Whether `nodes` is the expected answer of expression `id`.
    pub fn check(&self, id: usize, nodes: &[u32]) -> bool {
        self.answers[id] == nodes
    }
}
