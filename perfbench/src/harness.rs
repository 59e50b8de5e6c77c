//! The steps every workload is built from: set-up, the closed request
//! loop, rebuild-and-RELOAD, and the in-process replay of the traced run.
//! Each step calls the program only through its public API.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

use mrx_datagen::Prng;
use mrx_graph::{xml, DataGraph, FrozenGraph};
use mrx_index::{AdaptEngine, MStarIndex, QueryScratch, SharedCacheConfig, TrustPolicy};
use mrx_pagecache::PageStats;
use mrx_path::{PathExpr, QueryBudget};
use mrx_serve::{Client, ClientError, ServeConfig, Server};
use mrx_store::{open_validated, save_paged, PagedFile};

use crate::inputs::Table;
use crate::stats::{stream_seed, Zipf};
use crate::trace::{Span, Tracer};

/// Daemon worker threads in every workload: one per core of the 2-core
/// host the benchmark was tuned on.
pub const WORKERS: usize = 2;

/// How a workload draws expressions.
pub struct Mix {
    /// Table ids, one per position the sampler can draw.
    ids: Vec<usize>,
    /// `Some` draws positions by Zipf rank, `None` draws them uniformly.
    zipf: Option<Zipf>,
}

impl Mix {
    /// Zipf(1.0) over the distinct expressions of `window`, ranked by how
    /// often the window holds each (ties by first occurrence): the most
    /// frequent FUP is the most frequent request.
    pub fn zipf_by_frequency(window: &[usize]) -> Mix {
        let mut order: Vec<(usize, usize)> = Vec::new(); // (id, count)
        for &id in window {
            match order.iter_mut().find(|(i, _)| *i == id) {
                Some(e) => e.1 += 1,
                None => order.push((id, 1)),
            }
        }
        // Stable, so ties keep their first-occurrence order.
        order.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
        let ids: Vec<usize> = order.into_iter().map(|(id, _)| id).collect();
        let zipf = Zipf::new(ids.len(), 1.0);
        Mix {
            ids,
            zipf: Some(zipf),
        }
    }

    /// Uniform over the entries of `list` (duplicates weigh more).
    pub fn uniform(list: Vec<usize>) -> Mix {
        assert!(!list.is_empty(), "a mix needs at least one expression");
        Mix {
            ids: list,
            zipf: None,
        }
    }

    pub fn draw(&self, rng: &mut Prng) -> usize {
        match &self.zipf {
            Some(z) => self.ids[z.sample(rng)],
            None => self.ids[rng.gen_range(0..self.ids.len())],
        }
    }

    /// Every entry of the mix once, in an order shuffled by `rng`: over a
    /// uniform mix, a pass asks each expression exactly as often as the mix
    /// weighs it, so every pass does the same work.
    pub fn pass(&self, rng: &mut Prng) -> Vec<usize> {
        let mut ids = self.ids.clone();
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.gen_range(0..=i));
        }
        ids
    }

    /// The first `n` draws of the stream seeded with `seed`.
    pub fn stream(&self, seed: u64, n: usize) -> Vec<usize> {
        let mut rng = Prng::seed_from_u64(seed);
        (0..n).map(|_| self.draw(&mut rng)).collect()
    }

    /// Each distinct id once, in first-occurrence order.
    pub fn distinct(&self) -> Vec<usize> {
        let mut seen = std::collections::HashSet::new();
        self.ids
            .iter()
            .copied()
            .filter(|id| seen.insert(*id))
            .collect()
    }

    /// The expectation of `cost(id)` under this mix.
    pub fn expected(&self, cost: impl Fn(usize) -> f64) -> f64 {
        match &self.zipf {
            Some(z) => z
                .weights()
                .iter()
                .zip(&self.ids)
                .map(|(w, &id)| w * cost(id))
                .sum(),
            None => self.ids.iter().map(|&id| cost(id)).sum::<f64>() / self.ids.len() as f64,
        }
    }
}

/// The daemon configuration of a workload.
pub fn serve_config(snapshot: &Path, answer_cache: bool, page_budget: Option<u64>) -> ServeConfig {
    let mut cfg = ServeConfig::new("127.0.0.1:0", snapshot);
    cfg.workers = WORKERS;
    if !answer_cache {
        cfg.cache = SharedCacheConfig {
            capacity: 0,
            ..SharedCacheConfig::default()
        };
    }
    cfg.paged_cache_bytes = page_budget;
    cfg
}

/// The live, adaptable index the snapshots are written from.
pub struct Indexer {
    pub graph: DataGraph,
    pub fgraph: FrozenGraph,
    pub index: MStarIndex,
    pub engine: AdaptEngine,
}

/// One set-up: a daemon serving a fresh snapshot, with one connection that
/// has received its first answer.
pub struct Live {
    pub indexer: Indexer,
    pub server: Server,
    pub client: Client,
    pub snapshot: PathBuf,
    pub setup_s: f64,
}

fn parse_all(exprs: &[String]) -> Result<Vec<PathExpr>, String> {
    exprs
        .iter()
        .map(|e| PathExpr::parse(e).map_err(|err| format!("{e}: {err}")))
        .collect()
}

/// Runs the whole set-up from XML bytes to the first served answer:
/// parse, freeze, build, adapt to `window` (unless it is empty), freeze the
/// index, save to the fresh path `snapshot`, start the daemon, connect, and
/// ask `first`. `setup_s` covers exactly these steps.
#[allow(clippy::too_many_arguments)]
pub fn set_up(
    xml_doc: &str,
    window: &[String],
    cfg: impl FnOnce(&Path) -> ServeConfig,
    snapshot: &Path,
    first: usize,
    table: &Table,
    tr: &mut Tracer,
    id: u64,
) -> Result<Live, String> {
    let t0 = Instant::now();
    let root = tr.open("setup", id, None);
    let s = tr.open("graph.parse", id, root);
    let graph = xml::parse(xml_doc).map_err(|e| e.to_string())?;
    tr.close(s);
    let s = tr.open("graph.freeze", id, root);
    let fgraph = FrozenGraph::freeze(&graph);
    tr.close(s);
    let s = tr.open("index.build", id, root);
    let index = MStarIndex::new(&graph);
    tr.close(s);
    let mut indexer = Indexer {
        graph,
        fgraph,
        index,
        engine: AdaptEngine::new(),
    };
    rebuild(&mut indexer, window, snapshot, tr, id, root)?;
    let s = tr.open("serve.start", id, root);
    let server = Server::start(cfg(snapshot)).map_err(|e| e.to_string())?;
    tr.close(s);
    let s = tr.open("serve.connect", id, root);
    let mut client = connect(server.addr())?;
    tr.close(s);
    let s = tr.open("serve.first_query", id, root);
    let reply = client
        .query("setup", &table.exprs[first])
        .map_err(|e| format!("first query: {e}"))?;
    tr.close(s);
    let setup_s = t0.elapsed().as_secs_f64();
    tr.close(root);
    if !table.check(first, &reply.nodes) {
        return Err(format!("first answer for {} is wrong", table.exprs[first]));
    }
    Ok(Live {
        indexer,
        server,
        client,
        snapshot: snapshot.to_path_buf(),
        setup_s,
    })
}

/// Opens a connection and waits until the daemon has accepted it (the
/// acceptor polls every 10 ms, so this belongs outside timed windows).
pub fn connect(addr: SocketAddr) -> Result<Client, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    c.ping().map_err(|e| format!("ping: {e}"))?;
    Ok(c)
}

/// Adapts the live index to `window` (unless it is empty), freezes it and
/// saves it to the fresh path `snapshot`. Returns the wall time in
/// milliseconds.
pub fn rebuild(
    ix: &mut Indexer,
    window: &[String],
    snapshot: &Path,
    tr: &mut Tracer,
    id: u64,
    parent: Option<usize>,
) -> Result<f64, String> {
    let t0 = Instant::now();
    if !window.is_empty() {
        let s = tr.open("index.adapt", id, parent);
        let batch = parse_all(window)?;
        ix.index.refine_batch(&ix.graph, &batch, &mut ix.engine);
        tr.close(s);
    }
    let s = tr.open("index.freeze", id, parent);
    let frozen = ix.index.freeze_compressed();
    tr.close(s);
    let s = tr.open("store.save", id, parent);
    save_paged(snapshot, &ix.fgraph, &frozen).map_err(|e| e.to_string())?;
    tr.close(s);
    Ok(t0.elapsed().as_secs_f64() * 1e3)
}

/// Asks the daemon to validate and swap to `snapshot`; returns the call's
/// wall time in milliseconds.
pub fn reload(client: &mut Client, snapshot: &Path) -> Result<f64, String> {
    let t0 = Instant::now();
    client
        .reload(&snapshot.display().to_string())
        .map_err(|e| format!("reload {}: {e}", snapshot.display()))?;
    Ok(t0.elapsed().as_secs_f64() * 1e3)
}

/// The answers of one measured window.
#[derive(Default)]
pub struct Window {
    pub traced: bool,
    /// Seconds the window lasted (for `adapt-reload`, seconds the query
    /// connection was busy).
    pub secs: f64,
    /// Latency of every answered request, in nanoseconds.
    pub lat_ns: Vec<u64>,
}

/// What a client saw.
#[derive(Default)]
pub struct Served {
    pub attempted: u64,
    pub answered: u64,
    /// Typed errors, transport errors and wrong answers.
    pub failed: u64,
    /// Answers that differ from the oracle, or carry the wrong epoch.
    pub mismatches: u64,
    /// Latencies of answers not yet assigned to a window, in nanoseconds.
    pub lat_ns: Vec<u64>,
    pub windows: Vec<Window>,
    pub spans: Vec<Span>,
}

impl Served {
    /// Closes the current window: the answers since the last one.
    pub fn close_window(&mut self, traced: bool, secs: f64) {
        let lat_ns = std::mem::take(&mut self.lat_ns);
        self.windows.push(Window {
            traced,
            secs,
            lat_ns,
        });
    }

    /// Adds `o`'s counts, answers and windows to these.
    pub fn merge(&mut self, o: Served) {
        self.attempted += o.attempted;
        self.answered += o.answered;
        self.failed += o.failed;
        self.mismatches += o.mismatches;
        self.lat_ns.extend(o.lat_ns);
        self.windows.extend(o.windows);
        self.spans.extend(o.spans);
    }

    /// Sends one query and checks it; `epoch` is the serving epoch the
    /// answer must carry, when it is known. Returns the answer's paper cost
    /// (index + data nodes visited).
    #[allow(clippy::too_many_arguments)]
    pub fn ask(
        &mut self,
        client: &mut Client,
        addr: SocketAddr,
        tenant: &str,
        id: usize,
        table: &Table,
        epoch: Option<u64>,
        span: Option<(u64, Instant)>,
    ) -> Option<u64> {
        self.attempted += 1;
        let t0 = Instant::now();
        let r = client.query(tenant, &table.exprs[id]);
        let t1 = Instant::now();
        match r {
            Ok(reply) => {
                if !table.check(id, &reply.nodes) || epoch.is_some_and(|e| e != reply.epoch) {
                    self.mismatches += 1;
                    self.failed += 1;
                    return None;
                }
                self.answered += 1;
                self.lat_ns.push((t1 - t0).as_nanos() as u64);
                if let Some((req, origin)) = span {
                    self.spans
                        .push(Span::between("serve.query", req, origin, t0, t1));
                }
                Some(reply.index_nodes + reply.data_nodes)
            }
            Err(ClientError::Server(_)) => {
                self.failed += 1;
                None
            }
            Err(_) => {
                // The connection is no longer coherent: replace it.
                self.failed += 1;
                if let Ok(c) = connect(addr) {
                    *client = c;
                }
                None
            }
        }
    }
}

/// Windows of about one second in `seconds`; even when `traced`, whose
/// runs trace every second window so that the tracing overhead is
/// measured in-run.
pub fn window_count(seconds: f64, traced: bool) -> usize {
    let n = (seconds.round() as usize).max(2);
    if traced {
        n.next_multiple_of(2)
    } else {
        n
    }
}

/// One client connection of the closed loop, with its request stream.
pub struct Conn {
    pub client: Client,
    tenant: String,
    rng: Prng,
    req: u64,
}

impl Conn {
    /// Connection `i` of a run draws from the stream seeded with
    /// `stream_seed(seed, i)`.
    pub fn new(client: Client, tenant: &str, seed: u64, i: usize) -> Conn {
        Conn {
            client,
            tenant: format!("{tenant}{i}"),
            rng: Prng::seed_from_u64(stream_seed(seed, i as u64)),
            req: (i as u64) << 40,
        }
    }
}

/// One window of the closed loop: every connection, on its own thread,
/// sends its next query as soon as the previous answer arrives, for
/// `secs` seconds.
#[allow(clippy::too_many_arguments)]
pub fn run_window(
    conns: &mut [Conn],
    addr: SocketAddr,
    mix: &Mix,
    table: &Table,
    secs: f64,
    traced: bool,
    origin: Instant,
) -> Served {
    let end = Instant::now() + std::time::Duration::from_secs_f64(secs);
    let mut all = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|c| {
                s.spawn(move || {
                    let mut out = Served::default();
                    while Instant::now() < end {
                        let id = mix.draw(&mut c.rng);
                        c.req += 1;
                        let span = traced.then_some((c.req, origin));
                        out.ask(&mut c.client, addr, &c.tenant, id, table, None, span);
                    }
                    out
                })
            })
            .collect();
        let mut all = Served::default();
        for h in handles {
            all.merge(h.join().expect("client thread panicked"));
        }
        all
    });
    all.close_window(traced, secs);
    all
}

/// One window of fixed work: connection `c` asks one shuffled pass over
/// `mix`, each query as soon as the previous answer arrives.
pub fn run_pass(
    c: &mut Conn,
    addr: SocketAddr,
    mix: &Mix,
    table: &Table,
    traced: bool,
    origin: Instant,
) -> Served {
    let ids = mix.pass(&mut c.rng);
    let mut out = Served::default();
    let t0 = Instant::now();
    for id in ids {
        c.req += 1;
        let span = traced.then_some((c.req, origin));
        out.ask(&mut c.client, addr, &c.tenant, id, table, None, span);
    }
    out.close_window(traced, t0.elapsed().as_secs_f64());
    out
}

/// What the in-process replay measured.
#[derive(Default)]
pub struct Replay {
    /// `PathExpr::parse` + `compile` per query, in nanoseconds.
    pub parse_ns: Vec<u64>,
    /// Index evaluation per query, in nanoseconds.
    pub eval_ns: Vec<u64>,
    pub queries: u64,
    pub validated: u64,
    pub index_nodes: u64,
    pub data_nodes: u64,
    pub mismatches: u64,
    /// Page-cache counters of the measured pass alone.
    pub pages: PageStats,
    /// Wall time of the measured pass.
    pub ms: f64,
}

/// Replays `ids` in-process through the calls a daemon worker makes:
/// `PagedFile::open_with(budget)`, then per query `PathExpr::parse`,
/// `compile` and the budgeted top-down evaluation. `warm` runs first,
/// untimed, as the daemon's warm-up pass did.
pub fn replay(
    snapshot: &Path,
    budget: u64,
    warm: &[usize],
    ids: &[usize],
    table: &Table,
) -> Result<Replay, String> {
    let file = PagedFile::open_with(snapshot, budget).map_err(|e| e.to_string())?;
    let (graph, star, cache) = file.into_parts().map_err(|e| e.to_string())?;
    let mut scratch = QueryScratch::new();
    let mut out = Replay::default();
    let mut run = |id: usize, out: &mut Replay| -> Result<(), String> {
        let t0 = Instant::now();
        let pe = PathExpr::parse(&table.exprs[id]).map_err(|e| e.to_string())?;
        let cp = pe.compile(&graph);
        let t1 = Instant::now();
        let mut meter = QueryBudget::default().meter();
        let a = star
            .query_top_down_budgeted(&graph, &cp, TrustPolicy::Proven, &mut scratch, &mut meter)
            .map_err(|e| format!("replay budget: {e:?}"))?;
        let t2 = Instant::now();
        if let Some(e) = cache.take_poison() {
            return Err(format!("page integrity failure: {e}"));
        }
        out.parse_ns.push((t1 - t0).as_nanos() as u64);
        out.eval_ns.push((t2 - t1).as_nanos() as u64);
        out.queries += 1;
        out.validated += u64::from(a.validated);
        out.index_nodes += a.cost.index_nodes;
        out.data_nodes += a.cost.data_nodes;
        let nodes: Vec<u32> = a.nodes.iter().map(|n| n.0).collect();
        out.mismatches += u64::from(!table.check(id, &nodes));
        Ok(())
    };
    let mut warmed = Replay::default();
    for &id in warm {
        run(id, &mut warmed)?;
    }
    let before = cache.stats();
    let t0 = Instant::now();
    for &id in ids {
        run(id, &mut out)?;
    }
    out.ms = t0.elapsed().as_secs_f64() * 1e3;
    out.mismatches += warmed.mismatches;
    let after = cache.stats();
    out.pages = PageStats {
        faults: after.faults - before.faults,
        hits: after.hits - before.hits,
        evictions: after.evictions - before.evictions,
        readahead_hits: after.readahead_hits - before.readahead_hits,
        wasted_prefetches: after.wasted_prefetches - before.wasted_prefetches,
        prefetched: after.prefetched - before.prefetched,
        ..after
    };
    Ok(out)
}

/// Medians over `reps` of: `PagedFile::open_with`, open through the first
/// answer, and `open_validated` (the check RELOAD runs), in milliseconds.
pub fn open_timings(
    snapshot: &Path,
    budget: u64,
    first: usize,
    table: &Table,
    reps: usize,
) -> Result<(f64, f64, f64), String> {
    let (mut open, mut ttfa, mut validate) = (Vec::new(), Vec::new(), Vec::new());
    let pe = PathExpr::parse(&table.exprs[first]).map_err(|e| e.to_string())?;
    for _ in 0..reps {
        let t0 = Instant::now();
        let mut f = PagedFile::open_with(snapshot, budget).map_err(|e| e.to_string())?;
        open.push(t0.elapsed().as_secs_f64() * 1e3);
        let a = f
            .query(&pe, TrustPolicy::Proven)
            .map_err(|e| e.to_string())?;
        ttfa.push(t0.elapsed().as_secs_f64() * 1e3);
        let nodes: Vec<u32> = a.nodes.iter().map(|n| n.0).collect();
        if !table.check(first, &nodes) {
            return Err(format!(
                "first-answer replay of {} is wrong",
                table.exprs[first]
            ));
        }
        drop(f);
        let t0 = Instant::now();
        open_validated(snapshot, true, Some(budget)).map_err(|e| e.to_string())?;
        validate.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let m = crate::stats::median;
    Ok((m(&open), m(&ttfa), m(&validate)))
}

/// `Σ extent bytes / Σ postings` over every component of the live index
/// frozen the way the snapshot writer freezes it.
pub fn extent_bytes_per_node(index: &MStarIndex, data_nodes: usize) -> f64 {
    let c = index.freeze_compressed();
    let bytes: usize = (0..=c.max_k()).map(|i| c.component(i).extent_bytes()).sum();
    bytes as f64 / (data_nodes * (c.max_k() + 1)) as f64
}
