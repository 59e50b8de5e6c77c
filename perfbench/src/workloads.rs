//! The three workloads. See `NOTES.md` for why each exists and which
//! layer metric should move which end-to-end metric.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use mrx_datagen::Prng;
use mrx_pagecache::DEFAULT_CACHE_BYTES;
use mrx_serve::Server;

use crate::harness::{
    connect, extent_bytes_per_node, open_timings, rebuild, reload, replay, run_pass, run_window,
    serve_config, set_up, window_count, Conn, Live, Mix, Replay, Served,
};
use crate::inputs::{Document, Params, Table};
use crate::json::Json;
use crate::report::{peak_rss_mb, Report};
use crate::stats::{median, quantile, stream_seed, tail_rank};
use crate::trace::Tracer;

/// Stream tags: every stream of a run is fixed by (run seed, tag).
const PROBE_WINDOWS: u64 = 0x9_0001;
const POST_RELOAD: u64 = 0x9_0002;
const EPOCH_QUERIES: u64 = 0x9_1000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Frequent queries: Zipf over the FUP window the index is adapted to.
    HotZipf,
    /// Infrequent queries: uniform over a workload the index was not
    /// adapted to, answer cache off, page cache capped.
    ColdCapped,
    /// The paper's adaptive loop: adapt, freeze, save and RELOAD each
    /// epoch while one connection queries.
    AdaptReload,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::HotZipf, Kind::ColdCapped, Kind::AdaptReload];

    pub fn name(self) -> &'static str {
        match self {
            Kind::HotZipf => "hot-zipf",
            Kind::ColdCapped => "cold-capped",
            Kind::AdaptReload => "adapt-reload",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// One run's settings.
pub struct Run {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub params: Params,
    /// A fresh directory for the run's snapshots.
    pub work: PathBuf,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

fn file_len(p: &Path) -> Result<u64, String> {
    std::fs::metadata(p)
        .map(|m| m.len())
        .map_err(|e| format!("{}: {e}", p.display()))
}

fn med_or(v: &[f64], what: &str) -> Result<f64, String> {
    if v.is_empty() {
        Err(format!("no {what} measured"))
    } else {
        Ok(median(v))
    }
}

/// Keeps the newest two snapshot files and deletes the rest: the one being
/// served and the one it replaced, as a RELOAD loop in production would.
fn retire(files: &mut Vec<PathBuf>) {
    while files.len() > 2 {
        let _ = std::fs::remove_file(files.remove(0));
    }
}

/// Runs `p.setups` set-ups, each into a fresh snapshot path, and keeps
/// the last one serving. Returns it with every set-up's time.
#[allow(clippy::too_many_arguments)]
fn set_ups(
    run: &Run,
    doc: &Document,
    window: &[String],
    cache: bool,
    page_budget: Option<u64>,
    first: usize,
    table: &Table,
    tr: &mut Tracer,
) -> Result<(Live, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut live: Option<Live> = None;
    for k in 0..run.params.setups.max(1) {
        if let Some(old) = live.take() {
            // Tear the previous set-up down first, so that no two coexist.
            drop(old.client);
            old.server.stop();
            let _ = std::fs::remove_file(&old.snapshot);
        }
        let path = run.work.join(format!("setup-{k}.mrx"));
        let l = set_up(
            &doc.xml,
            window,
            |s| serve_config(s, cache, page_budget),
            &path,
            first,
            table,
            tr,
            k as u64,
        )?;
        times.push(l.setup_s);
        live = Some(l);
    }
    Ok((live.expect("at least one set-up ran"), times))
}

/// Reads the daemon's STATS counters into per-layer metrics.
fn record_stats(r: &mut Report, stats: &str) -> Result<(), String> {
    let j = Json::parse(stats).map_err(|e| format!("STATS reply: {e}"))?;
    let n = |k: &str| j.num(k).ok_or_else(|| format!("STATS has no `{k}`"));
    let (hits, misses) = (n("cache.hits")?, n("cache.misses")?);
    r.set(
        "index.cache_hit_rate",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    r.set("index.cache_bypass_cheap", n("cache.bypass_cheap")?);
    r.set("index.cache_bypass_large", n("cache.bypass_large")?);
    r.set("index.cache_evictions", n("cache.evictions")?);
    r.set(
        "serve.shed",
        n("counters.shed_overload")? + n("counters.shed_rate")? + n("counters.conn_shed")?,
    );
    r.set("serve.budget_trips", n("counters.budget_trips")?);
    r.set("serve.reply_timeouts", n("counters.reply_timeouts")?);
    r.set("serve.store_errors", n("counters.store_errors")?);
    Ok(())
}

/// Per-layer metrics of the in-process replay and the snapshot timings.
#[allow(clippy::too_many_arguments)]
fn record_replays(
    r: &mut Report,
    run: &Run,
    snapshot: &Path,
    budget: u64,
    sequence: &[usize],
    distinct: &[usize],
    served_p50_us: f64,
    table: &Table,
) -> Result<u64, String> {
    let p = &run.params;
    let main: Replay = replay(snapshot, budget, distinct, sequence, table)?;
    let per_query: Vec<u64> = sorted(
        main.parse_ns
            .iter()
            .zip(&main.eval_ns)
            .map(|(a, b)| a + b)
            .collect(),
    );
    let eval = sorted(main.eval_ns.clone());
    let parse = sorted(main.parse_ns.clone());
    let q = main.queries.max(1) as f64;
    r.set("index.eval_p50_us", us(quantile(&eval, 0.5)));
    r.set("index.eval_p99_us", us(quantile(&eval, 0.99)));
    r.set("index.validated_share", main.validated as f64 / q);
    r.set("index.index_nodes_per_query", main.index_nodes as f64 / q);
    r.set("index.data_nodes_per_query", main.data_nodes as f64 / q);
    r.set("path.parse_compile_us", us(quantile(&parse, 0.5)));
    r.set(
        "serve.overhead_p50_us",
        served_p50_us - us(quantile(&per_query, 0.5)),
    );
    let pg = &main.pages;
    r.set("pagecache.faults", pg.faults as f64);
    r.set("pagecache.hits", pg.hits as f64);
    r.set(
        "pagecache.hit_rate",
        pg.hits as f64 / (pg.hits + pg.faults).max(1) as f64,
    );
    r.set("pagecache.evictions", pg.evictions as f64);
    r.set("pagecache.resident_bytes", pg.resident_bytes as f64);
    r.set("pagecache.readahead_hits", pg.readahead_hits as f64);
    r.set("pagecache.wasted_prefetches", pg.wasted_prefetches as f64);
    let capped = replay(snapshot, p.cold_page_budget, distinct, distinct, table)?;
    let uncapped = replay(snapshot, DEFAULT_CACHE_BYTES, distinct, distinct, table)?;
    r.set("pagecache.replay_capped_ms", capped.ms);
    r.set("pagecache.replay_uncapped_ms", uncapped.ms);
    let (open, ttfa, validate) = open_timings(snapshot, budget, distinct[0], table, p.open_reps)?;
    r.set("store.open_ms", open);
    r.set("store.ttfa_ms", ttfa);
    r.set("store.validate_ms", validate);
    Ok(main.mismatches + capped.mismatches + uncapped.mismatches)
}

/// Set-up span medians shared by every workload.
fn record_setup_spans(r: &mut Report, tr: &Tracer, rebuild_parent: &str) -> Result<(), String> {
    let m = |name: &str, parent: &str| med_or(&tr.durations_ms_in(name, parent), name);
    r.set("graph.parse_ms", m("graph.parse", "setup")?);
    r.set("graph.freeze_ms", m("graph.freeze", "setup")?);
    r.set("index.build_ms", m("index.build", "setup")?);
    r.set("serve.connect_ms", m("serve.connect", "setup")?);
    // Where the index is adapted, frozen and saved: in set-up for the
    // adapted workloads, in the epochs for `adapt-reload`.
    r.set("index.adapt_ms", m("index.adapt", rebuild_parent)?);
    r.set("index.freeze_ms", m("index.freeze", rebuild_parent)?);
    r.set("store.save_ms", m("store.save", rebuild_parent)?);
    Ok(())
}

/// End-to-end metrics of the measured windows, pooled over the whole run:
/// answers per second of the windows' total time, and the p50 and p99 of
/// every answered request. The host's speed drifts by tens of percent over
/// tens of seconds, and a figure over the whole run follows those drifts
/// less than any summary of its one-second windows. Returns the p50 in µs.
fn record_latency(r: &mut Report, served: &Served) -> Result<f64, String> {
    let lat = sorted(
        served
            .windows
            .iter()
            .flat_map(|w| w.lat_ns.iter().copied())
            .collect(),
    );
    if lat.is_empty() {
        return Err("no request was answered".into());
    }
    let secs: f64 = served.windows.iter().map(|w| w.secs).sum();
    let k = tail_rank(lat.len(), 0.99);
    let p50 = us(quantile(&lat, 0.5));
    r.set("qps", lat.len() as f64 / secs);
    r.set("p50_us", p50);
    r.set("p99_us", us(lat[k]));
    r.set("serve.latency_samples", lat.len() as f64);
    r.set("serve.p99_beyond", (lat.len() - 1 - k) as f64);
    r.set(
        "success_rate",
        served.answered as f64 / served.attempted.max(1) as f64,
    );
    Ok(p50)
}

/// Throughput over the windows with tracing on (or off).
fn mode_qps(served: &Served, traced: bool) -> f64 {
    let (n, secs) = served
        .windows
        .iter()
        .filter(|w| w.traced == traced)
        .fold((0, 0.0), |(n, s), w| (n + w.lat_ns.len(), s + w.secs));
    n as f64 / secs
}

fn record_post_reload(r: &mut Report, reload_ms: &[f64], post_ns: Vec<u64>) -> Result<(), String> {
    r.set("serve.reload_call_ms", med_or(reload_ms, "RELOAD")?);
    if post_ns.is_empty() {
        return Err("no post-reload query was answered".into());
    }
    let post = sorted(post_ns);
    r.set("serve.post_reload_p50_us", us(quantile(&post, 0.5)));
    r.set("serve.post_reload_p99_us", us(quantile(&post, 0.99)));
    Ok(())
}

fn record_trace_overhead(r: &mut Report, tr: &Tracer, served: &Served) {
    let (off, on) = (mode_qps(served, false), mode_qps(served, true));
    r.set("trace.spans", tr.spans().len() as f64);
    r.set("trace.overhead_pct", (off - on) / off * 100.0);
}

/// Runs one workload.
pub fn run(run: &Run, tr: &mut Tracer) -> Result<Report, String> {
    std::fs::create_dir_all(&run.work).map_err(|e| format!("{}: {e}", run.work.display()))?;
    let report = match run.kind {
        Kind::HotZipf | Kind::ColdCapped => steady(run, tr),
        Kind::AdaptReload => adapt_reload(run, tr),
    };
    let _ = std::fs::remove_dir_all(&run.work);
    report
}

/// `hot-zipf` and `cold-capped`: a set-up adapted to the hot window, a
/// warm-up pass, then the measured closed loop with one rebuild-and-RELOAD
/// probe after each window.
fn steady(run: &Run, tr: &mut Tracer) -> Result<Report, String> {
    let p = &run.params;
    let hot = run.kind == Kind::HotZipf;
    let mut r = Report::default();

    // Inputs and expected answers, outside every timed window.
    let doc = Document::generate(p)?;
    let mut table = Table::default();
    let (n, len, seed) = p.hot_window;
    let window = doc.queries(n, len, seed);
    let window_ids = table.intern_all(&window);
    // hot-zipf: 2 connections, answer cache on, page budget (256 MiB
    // default) above the file size. cold-capped: 1 connection, answer
    // cache off, the configured total page budget.
    let (mix, conns_n, cache, budget) = if hot {
        (Mix::zipf_by_frequency(&window_ids), 2, true, None)
    } else {
        let (n, len, seed) = p.cold_workload;
        let list = doc.queries(n, len, seed);
        let mix = Mix::uniform(table.intern_all(&list));
        (mix, 1, false, Some(p.cold_page_budget))
    };
    let windows = window_count(run.seconds, run.traced);
    let probes = doc.queries(
        windows * p.epoch_fups,
        4,
        stream_seed(run.seed, PROBE_WINDOWS),
    );
    table.solve(&doc.graph)?;
    let distinct = mix.distinct();

    let (live, setup_times) = set_ups(run, &doc, &window, cache, budget, distinct[0], &table, tr)?;
    r.set("setup_s", median(&setup_times));
    let Live {
        mut indexer,
        server,
        client,
        snapshot,
        ..
    } = live;
    if run.traced {
        r.set("index.components", (indexer.index.max_k() + 1) as f64);
        r.set("index.nodes", indexer.index.node_count() as f64);
        r.set(
            "index.adapt_scratch_allocs",
            indexer.engine.stats().scratch_allocs as f64,
        );
        r.set(
            "postings.extent_bytes_per_node",
            extent_bytes_per_node(&indexer.index, indexer.graph.node_count()),
        );
    }
    r.set("snapshot_bytes", file_len(&snapshot)? as f64);

    // Connections open before the measured window. A second daemon
    // serving the same snapshot takes the rebuild probes' RELOADs, so that
    // they never purge the measured daemon's caches.
    let addr = server.addr();
    let tenant = if hot { "hot" } else { "cold" };
    let mut conns = vec![Conn::new(client, tenant, run.seed, 0)];
    for i in 1..conns_n {
        conns.push(Conn::new(connect(addr)?, tenant, run.seed, i));
    }
    let probe_server =
        Server::start(serve_config(&snapshot, cache, budget)).map_err(|e| e.to_string())?;
    let probe_addr = probe_server.addr();
    let mut probe_client = connect(probe_addr)?;

    // Warm-up: every distinct expression once, which fills the caches and
    // gives each expression's paper cost.
    let mut warm = Served::default();
    let mut cost: HashMap<usize, u64> = HashMap::new();
    for &id in &distinct {
        if let Some(c) = warm.ask(&mut conns[0].client, addr, "warm", id, &table, None, None) {
            cost.insert(id, c);
        }
    }
    r.set(
        "paper_cost",
        mix.expected(|id| cost.get(&id).copied().unwrap_or(0) as f64),
    );

    // The measured closed loop, one window at a time. Between windows, one
    // rebuild-and-RELOAD probe against the probe daemon, so that the
    // probes sample the whole run and not one moment of it.
    let secs = run.seconds / windows as f64;
    let start = Instant::now();
    let mut served = Served::default();
    let mut files = Vec::new();
    let mut rebuild_ms = Vec::new();
    let mut reload_ms = Vec::new();
    let mut post = Served::default();
    let mut rng = Prng::seed_from_u64(stream_seed(run.seed, POST_RELOAD));
    for (i, w) in probes.chunks(p.epoch_fups).enumerate() {
        let traced = run.traced && i % 2 == 1;
        if hot {
            served.merge(run_window(
                &mut conns,
                addr,
                &mix,
                &table,
                secs,
                traced,
                tr.origin(),
            ));
        } else {
            // A window is one pass over the cold workload, so every
            // window does the same work; passes run until `seconds` is
            // used up (and at least two, one each way in a traced run).
            if i >= 2 && start.elapsed().as_secs_f64() >= run.seconds {
                break;
            }
            served.merge(run_pass(
                &mut conns[0],
                addr,
                &mix,
                &table,
                traced,
                tr.origin(),
            ));
        }
        let path = run.work.join(format!("probe-{i}.mrx"));
        let root = tr.open("rebuild", i as u64, None);
        let build = rebuild(&mut indexer, w, &path, tr, i as u64, root)?;
        let s = tr.open("serve.reload", i as u64, root);
        let rl = reload(&mut probe_client, &path)?;
        tr.close(s);
        tr.close(root);
        rebuild_ms.push(build + rl);
        reload_ms.push(rl);
        files.push(path);
        retire(&mut files);
        for _ in 0..p.post_reload {
            let id = mix.draw(&mut rng);
            post.ask(
                &mut probe_client,
                probe_addr,
                "post",
                id,
                &table,
                None,
                None,
            );
        }
    }
    let served_p50 = record_latency(&mut r, &served)?;
    if rebuild_ms.is_empty() {
        return Err("no rebuild measured".into());
    }
    r.set("rebuild_ms", median(&rebuild_ms));
    let mut mismatches = warm.mismatches + served.mismatches + post.mismatches;
    r.attempted = warm.attempted + served.attempted + post.attempted;
    r.failed = warm.failed + served.failed + post.failed;

    if run.traced {
        tr.extend(std::mem::take(&mut served.spans));
        record_trace_overhead(&mut r, tr, &served);
        record_stats(&mut r, &server.stats_json())?;
        // Connection 0's requests: its draws, or its passes.
        let sequence = if hot {
            mix.stream(stream_seed(run.seed, 0), p.replay)
        } else {
            let mut rng = Prng::seed_from_u64(stream_seed(run.seed, 0));
            let mut seq = Vec::new();
            while seq.len() < p.replay {
                seq.extend(mix.pass(&mut rng));
            }
            seq.truncate(p.replay);
            seq
        };
        let page_budget = budget.unwrap_or(DEFAULT_CACHE_BYTES);
        mismatches += record_replays(
            &mut r,
            run,
            &snapshot,
            page_budget,
            &sequence,
            &distinct,
            served_p50,
            &table,
        )?;
        record_post_reload(&mut r, &reload_ms, post.lat_ns)?;
        record_setup_spans(&mut r, tr, "setup")?;
    }

    drop(conns);
    drop(probe_client);
    server.stop();
    probe_server.stop();
    r.correct = mismatches == 0;
    r.set("peak_rss_mb", peak_rss_mb());
    Ok(r)
}

/// `adapt-reload`: boot un-adapted, then per epoch adapt the live index to
/// the next FUP window, freeze and save it to a fresh path while one
/// connection runs a fixed quota from that window, then RELOAD.
fn adapt_reload(run: &Run, tr: &mut Tracer) -> Result<Report, String> {
    let p = &run.params;
    let mut r = Report::default();
    let per_window = p.epochs_per_window.max(1);
    let epochs = window_count(run.seconds, run.traced) * per_window;

    let doc = Document::generate(p)?;
    let mut table = Table::default();
    let all = doc.queries(epochs * p.epoch_fups, 4, p.epoch_window_seed);
    let windows: Vec<&[String]> = all.chunks(p.epoch_fups).collect();
    let window_ids: Vec<Vec<usize>> = windows.iter().map(|w| table.intern_all(w)).collect();
    table.solve(&doc.graph)?;

    let (live, setup_times) = set_ups(run, &doc, &[], true, None, window_ids[0][0], &table, tr)?;
    r.set("setup_s", median(&setup_times));
    let Live {
        mut indexer,
        server,
        client: mut queries,
        snapshot,
        ..
    } = live;
    let addr = server.addr();
    let mut driver = connect(addr)?;

    let origin = tr.origin();
    let mut files = vec![snapshot];
    let mut served = Served::default();
    let mut post_ns = Vec::new();
    let mut busy = 0.0;
    let mut rebuild_ms = Vec::new();
    let mut reload_ms = Vec::new();
    let mut sequence = Vec::new();
    // Paper cost of each window's pass: the expected cost of the epoch's
    // requests, the same for every run seed.
    let mut window_cost = Vec::new();
    for (e, ids) in window_ids.iter().enumerate() {
        // A window is `per_window` epochs; traced runs alternate windows
        // with tracing off and on.
        let traced = run.traced && (e / per_window) % 2 == 1;
        tr.set_on(traced);
        let path = run.work.join(format!("epoch-{e}.mrx"));
        // The quota asks every FUP of the window once, in window order,
        // then draws the rest uniformly from the window.
        let mix = Mix::uniform(ids.clone());
        let rest = p.epoch_quota.saturating_sub(ids.len());
        let mut draws = ids.clone();
        draws.extend(mix.stream(stream_seed(run.seed, EPOCH_QUERIES + e as u64), rest));
        if sequence.len() < p.replay {
            sequence.extend_from_slice(&draws);
        }
        // The daemon still serves the previous epoch's snapshot: epoch
        // e + 1, counting the boot snapshot as 1.
        let serving = e as u64 + 1;
        let root = tr.open("epoch", e as u64, None);
        let (build, (out, secs)) = std::thread::scope(|s| {
            let q = s.spawn(|| {
                let mut out = Served::default();
                let t0 = Instant::now();
                for (i, &id) in draws.iter().enumerate() {
                    let span = traced.then_some((((e as u64) << 32) | i as u64, origin));
                    let cost =
                        out.ask(&mut queries, addr, "adapt", id, &table, Some(serving), span);
                    if i < ids.len() {
                        window_cost.extend(cost);
                    }
                }
                (out, t0.elapsed().as_secs_f64())
            });
            let build = rebuild(&mut indexer, windows[e], &path, tr, e as u64, root);
            (build, q.join().expect("query thread panicked"))
        });
        let build = build?;
        let s = tr.open("serve.reload", e as u64, root);
        let rl = reload(&mut driver, &path)?;
        tr.close(s);
        tr.close(root);
        rebuild_ms.push(build + rl);
        reload_ms.push(rl);
        files.push(path);
        retire(&mut files);
        if e > 0 {
            post_ns.extend(out.lat_ns.iter().take(p.post_reload));
        }
        busy += secs;
        served.merge(out);
        if (e + 1) % per_window == 0 {
            served.close_window(traced, busy);
            busy = 0.0;
        }
    }
    tr.set_on(run.traced);
    let last = files.last().expect("the final epoch's snapshot").clone();

    let served_p50 = record_latency(&mut r, &served)?;
    r.set(
        "paper_cost",
        window_cost.iter().sum::<u64>() as f64 / window_cost.len().max(1) as f64,
    );
    r.set("snapshot_bytes", file_len(&last)? as f64);
    r.set("rebuild_ms", median(&rebuild_ms));
    let mut mismatches = served.mismatches;
    r.attempted = served.attempted;
    r.failed = served.failed;

    if run.traced {
        tr.extend(std::mem::take(&mut served.spans));
        record_trace_overhead(&mut r, tr, &served);
        record_stats(&mut r, &server.stats_json())?;
        r.set("index.components", (indexer.index.max_k() + 1) as f64);
        r.set("index.nodes", indexer.index.node_count() as f64);
        r.set(
            "index.adapt_scratch_allocs",
            indexer.engine.stats().scratch_allocs as f64,
        );
        r.set(
            "postings.extent_bytes_per_node",
            extent_bytes_per_node(&indexer.index, indexer.graph.node_count()),
        );
        sequence.truncate(p.replay);
        let distinct: Vec<usize> = (0..table.exprs.len()).collect();
        mismatches += record_replays(
            &mut r,
            run,
            &last,
            DEFAULT_CACHE_BYTES,
            &sequence,
            &distinct,
            served_p50,
            &table,
        )?;
        record_post_reload(&mut r, &reload_ms, post_ns)?;
        record_setup_spans(&mut r, tr, "epoch")?;
    }

    drop(queries);
    drop(driver);
    server.stop();
    r.correct = mismatches == 0;
    r.set("peak_rss_mb", peak_rss_mb());
    Ok(r)
}
