//! Tests of the benchmark's own pieces, and a tiny-scale pass of every
//! workload with the oracle on.

use std::collections::BTreeSet;

use mrx_datagen::Prng;
use mrx_perfbench::harness::Mix;
use mrx_perfbench::inputs::Params;
use mrx_perfbench::json::Json;
use mrx_perfbench::report::{valid_name, Report, END_TO_END, PER_LAYER};
use mrx_perfbench::stats::{tail_rank, Zipf, MIN_BEYOND};
use mrx_perfbench::trace::Tracer;
use mrx_perfbench::workloads::{run, Kind, Run};

#[test]
fn zipf_sampler_is_deterministic_for_a_seed() {
    let z = Zipf::new(300, 1.0);
    let draw = |seed| {
        let mut rng = Prng::seed_from_u64(seed);
        (0..2_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
    };
    assert_eq!(draw(7), draw(7));
    assert_ne!(draw(7), draw(8));

    let w = z.weights();
    assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    assert!(w.windows(2).all(|p| p[0] > p[1]), "weights fall with rank");
    let top = draw(9).iter().filter(|&&r| r == 0).count() as f64 / 2_000.0;
    assert!(
        (top - w[0]).abs() < 0.03,
        "rank 0 drawn {top}, expected {}",
        w[0]
    );
}

#[test]
fn a_pass_asks_every_entry_once_in_a_seeded_order() {
    let list: Vec<usize> = (0..50).chain([3, 3, 7]).collect();
    let mix = Mix::uniform(list.clone());
    let pass = |seed| mix.pass(&mut Prng::seed_from_u64(seed));
    assert_eq!(pass(5), pass(5));
    assert_ne!(pass(5), pass(6));
    let mut sorted = pass(5);
    sorted.sort_unstable();
    let mut expected = list;
    expected.sort_unstable();
    assert_eq!(sorted, expected);
}

#[test]
fn percentile_keeps_ten_samples_beyond_it() {
    // Large samples: the nearest rank, which already has enough beyond it.
    assert_eq!(tail_rank(10_000, 0.99), 9_899);
    assert_eq!(tail_rank(100, 0.5), 49);
    // Small samples: the highest rank with MIN_BEYOND samples above it.
    assert_eq!(tail_rank(100, 0.99), 100 - 1 - MIN_BEYOND);
    assert_eq!(tail_rank(12, 0.99), 1);
    assert_eq!(tail_rank(11, 0.99), 0);
    // Fewer samples than that: the minimum.
    assert_eq!(tail_rank(5, 0.99), 0);
    for n in [11, 50, 1_000, 12_345] {
        assert!(n - 1 - tail_rank(n, 0.99) >= MIN_BEYOND);
    }
}

#[test]
fn metric_names_are_legal_and_unique() {
    let mut seen = BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(seen.insert(*name), "metric {name} listed twice");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit} of {name}"
        );
    }
    for bad in ["", ".x", "a b", "a,b", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad:?} accepted");
    }
}

fn names(j: &Json, key: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = j.get(key) else {
        panic!("BENCHMARK.json has no `{key}` list");
    };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
            (Some(Json::Str(n)), None) => (n.clone(), String::new()),
            _ => panic!("malformed entry in `{key}`"),
        })
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let j = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names(&j, "end_to_end"), own(END_TO_END));
    assert_eq!(names(&j, "per_layer"), own(PER_LAYER));
    let workloads: Vec<String> = names(&j, "workloads").into_iter().map(|(n, _)| n).collect();
    let kinds: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
    assert_eq!(workloads, kinds);
}

/// Checks a result line against the output contract.
fn check_line(line: &str, traced: bool) -> Json {
    let j = Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    let Json::Obj(top) = &j else {
        panic!("not an object")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert!(matches!(j.get("correct"), Some(Json::Bool(_))));
    let attempted = j.num("attempted").unwrap();
    assert!(attempted >= 1.0 && attempted.fract() == 0.0);
    assert_eq!(j.num("failed").unwrap().fract(), 0.0);
    let Some(Json::Obj(metrics)) = j.get("metrics") else {
        panic!("no metrics object")
    };
    let catalogue = if traced { PER_LAYER } else { END_TO_END };
    assert_eq!(metrics.len(), catalogue.len());
    for (name, unit) in catalogue {
        let m = &metrics[*name];
        assert!(m.num("value").is_some_and(f64::is_finite), "{name}");
        assert_eq!(m.get("unit"), Some(&Json::Str(unit.to_string())), "{name}");
    }
    j
}

#[test]
fn output_parses() {
    for traced in [false, true] {
        let mut r = Report::default();
        r.correct = true;
        r.attempted = 3;
        for (i, (name, _)) in END_TO_END.iter().chain(PER_LAYER).enumerate() {
            r.set(name, 0.125 + i as f64 * 1e3);
        }
        check_line(&r.to_json(traced), traced);
    }
}

#[test]
fn spans_nest_and_give_self_time() {
    let mut tr = Tracer::new(true);
    let root = tr.open("setup", 1, None);
    let child = tr.open("graph.parse", 1, root);
    std::thread::sleep(std::time::Duration::from_millis(2));
    tr.close(child);
    tr.close(root);
    let spans = tr.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(0));
    let own = tr.self_ns(0);
    assert_eq!(
        own,
        (spans[0].end_ns - spans[0].start_ns) - (spans[1].end_ns - spans[1].start_ns)
    );
    assert_eq!(tr.durations_ms_in("graph.parse", "setup").len(), 1);

    let mut off = Tracer::new(false);
    let s = off.open("setup", 1, None);
    off.close(s);
    assert!(off.spans().is_empty());
}

fn tiny(kind: Kind, seed: u64, traced: bool) -> Report {
    let work = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{}-{seed}-{traced}", kind.name()));
    let spec = Run {
        kind,
        seed,
        seconds: 2.0,
        traced,
        params: Params::tiny(),
        work,
    };
    let mut tr = Tracer::new(traced);
    let report = run(&spec, &mut tr).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
    assert!(
        report.correct,
        "{}: an answer differs from the oracle",
        kind.name()
    );
    assert_eq!(report.failed, 0, "{}", kind.name());
    check_line(&report.to_json(traced), traced);
    report
}

#[test]
fn tiny_pass_of_every_workload() {
    for kind in Kind::ALL {
        let a = tiny(kind, 3, false);
        // Counts that depend only on the inputs repeat exactly.
        let b = tiny(kind, 3, false);
        for m in ["paper_cost", "snapshot_bytes"] {
            assert_eq!(a.get(m), b.get(m), "{}: {m}", kind.name());
        }
        tiny(kind, 4, true);
    }
}
