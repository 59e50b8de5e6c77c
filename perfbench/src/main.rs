//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root. The last line of standard output is the
//! result: `{"correct", "attempted", "failed", "metrics"}`, with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! A traced run also writes its spans to `.bench_work/trace-<name>.jsonl`.

use std::path::Path;
use std::process::exit;

use mrx_perfbench::inputs::Params;
use mrx_perfbench::report::Host;
use mrx_perfbench::trace::Tracer;
use mrx_perfbench::workloads::{run, Kind, Run};

const USAGE: &str = "usage: perfbench --workload <hot-zipf|cold-capped|adapt-reload> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<(Kind, u64, f64, bool), String> {
    let (mut kind, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(|| bad("a workload"))?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok((
        kind.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        traced.unwrap_or(false),
    ))
}

fn main() {
    let (kind, seed, seconds, traced) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            exit(2);
        }
    };
    let root = Path::new(".");
    let host = Host::detect(root);
    let out_dir = root.join(".bench_work");
    let spec = Run {
        kind,
        seed,
        seconds,
        traced,
        params: Params::full(),
        work: out_dir.join(format!("{}-{}", kind.name(), std::process::id())),
    };
    let mut tr = Tracer::new(traced);
    let report = match run(&spec, &mut tr) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", kind.name());
            exit(1);
        }
    };
    let record = format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"seconds\":{seconds},\"traced\":{traced},\"host\":{}}}",
        kind.name(),
        host.to_json()
    );
    if traced {
        let path = out_dir.join(format!("trace-{}.jsonl", kind.name()));
        if let Err(e) = tr.write_jsonl(&path, &record) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            exit(1);
        }
    }
    println!("# {record}");
    println!(
        "# latency samples {}, {} beyond p99",
        report.get("serve.latency_samples").unwrap_or(0.0),
        report.get("serve.p99_beyond").unwrap_or(0.0)
    );
    println!("{}", report.to_json(traced));
}
