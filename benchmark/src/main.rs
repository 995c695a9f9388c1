//! The repository benchmark.
//!
//! ```text
//! pcpm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs one workload untraced and prints the gated
//! end-to-end metrics; with `--trace 1` it runs the traced breakdown of
//! every workload (each in its own process) and prints the per-layer
//! metrics. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod input;
mod json;
mod stats;
mod sys;
mod trace;
mod workload;

use json::Json;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workload::{Ctx, Metric, Outcome, Workload};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Where inputs and results go, relative to the working directory.
const WORK_DIR: &str = ".benchmark-work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: pcpm-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("gen") => gen_main(&argv[1..]),
        Some("layers") => parse_args(&argv[1..]).and_then(|a| layers_main(&a)),
        _ => parse_args(&argv).and_then(|a| {
            if a.trace {
                traced_main(&a)
            } else {
                timed_main(&a)
            }
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pcpm-benchmark: {e}\n{}", usage());
            ExitCode::from(2)
        }
    }
}

/// `gen <scale> <edge-factor> <seed> <path>`: writes one cached input.
fn gen_main(argv: &[String]) -> Result<(), String> {
    let [scale, ef, seed, path] = argv else {
        return Err("gen takes <scale> <edge-factor> <seed> <path>".into());
    };
    let num = |s: &str| s.parse::<u64>().map_err(|e| format!("gen: {s:?}: {e}"));
    let spec = input::RmatSpec {
        scale: u32::try_from(num(scale)?).map_err(|e| e.to_string())?,
        edge_factor: u32::try_from(num(ef)?).map_err(|e| e.to_string())?,
        seed: num(seed)?,
    };
    if !(1..=30).contains(&spec.scale) || !(1..=64).contains(&spec.edge_factor) {
        return Err("gen: scale must be 1..=30 and edge factor 1..=64".into());
    }
    input::write_cached(&spec, Path::new(path)).map_err(|e| format!("gen: {e}"))
}

fn work_dir() -> PathBuf {
    PathBuf::from(WORK_DIR)
}

fn ctx(a: &Args, traced: bool) -> Ctx {
    Ctx {
        seed: a.seed,
        seconds: a.seconds,
        work: work_dir(),
        traced,
        tr: trace::Tracer::new(traced),
    }
}

fn metrics_json(ms: &[Metric]) -> Json {
    Json::Obj(
        ms.iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect(),
    )
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", metrics_json(metrics)),
    ])
    .render()
}

fn print_metrics(title: &str, ms: &[Metric]) {
    println!("# {title}");
    for m in ms {
        println!("#   {:<40} {:>14.6} {}", m.name, m.value, m.unit);
    }
}

fn print_failures(w: Workload, out: &Outcome) {
    println!(
        "# {}: {} operations, {} failed (ops_failed_frac {})",
        w.name(),
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for f in &out.failures {
        println!("#   FAILED: {f}");
    }
}

/// Writes `value` to `<work>/runs/<name>`, reporting where.
fn save(name: &str, value: &Json) {
    let dir = work_dir().join("runs");
    let path = dir.join(name);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, value.render() + "\n"))
    {
        Ok(()) => println!("# wrote {}", path.display()),
        Err(e) => eprintln!("# could not write {}: {e}", path.display()),
    }
}

fn run_record(a: &Args, w: Workload, host: &sys::Host, out: &Outcome, trace: Option<Json>) -> Json {
    let spec = w.spec(a.seed);
    let mut sizes = out.sizes.clone();
    sizes.sort();
    let mut fields = vec![
        ("workload".to_string(), Json::str(w.name())),
        ("seed".to_string(), Json::from(a.seed)),
        ("seconds".to_string(), Json::Num(a.seconds)),
        (
            "graph".to_string(),
            Json::obj([
                ("generator", Json::str("graph500-rmat")),
                ("scale", Json::from(u64::from(spec.scale))),
                ("edge_factor", Json::from(u64::from(spec.edge_factor))),
                ("nodes", Json::from(u64::from(spec.nodes()))),
            ]),
        ),
        ("host".to_string(), host.to_json(&sizes)),
        ("attempted".to_string(), Json::from(out.attempted)),
        ("failed".to_string(), Json::from(out.failed)),
        (
            "failures".to_string(),
            Json::Arr(out.failures.iter().map(|f| Json::str(f.clone())).collect()),
        ),
        ("end_to_end".to_string(), metrics_json(&out.end_to_end)),
        ("workload_metrics".to_string(), metrics_json(&out.report)),
        ("per_layer".to_string(), metrics_json(&out.layers)),
    ];
    fields.extend(out.notes.iter().cloned());
    if let Some(t) = trace {
        fields.push(("trace".to_string(), t));
    }
    Json::Obj(fields)
}

/// `--trace 0`: one workload, untraced.
fn timed_main(a: &Args) -> Result<(), String> {
    let host = sys::Host::detect();
    println!(
        "# pcpm-benchmark {} seed {} seconds {} (nproc {}, L2 {:?} B, L3 {:?} B)",
        a.workload.name(),
        a.seed,
        a.seconds,
        host.nproc,
        host.l2_bytes,
        host.l3_bytes
    );
    let mut c = ctx(a, false);
    let out = a.workload.run(&mut c)?;
    print_metrics("end-to-end (gated)", &out.end_to_end);
    print_metrics(&format!("{} figures", a.workload.name()), &out.report);
    print_failures(a.workload, &out);
    let record = run_record(a, a.workload, &host, &out, None);
    println!("# run {}", record.render());
    save(
        &format!("{}.seed{}.timed.json", a.workload.name(), a.seed),
        &record,
    );
    println!(
        "{}",
        result_line(out.failed == 0, out.attempted, out.failed, &out.end_to_end)
    );
    Ok(())
}

/// `layers ...`: the traced breakdown of one workload, in its own
/// process. Prints `@metric` and `@counts` lines for the parent.
fn layers_main(a: &Args) -> Result<(), String> {
    let host = sys::Host::detect();
    let mut c = ctx(a, true);
    let out = a.workload.run(&mut c)?;
    let spans = c.tr.finish();
    let root = spans
        .iter()
        .find(|s| s.name == "workload" && s.parent.is_none())
        .ok_or("the trace has no workload span")?;
    let b = trace::breakdown(&spans, root.id).ok_or("cannot walk the trace")?;
    let secs = |ns: u64| ns as f64 / 1e9;
    println!(
        "# trace {}: traced end-to-end {:.6} s",
        a.workload.name(),
        secs(b.total)
    );
    println!("#   self time on the blocking path, by layer:");
    let mut by_time: Vec<(&&str, &u64)> = b.self_ns.iter().collect();
    by_time.sort_by(|x, y| y.1.cmp(x.1));
    for (name, ns) in &by_time {
        println!(
            "#     {:<32} {:>12.6} s {:>6.2}%",
            name,
            secs(**ns),
            100.0 * **ns as f64 / b.total.max(1) as f64
        );
    }
    let sum: u64 = b.self_ns.values().sum();
    println!(
        "#   sum of self times {:.6} s; residual (benchmark code outside any layer span) {:.6} s",
        secs(sum),
        secs(b.residual)
    );
    let overhead = out
        .notes
        .iter()
        .find(|(k, _)| k == "trace_overhead_ms")
        .map_or(Json::Null, |(_, v)| v.clone());
    println!(
        "#   tracing overhead, traced minus untraced median operation: {} ms",
        overhead.render()
    );
    print_metrics(&format!("{} per-layer", a.workload.name()), &out.layers);
    print_metrics(
        &format!("{} figures (traced run)", a.workload.name()),
        &out.report,
    );
    print_failures(a.workload, &out);
    let trace_json = Json::obj([
        ("end_to_end_ns", Json::from(b.total)),
        ("residual_ns", Json::from(b.residual)),
        ("self_sum_ns", Json::from(sum)),
        (
            "self_ns",
            Json::Obj(
                b.self_ns
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::from(*v)))
                    .collect(),
            ),
        ),
    ]);
    let record = run_record(a, a.workload, &host, &out, Some(trace_json));
    save(
        &format!("{}.seed{}.traced.json", a.workload.name(), a.seed),
        &record,
    );
    save(
        &format!("{}.seed{}.spans.json", a.workload.name(), a.seed),
        &trace::to_json(&spans),
    );
    for m in &out.layers {
        println!(
            "@metric {} {} {}",
            m.name,
            m.unit,
            Json::Num(m.value).render()
        );
    }
    println!("@counts {} {}", out.attempted, out.failed);
    Ok(())
}

/// `--trace 1`: every workload's traced breakdown, each in a child
/// process (the requested workload first), merged into one result.
fn traced_main(a: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut order = vec![a.workload];
    order.extend(Workload::ALL.into_iter().filter(|w| *w != a.workload));
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for w in order {
        let mut child = Command::new(&exe)
            .args(["layers", "--workload", w.name()])
            .args([
                "--seed",
                &a.seed.to_string(),
                "--seconds",
                &a.seconds.to_string(),
            ])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the traced run: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut counts = None;
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| e.to_string())?;
            if let Some(rest) = line.strip_prefix("@metric ") {
                metrics.push(parse_metric(rest)?);
            } else if let Some(rest) = line.strip_prefix("@counts ") {
                let v: Vec<u64> = rest.split(' ').filter_map(|x| x.parse().ok()).collect();
                if let [attempted, failed] = v[..] {
                    counts = Some((attempted, failed));
                }
            } else {
                println!("{line}");
            }
        }
        let status = child.wait().map_err(|e| e.to_string())?;
        let (at, fa) = counts
            .filter(|_| status.success())
            .ok_or_else(|| format!("traced run of {} failed: {status}", w.name()))?;
        attempted += at;
        failed += fa;
    }
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
    Ok(())
}

fn parse_metric(s: &str) -> Result<Metric, String> {
    let mut parts = s.split(' ');
    let (Some(name), Some(unit), Some(value)) = (parts.next(), parts.next(), parts.next()) else {
        return Err(format!("malformed metric line {s:?}"));
    };
    let unit = workload::UNITS
        .iter()
        .copied()
        .find(|u| *u == unit)
        .ok_or_else(|| format!("unknown unit {unit:?}"))?;
    Ok(Metric {
        name: name.to_string(),
        unit,
        value: if value == "null" {
            f64::NAN
        } else {
            value.parse().map_err(|e| format!("{s:?}: {e}"))?
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload ppr-batch16-rmat14 --seed 9 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::PprBatch, 9, 12.0, true)
        );
        let a = args("--workload serve-mixed-rmat14").unwrap();
        assert_eq!((a.seed, a.trace), (DEFAULT_SEED, false));
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload pagerank-rmat22 --trace 2").is_err());
    }

    #[test]
    fn metric_lines_round_trip() {
        let m = parse_metric("core.step_ms ms 54.25").unwrap();
        assert_eq!(
            (m.name.as_str(), m.unit, m.value),
            ("core.step_ms", "ms", 54.25)
        );
        assert!(parse_metric("x furlongs 1").is_err());
    }
}
