//! End-to-end benchmark of the IMPrECISE pipeline.
//!
//! ```text
//! imprecise-perfbench --workload catalog|refine|session --seed N --seconds S --trace 0|1
//!                     [--size full|tiny] [--corrupt answer|fingerprint]
//! ```
//!
//! Prints a run record line, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See `perfbench/README.md` for what each workload and metric is for.

mod flow;
mod gen;
mod layers;
mod measure;
mod workloads;

use flow::{Corrupt, Ctx};
use measure::{median, quantile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use workloads::Workload;

/// End-to-end metric names and units, in report order.
pub const E2E_METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("integrate_s", "s"),
    ("integrate_growth_x", "ratio"),
    ("export_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("refine_step_p50_ms", "ms"),
    ("feedback_p50_ms", "ms"),
    ("open_s", "s"),
    ("store_bytes_per_publish", "bytes"),
    ("discarded_mass", "probability"),
    ("peak_rss_mb", "MiB"),
];

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    corrupt: Option<Corrupt>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    for key in map.keys() {
        if !["workload", "seed", "seconds", "trace", "size", "corrupt"].contains(&key.as_str()) {
            return Err(format!("unknown option --{key}"));
        }
    }
    let get = |k: &str| map.get(k).map(String::as_str);
    let workload = get("workload")
        .and_then(Workload::parse)
        .ok_or("--workload must be catalog, refine or session")?;
    let seed = get("seed")
        .and_then(|s| s.parse().ok())
        .ok_or("--seed must be a whole number")?;
    let seconds: f64 = get("seconds")
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| *s > 0.0)
        .ok_or("--seconds must be a positive number")?;
    let trace = match get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let tiny = match get("size").unwrap_or("full") {
        "full" => false,
        "tiny" => true,
        _ => return Err("--size must be full or tiny".into()),
    };
    let corrupt = match get("corrupt") {
        None => None,
        Some("answer") => Some(Corrupt::Answer),
        Some("fingerprint") => Some(Corrupt::Fingerprint),
        Some(_) => return Err("--corrupt must be answer or fingerprint".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        tiny,
        corrupt,
    })
}

/// The result of one run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// (name, value, unit) in report order.
    pub metrics: Vec<(String, f64, String)>,
    pub record: String,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", number(*v)))
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A finite JSON number with all its digits.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of the pools `ctx` collected. An empty pool
/// counts as a failed run: a metric was not measured.
fn e2e_metrics(ctx: &mut Ctx) -> Vec<(String, f64, String)> {
    for (pool, metric) in [
        ("setup", "setup_s"),
        ("integrate", "integrate_s"),
        ("integrate_small", "integrate_growth_x"),
        ("export", "export_s"),
        ("query", "query_p50_ms"),
        ("refine_step", "refine_step_p50_ms"),
        ("feedback", "feedback_p50_ms"),
        ("open", "open_s"),
        ("store_bytes_per_publish", "store_bytes_per_publish"),
        ("discarded_mass", "discarded_mass"),
    ] {
        if ctx.rec.pool(pool).is_empty() {
            ctx.rec.fail(format!("{metric}: no samples"));
        }
    }
    let rec = &ctx.rec;
    let ms = |pool: &str, q: f64| quantile(rec.pool(pool), q) * 1e3;
    let integrate = median(rec.pool("integrate"));
    let values = [
        median(rec.pool("setup")),
        integrate,
        integrate / median(rec.pool("integrate_small")),
        median(rec.pool("export")),
        ms("query", 0.5),
        ms("query", 0.9),
        ms("refine_step", 0.5),
        ms("feedback", 0.5),
        median(rec.pool("open")),
        median(rec.pool("store_bytes_per_publish")),
        median(rec.pool("discarded_mass")),
        peak_rss_mb(),
    ];
    E2E_METRICS
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n.to_string(), v, u.to_string()))
        .collect()
}

type Metrics = Vec<(String, f64, String)>;

/// Set the workload up and run it once for `ctx.seconds`.
fn run_half(ctx: &mut Ctx, workload: Workload) -> (Metrics, Box<dyn workloads::Prepared>) {
    let mut prepared = workloads::prepare(ctx, workload);
    workloads::run(ctx, prepared.as_mut(), workload);
    (e2e_metrics(ctx), prepared)
}

/// Run one workload. With `trace`, half the time runs untraced and half
/// traced (their difference is the tracing overhead), then the layer
/// calls are replayed under the tracer and the spans written to `work`.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    corrupt: Option<Corrupt>,
    work: &Path,
) -> Outcome {
    let run_dir = work.join(format!("run-{}-{}", workload.name(), std::process::id()));
    let _ = std::fs::create_dir_all(&run_dir);
    let half = if trace { seconds / 2.0 } else { seconds };
    let mut ctx = Ctx::new(seed, half, tiny, run_dir.clone(), corrupt);
    let (metrics, prepared) = if trace {
        let (untraced, _) = run_half(&mut ctx, workload);
        let first = std::mem::take(&mut ctx.rec);
        ctx.tracer.set_enabled(true);
        let (traced, prepared) = run_half(&mut ctx, workload);
        ctx.rec.attempted += first.attempted;
        ctx.rec.failed += first.failed;
        ctx.rec.failures.extend(first.failures);
        let reps = if tiny || workload == Workload::Catalog {
            2
        } else {
            3
        };
        let layers = layers::replay(&mut ctx, &prepared.replay(), reps);
        let mut metrics: Metrics = layers::LAYER_METRICS
            .iter()
            .map(|&(n, u)| (n.to_string(), layers[n], u.to_string()))
            .collect();
        for ((name, u, unit), (_, t, _)) in untraced.iter().zip(&traced) {
            metrics.push((format!("trace_overhead.{name}"), t - u, unit.clone()));
        }
        let spans = work.join(format!("trace-{}-seed{seed}.jsonl", workload.name()));
        if std::fs::write(&spans, ctx.tracer.to_json_lines()).is_err() {
            ctx.rec.fail(format!("could not write {}", spans.display()));
        }
        (metrics, prepared)
    } else {
        run_half(&mut ctx, workload)
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    Outcome {
        attempted: ctx.rec.attempted,
        failed: ctx.rec.failed,
        failures: ctx.rec.failures,
        metrics,
        record: record(workload, seed, seconds, trace, &prepared.sizes()),
    }
}

/// The run record: what makes numbers from another machine or commit
/// recognisable as not comparable.
fn record(workload: Workload, seed: u64, seconds: f64, trace: bool, sizes: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"record\":{{\"commit\":\"{}\",\"source_digest\":\"{:016x}\",\"nproc\":{nproc},\
         \"sim_kernel\":\"{}\",\"profile\":\"{profile}\",\"workload\":\"{}\",\"seed\":{seed},\
         \"seconds\":{seconds},\"trace\":{trace},\"sizes\":{sizes}}}}}",
        commit(),
        source_digest(Path::new("crates")),
        imprecise::sim::simd::active_name(),
        workload.name()
    )
}

/// The checked-out commit, when the working directory is the top of a
/// git repository (not a plain checkout nested inside another one).
fn commit() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
    };
    let top = git(&["rev-parse", "--show-toplevel"]).map(PathBuf::from);
    let here = std::env::current_dir().ok();
    match (
        top.and_then(|t| t.canonicalize().ok()),
        here.and_then(|h| h.canonicalize().ok()),
    ) {
        (Some(t), Some(h)) if t == h => {
            git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
        }
        _ => "unknown".into(),
    }
}

/// A digest of the sources under `dir` (paths and bytes, sorted), which
/// identifies the code under test where no git metadata exists.
fn source_digest(dir: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&f).unwrap_or_default());
    }
    flow::fnv1a(&bytes)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: imprecise-perfbench --workload catalog|refine|session \
                 --seed N --seconds S --trace 0|1 [--size full|tiny] [--corrupt answer|fingerprint]"
            );
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".bench_work");
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    let out = run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        args.tiny,
        args.corrupt,
        &work,
    );
    for f in &out.failures {
        eprintln!("failed: {f}");
    }
    println!("{}", out.record);
    println!("{}", out.json());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A work directory of the test's own (tests run in parallel).
    fn work(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".bench_work")
            .join(name);
        std::fs::create_dir_all(&dir).expect("work directory");
        dir
    }

    /// `(name, unit)` of every metric in `section` of BENCHMARK.json.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |obj: &str, key: &str| {
            let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
            let rest = &obj[at..];
            let open = rest.find('"').expect("string value") + 1;
            let close = open + rest[open..].find('"').expect("string ends");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn names(metrics: &[(String, f64, String)]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|(n, _, u)| (n.clone(), u.clone()))
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let e2e: Vec<(String, String)> = E2E_METRICS
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let mut layer: Vec<(String, String)> = layers::LAYER_METRICS
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        layer.extend(
            E2E_METRICS
                .iter()
                .map(|&(n, u)| (format!("trace_overhead.{n}"), u.to_string())),
        );
        assert_eq!(declared("per_layer"), layer);
    }

    #[test]
    fn tiny_runs_emit_every_metric_with_its_unit() {
        for w in Workload::ALL {
            let out = run(
                w,
                3,
                0.2,
                false,
                true,
                None,
                &work(&format!("e2e-{}", w.name())),
            );
            assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.failures);
            assert!(out.attempted > 0);
            assert_eq!(names(&out.metrics), declared("end_to_end"), "{}", w.name());
            for (name, value, _) in &out.metrics {
                assert!(
                    value.is_finite() && *value > 0.0,
                    "{} {name} = {value}",
                    w.name()
                );
            }
            let out = run(
                w,
                3,
                0.2,
                true,
                true,
                None,
                &work(&format!("layers-{}", w.name())),
            );
            assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.failures);
            assert_eq!(names(&out.metrics), declared("per_layer"), "{}", w.name());
            assert!(out.metrics.iter().all(|(_, v, _)| v.is_finite()));
            assert!(out.json().starts_with("{\"correct\":true,\"attempted\":"));
        }
    }

    #[test]
    fn corrupted_outputs_count_as_failed_operations() {
        for (w, kind) in [
            (Workload::Session, Corrupt::Answer),
            (Workload::Refine, Corrupt::Answer),
            (Workload::Catalog, Corrupt::Fingerprint),
            (Workload::Refine, Corrupt::Fingerprint),
        ] {
            let dir = work(&format!("corrupt-{}-{kind:?}", w.name()));
            let out = run(w, 5, 0.2, false, true, Some(kind), &dir);
            assert!(out.failed >= 1, "{} {kind:?} went unnoticed", w.name());
            assert!(out.json().starts_with("{\"correct\":false,"));
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args("--workload refine --seed 4 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (ok.workload, ok.seed, ok.trace),
            (Workload::Refine, 4, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload refine --seed x --seconds 1 --trace 0",
            "--workload refine --seed 1 --seconds 0 --trace 0",
            "--workload refine --seed 1 --seconds 1 --trace 2",
            "--workload refine --seed 1 --seconds 1 --frob 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
