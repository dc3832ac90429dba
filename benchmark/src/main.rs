//! The repo's benchmark. One command runs a workload made from a seed,
//! prints every metric by name with its unit, checks the answers, and ends
//! with one JSON line. See `README.md` beside this package.

mod calib;
mod compare;
mod data;
mod e2e;
mod json;
mod layers;
mod metrics;
mod ops;
mod stats;
mod trace;

use e2e::{RunSpec, Scale, Workload};
use json::Json;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  ucq-benchmark run --workload <cold_fc|cold_ext|serve_warm|churn_rotate|all> --seed <u64>
                    [--seconds <s>] [--trace <0|1>] [--out <file.jsonl>]
  ucq-benchmark smoke
  ucq-benchmark compare <a.jsonl> <b.jsonl>";

/// Where `BENCHMARK.json` lives relative to the directory the command runs
/// from (the root of a checkout).
const CONTRACT: &str = "BENCHMARK.json";
const OUT_DIR: &str = "benchmark/out";

/// `--flag value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got `{flag}`"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: cannot read `{v}`"))
            })
            .transpose()
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.parsed(name)?
            .ok_or_else(|| format!("--{name} is required"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => Flags::parse(&args[1..]).and_then(|f| run(&f)),
        Some("oracle") => Flags::parse(&args[1..]).and_then(|f| oracle(&f)),
        Some("smoke") => smoke(),
        Some("compare") if args.len() == 3 => compare::compare(
            Path::new(&args[1]),
            Path::new(&args[2]),
            Path::new(CONTRACT),
        ),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

fn oracle(flags: &Flags) -> Result<bool, String> {
    let shape = data::Shape::parse(flags.get("dataset").unwrap_or_default())
        .ok_or("--dataset is fc or ext")?;
    data::oracle_child(shape, flags.required("seed")?, flags.required("rows")?)
        .map_err(|e| format!("writing the oracle failed: {e}"))?;
    Ok(true)
}

/// Runs `ucq-benchmark <args>` as a child process and waits for it.
fn run_self(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args(args)
        .status()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    Ok(status.success())
}

fn run(flags: &Flags) -> Result<bool, String> {
    let workload = flags.get("workload").ok_or("--workload is required")?;
    if workload == "all" {
        // Each workload in a process of its own: no allocator state, page
        // cache of the heap or pool thread carries from one to the next.
        let mut ok = true;
        for w in Workload::ALL {
            let mut args = vec!["run".to_string()];
            for (k, v) in &flags.0 {
                let v = if k == "workload" {
                    w.name()
                } else {
                    v.as_str()
                };
                args.extend([format!("--{k}"), v.to_string()]);
            }
            ok &= run_self(&args)?;
        }
        return Ok(ok);
    }
    let workload = Workload::parse(workload).ok_or_else(|| format!("no workload `{workload}`"))?;
    let trace = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace is 0 or 1, not `{other}`")),
    };
    let scale = match flags.get("scale").unwrap_or("full") {
        "full" => Scale::Full,
        "smoke" => Scale::Smoke,
        other => return Err(format!("--scale is full or smoke, not `{other}`")),
    };
    let spec = RunSpec {
        workload,
        seed: flags.required("seed")?,
        seconds: flags.parsed("seconds")?.unwrap_or(20.0),
        scale,
    };
    if !(spec.seconds > 0.0 && spec.seconds <= 60.0) {
        return Err("--seconds lies in (0, 60]".into());
    }
    let out = flags
        .get("out")
        .map_or_else(|| Path::new(OUT_DIR).join("results.jsonl"), PathBuf::from);

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let par_threads = std::env::var("UCQ_PAR_THREADS").ok();
    println!(
        "workload {} seed {} seconds {} trace {} nproc {nproc} UCQ_PAR_THREADS {}",
        workload.name(),
        spec.seed,
        spec.seconds,
        u8::from(trace),
        par_threads.as_deref().unwrap_or("unset"),
    );
    let outcome = if trace {
        layers::run(&spec, Path::new(OUT_DIR))
    } else {
        e2e::run(&spec)
    };
    for message in outcome.gate.messages() {
        println!("check failed: {message}");
    }
    let missing = outcome.values.missing(trace);
    if !missing.is_empty() {
        return Err(format!("the run measured no value for {missing:?}"));
    }
    for def in metrics::defs(trace) {
        let value = outcome.values.get(def.name).expect("checked above");
        println!("{} {value} {}", def.name, def.unit);
    }
    let result = Json::obj([
        ("correct", Json::Bool(outcome.gate.correct())),
        ("attempted", Json::Num(outcome.gate.attempted as f64)),
        ("failed", Json::Num(outcome.gate.failed as f64)),
        ("metrics", outcome.values.to_json(trace)),
    ]);
    let record = Json::obj([
        ("workload", Json::Str(workload.name().into())),
        ("seed", Json::Num(spec.seed as f64)),
        ("seconds", Json::Num(spec.seconds)),
        ("trace", Json::Bool(trace)),
        ("nproc", Json::Num(nproc as f64)),
        ("ucq_par_threads", par_threads.map_or(Json::Null, Json::Str)),
        ("pool_workers", Json::Num(e2e::pool_workers() as f64)),
        ("result", result.clone()),
    ]);
    append_line(&out, &record.to_string())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("{result}");
    Ok(outcome.gate.correct())
}

fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{line}")
}

/// Every workload in both modes at a fraction of the size, then a check
/// that the names printed are exactly the names `BENCHMARK.json` declares.
fn smoke() -> Result<bool, String> {
    let out = Path::new(OUT_DIR).join("smoke.jsonl");
    // A leftover file would satisfy the checks below on its own.
    match std::fs::remove_file(&out) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            return Err(format!("cannot clear {}: {e}", out.display()))
        }
        _ => {}
    }
    let mut ok = true;
    for trace in ["0", "1"] {
        for w in Workload::ALL {
            let args = [
                "run",
                "--workload",
                w.name(),
                "--seed",
                "1",
                "--seconds",
                "0.5",
                "--trace",
                trace,
                "--scale",
                "smoke",
                "--out",
            ];
            let mut args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            args.push(out.display().to_string());
            ok &= run_self(&args)?;
        }
    }
    let problems = compare::check_against_contract(&out, Path::new(CONTRACT))?;
    for p in &problems {
        println!("smoke: {p}");
    }
    let ok = ok && problems.is_empty();
    println!("smoke: {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}
