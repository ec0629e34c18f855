//! `suite` — the repository's one benchmark: five wire-level workloads
//! against an in-process `gserver`, end-to-end metrics, and per-crate
//! layer metrics from a traced run. See README.md.
//!
//! ```text
//! suite bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! suite run     [--seed <n>] [--seconds <s>] [--quick]
//! suite trace   [--seed <n>] [--seconds <s>] [--quick]
//! suite compare <a.json> <b.json>
//! ```

mod config;
mod contract;
mod gen;
#[cfg(test)]
mod jit_check;
mod load;
mod oracle;
mod report;
mod run;
mod stats;
mod trace;
mod world;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use gserver::json::obj;
use gserver::Json;

use config::Scale;
use gen::Workload;
use report::WorkloadResult;
use world::{err, Result};

const USAGE: &str = "usage:
  suite bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  suite run     [--seed <n>] [--seconds <s>] [--quick]
  suite trace   [--seed <n>] [--seconds <s>] [--quick]
  suite compare <a.json> <b.json>
workloads: point_read update scan_hot adhoc_cold mixed_open";

/// `--key value` pairs and bare flags after the command word.
struct Args {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String], flags: &[&str]) -> Result<Args> {
        let mut args = Args {
            pairs: Vec::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) if flags.contains(&name) => args.flags.push(name.into()),
                Some(name) => match it.next() {
                    Some(v) => args.pairs.push((name.into(), v.clone())),
                    None => return err(format!("--{name} needs a value")),
                },
                None => args.positional.push(a.clone()),
            }
        }
        Ok(args)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, name: &str, default: Option<u64>) -> Result<u64> {
        match (self.get(name), default) {
            (Some(v), _) => v
                .parse()
                .map_err(|_| format!("--{name} must be a whole number, got {v:?}").into()),
            (None, Some(d)) => Ok(d),
            (None, None) => err(format!("--{name} is required")),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

/// What a child process was asked to do, as `bench` flags.
fn options(args: &Args) -> Result<run::Options> {
    let name = args.get("workload").ok_or("--workload is required")?;
    let workload = Workload::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seconds = args.number("seconds", None)?;
    if !(1..=60).contains(&seconds) {
        return err("--seconds must be between 1 and 60");
    }
    Ok(run::Options {
        workload,
        seed: args.number("seed", None)?,
        seconds,
        trace: match args.number("trace", Some(0))? {
            0 => false,
            1 => true,
            other => return err(format!("--trace must be 0 or 1, got {other}")),
        },
        scale: if args.flag("tiny") {
            Scale::Tiny
        } else {
            Scale::Bench
        },
        durability: args.flag("durability"),
        span_file: args.get("span-file").map(PathBuf::from),
    })
}

/// `bench`: one workload in this process. The last stdout line is the
/// contract's JSON object; with `--full`, the whole result instead.
fn bench(raw: &[String]) -> Result<ExitCode> {
    let args = Args::parse(raw, &["tiny", "durability", "full"])?;
    let mut opts = options(&args)?;
    if opts.trace && opts.span_file.is_none() {
        opts.span_file =
            Some(world::out_dir()?.join(format!("trace-{}.jsonl", opts.workload.name())));
    }
    let result = run::run_workload(&opts)?;
    let mut stderr = std::io::stderr().lock();
    result.print(&mut stderr)?;
    let line = if args.flag("full") {
        result.to_json()
    } else {
        contract::result_line(&result, opts.trace)?
    };
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

/// Provenance written into every result file.
fn meta(seed: u64, seconds: u64, scale: Scale, traced: bool) -> Json {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let knobs: Vec<Json> = gconfig::effective()
        .into_iter()
        .map(|e| {
            obj(vec![
                ("name", Json::Str(e.name.into())),
                ("value", Json::Str(e.value)),
                ("is_default", Json::Bool(e.is_default)),
            ])
        })
        .collect();
    obj(vec![
        ("suite_version", Json::Str(env!("CARGO_PKG_VERSION").into())),
        (
            "git_sha",
            Json::Str(git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "git_dirty",
            Json::Bool(git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty())),
        ),
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as i64)),
        ),
        ("seed", Json::Int(seed as i64)),
        ("window_s", Json::Int(seconds as i64)),
        ("traced", Json::Bool(traced)),
        ("comparable", Json::Bool(scale == Scale::Bench)),
        ("data", Json::Str(scale.name().into())),
        (
            "device_profile",
            Json::Str(format!("{:?}", pmem::DeviceProfile::pmem())),
        ),
        ("pool_bytes", Json::Int(config::POOL_BYTES as i64)),
        ("connections", Json::Int(config::CONNECTIONS as i64)),
        ("slices", Json::Int(config::SLICES as i64)),
        ("setups", Json::Int(config::SETUPS as i64)),
        ("warmup_rounds", Json::Int(config::WARMUP_ROUNDS as i64)),
        ("open_rate_rps", Json::Float(config::OPEN_RATE_RPS)),
        (
            "server_config",
            Json::Str(format!("{:?}", config::server_config())),
        ),
        ("jit_backend", Json::Str(contract::jit_backend())),
        ("knobs", Json::Arr(knobs)),
    ])
}

/// `run` / `trace`: every workload in its own child process.
fn run_all(raw: &[String], traced: bool) -> Result<ExitCode> {
    let args = Args::parse(raw, &["quick"])?;
    let quick = args.flag("quick");
    let seed = args.number("seed", Some(1))?;
    let default_s = if quick {
        config::QUICK_WINDOW_S
    } else {
        config::FULL_WINDOW_S
    };
    let seconds = args.number("seconds", Some(default_s))?;
    let scale = if quick { Scale::Tiny } else { Scale::Bench };
    let out_dir = world::out_dir()?;
    let exe = std::env::current_exe()?;
    let mut stdout = std::io::stdout().lock();
    if quick {
        writeln!(
            stdout,
            "# --quick: tiny data, {seconds} s windows: a smoke test, NOT comparable numbers"
        )?;
    }

    let mut results: Vec<WorkloadResult> = Vec::new();
    for workload in Workload::ALL {
        writeln!(stdout, "# {}: {}", workload.name(), workload.why())?;
        let mut cmd = Command::new(&exe);
        cmd.arg("bench")
            .args(["--workload", workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .arg("--full");
        if quick {
            cmd.arg("--tiny");
        }
        if !traced {
            cmd.arg("--durability");
        }
        if traced {
            let spans = out_dir.join(format!("trace-{}.jsonl", workload.name()));
            cmd.arg("--span-file").arg(spans);
        }
        let out = cmd.stderr(Stdio::null()).output()?;
        let text = String::from_utf8_lossy(&out.stdout);
        let parsed = text
            .lines()
            .last()
            .and_then(|l| Json::parse(l).ok())
            .and_then(|j| WorkloadResult::from_json(&j));
        let Some(result) = parsed.filter(|_| out.status.success()) else {
            return err(format!(
                "workload {} did not produce a result",
                workload.name()
            ));
        };
        result.print(&mut stdout)?;
        results.push(result);
    }

    let lost = results
        .iter()
        .filter_map(|r| r.metric("suite.lost_writes"))
        .map(|m| m.value as u64)
        .sum::<u64>();
    if !traced {
        writeln!(stdout, "lost_writes {lost}")?;
    }
    let file = out_dir.join(format!(
        "{}-seed{seed}{}.json",
        if traced { "trace" } else { "result" },
        if quick { "-quick" } else { "" }
    ));
    let doc = obj(vec![
        ("meta", meta(seed, seconds, scale, traced)),
        (
            "workloads",
            Json::Arr(results.iter().map(WorkloadResult::to_json).collect()),
        ),
    ]);
    std::fs::write(&file, format!("{doc}\n"))?;
    writeln!(stdout, "wrote {}", file.display())?;

    let wrong: usize = results.iter().map(|r| r.problems.len()).sum();
    if wrong > 0 {
        writeln!(stdout, "{wrong} problem(s): outputs are NOT correct")?;
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn load_results(path: &str) -> Result<Vec<WorkloadResult>> {
    let doc = Json::parse(std::fs::read_to_string(path)?.trim())?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no \"workloads\" array"))?;
    workloads
        .iter()
        .map(|w| {
            WorkloadResult::from_json(w)
                .ok_or_else(|| format!("{path}: malformed workload entry").into())
        })
        .collect()
}

fn compare(raw: &[String]) -> Result<ExitCode> {
    let [a, b] = raw else {
        return err(USAGE);
    };
    let regressed = report::compare(
        &load_results(a)?,
        &load_results(b)?,
        &mut std::io::stdout().lock(),
    )?;
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    // Before any thread exists: the fixed configuration owns the knobs.
    config::clear_knob_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "bench" => bench(rest),
            "run" => run_all(rest, false),
            "trace" => run_all(rest, true),
            "compare" => compare(rest),
            _ => err(USAGE),
        },
        None => err(USAGE),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("suite: {e}");
            ExitCode::from(2)
        }
    }
}
