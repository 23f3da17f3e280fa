//! Distributed-run driver: execute one shard per process, merge the
//! per-shard artifacts, and render the merged run as one HTML file.
//!
//! ```text
//! # run shard i of N in its own process, exporting a stamped artifact
//! shard_run run --shard 0/2 --out shard0.json
//! shard_run run --shard 1/2 --out shard1.json
//! # fold the shards into one artifact (refuses mismatched runs)
//! shard_run merge --out merged.json shard0.json shard1.json
//! # the single-process reference for the same configuration
//! shard_run single --shards 2 --out single.json
//! # byte-compare two artifacts on the deterministic surface
//! shard_run verify merged.json single.json
//! # render any artifact as a self-contained HTML report
//! shard_run report --out report.html merged.json
//! ```
//!
//! Exits 0 on success, 1 when `verify` finds a difference or `merge`
//! refuses its inputs, and 2 on usage errors.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use nbhd_core::eval::render_html_report;
use nbhd_core::exec::Parallelism;
use nbhd_core::gsv::{quiet_injected_panics, PoisonSchedule};
use nbhd_core::journal::{CheckpointStore, Journal, RunManifest};
use nbhd_core::obs::RunArtifact;
use nbhd_core::{
    distributed_config_hash, run_shard_distributed, run_supervised_artifact, SupervisePolicy,
    SurveyConfig,
};

const USAGE: &str = "usage: shard_run <command> [options]\n\
  run    --shard I/N --out FILE [--seed S] [--locations L] [--workers W]\n\
         [--poison-panic R] [--poison-corrupt R] [--journal DIR] [--name NAME]\n\
  single --shards N --out FILE [--seed S] [--locations L] [--workers W]\n\
         [--poison-panic R] [--poison-corrupt R] [--journal DIR] [--name NAME]\n\
  merge  --out FILE SHARD.json [SHARD.json ...] [--name NAME]\n\
  report --out FILE ARTIFACT.json\n\
  verify A.json B.json";

/// Options shared by `run` and `single`.
struct RunOptions {
    seed: u64,
    locations: usize,
    workers: Option<usize>,
    poison_panic: f64,
    poison_corrupt: f64,
    journal: Option<String>,
    name: Option<String>,
    out: Option<String>,
}

impl RunOptions {
    fn defaults() -> RunOptions {
        RunOptions {
            seed: 7,
            locations: 24,
            workers: None,
            poison_panic: 0.0,
            poison_corrupt: 0.0,
            journal: None,
            name: None,
            out: None,
        }
    }

    /// The survey config both `run` and `single` must build identically —
    /// the byte-identity contract starts with an identical configuration.
    fn survey_config(&self) -> SurveyConfig {
        SurveyConfig {
            seed: self.seed,
            locations: self.locations,
            parallelism: match self.workers {
                Some(n) => Parallelism::fixed(n),
                None => Parallelism::serial(),
            },
            ..SurveyConfig::smoke(self.seed)
        }
    }

    fn poison(&self) -> Option<PoisonSchedule> {
        if self.poison_panic <= 0.0 && self.poison_corrupt <= 0.0 {
            return None;
        }
        Some(
            PoisonSchedule::new(self.seed)
                .with_panic_rate(self.poison_panic)
                .with_corrupt_rate(self.poison_corrupt),
        )
    }

    fn store(&self, label: &str, hash: u64) -> Result<Option<Arc<dyn CheckpointStore>>, String> {
        match &self.journal {
            None => Ok(None),
            Some(dir) => {
                let manifest = RunManifest::new(label, hash);
                let journal = Journal::open_or_create(Path::new(dir), &manifest)
                    .map_err(|err| format!("shard_run: journal {dir}: {err}"))?;
                Ok(Some(Arc::new(journal) as Arc<dyn CheckpointStore>))
            }
        }
    }
}

/// Parses `--key value` options into `opts`; returns unconsumed positionals.
fn parse_options(args: &[String], opts: &mut RunOptions) -> Result<Vec<String>, String> {
    let mut positional = Vec::new();
    let mut shard_spec = None;
    let mut shards = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut take = |what: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("shard_run: {arg} expects {what}"))
        };
        match arg.as_str() {
            "--shard" => shard_spec = Some(take("I/N")?),
            "--shards" => shards = Some(take("N")?),
            "--out" => opts.out = Some(take("FILE")?),
            "--seed" => opts.seed = parse_num(&take("S")?, "--seed")?,
            "--locations" => opts.locations = parse_num(&take("L")?, "--locations")?,
            "--workers" => opts.workers = Some(parse_num(&take("W")?, "--workers")?),
            "--poison-panic" => opts.poison_panic = parse_rate(&take("R")?, "--poison-panic")?,
            "--poison-corrupt" => {
                opts.poison_corrupt = parse_rate(&take("R")?, "--poison-corrupt")?;
            }
            "--journal" => opts.journal = Some(take("DIR")?),
            "--name" => opts.name = Some(take("NAME")?),
            _ if arg.starts_with("--") => return Err(format!("shard_run: unknown option {arg}")),
            _ => positional.push(arg.clone()),
        }
    }
    if let Some(spec) = shard_spec {
        positional.insert(0, spec);
    }
    if let Some(n) = shards {
        positional.insert(0, n);
    }
    Ok(positional)
}

fn parse_num<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("shard_run: {flag}: not a number: {text}"))
}

fn parse_rate(text: &str, flag: &str) -> Result<f64, String> {
    let rate: f64 = parse_num(text, flag)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("shard_run: {flag}: rate {rate} outside 0..=1"));
    }
    Ok(rate)
}

/// Parses `I/N` shard specs.
fn parse_shard_spec(spec: &str) -> Result<(usize, usize), String> {
    let (index, count) = spec
        .split_once('/')
        .ok_or_else(|| format!("shard_run: --shard expects I/N, got {spec}"))?;
    Ok((parse_num(index, "--shard")?, parse_num(count, "--shard")?))
}

fn require_out(opts: &RunOptions) -> Result<&str, String> {
    opts.out
        .as_deref()
        .ok_or_else(|| "shard_run: --out FILE is required".to_string())
}

fn write_artifact(artifact: &RunArtifact, out: &str) -> Result<(), String> {
    artifact
        .write_file(Path::new(out))
        .map_err(|err| format!("shard_run: {out}: {err}"))
}

fn load_artifact(path: &str) -> Result<RunArtifact, String> {
    RunArtifact::read_file(Path::new(path)).map_err(|err| format!("shard_run: {path}: {err}"))
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let mut opts = RunOptions::defaults();
    let positional = parse_options(args, &mut opts)?;
    let spec = positional
        .first()
        .ok_or_else(|| "shard_run: run needs --shard I/N".to_string())?;
    let (index, count) = parse_shard_spec(spec)?;
    let out = require_out(&opts)?;
    let config = opts.survey_config();
    let policy = SupervisePolicy::default();
    let poison = opts.poison();
    let hash = distributed_config_hash(&config, &policy, poison)
        .map_err(|err| format!("shard_run: {err}"))?;
    let name = opts
        .name
        .clone()
        .unwrap_or_else(|| format!("distributed-{}", opts.seed));
    let store = opts.store(&name, hash)?;
    let run = run_shard_distributed(&name, &config, count, index, policy, poison, store)
        .map_err(|err| format!("shard_run: shard {index}/{count}: {err}"))?;
    write_artifact(run.artifact(), out)?;
    println!(
        "shard {index}/{count}: planned {} completed {} quarantined {} -> {out}",
        run.coverage().planned_locations,
        run.coverage().completed_locations,
        run.coverage().quarantined.len(),
    );
    Ok(())
}

fn cmd_single(args: &[String]) -> Result<(), String> {
    let mut opts = RunOptions::defaults();
    let positional = parse_options(args, &mut opts)?;
    let shards: usize = parse_num(
        positional
            .first()
            .ok_or_else(|| "shard_run: single needs --shards N".to_string())?,
        "--shards",
    )?;
    let out = require_out(&opts)?;
    let config = opts.survey_config();
    let policy = SupervisePolicy::default();
    let poison = opts.poison();
    let hash = distributed_config_hash(&config, &policy, poison)
        .map_err(|err| format!("shard_run: {err}"))?;
    let name = opts
        .name
        .clone()
        .unwrap_or_else(|| format!("distributed-{}", opts.seed));
    let store = opts.store(&name, hash)?;
    let (artifact, _outcome) =
        run_supervised_artifact(&name, &config, shards, policy, poison, store)
            .map_err(|err| format!("shard_run: single: {err}"))?;
    write_artifact(&artifact, out)?;
    println!("single ({shards} shards in-process) -> {out}");
    Ok(())
}

fn cmd_merge(args: &[String]) -> Result<(), String> {
    let mut opts = RunOptions::defaults();
    let shard_files = parse_options(args, &mut opts)?;
    let out = require_out(&opts)?;
    if shard_files.is_empty() {
        return Err("shard_run: merge needs at least one shard artifact".to_string());
    }
    let parts = shard_files
        .iter()
        .map(|path| load_artifact(path))
        .collect::<Result<Vec<_>, _>>()?;
    let name = opts.name.clone().unwrap_or_else(|| parts[0].name.clone());
    let merged = RunArtifact::merge_shards(&name, &parts)
        .map_err(|err| format!("shard_run: merge refused: {err}"))?;
    write_artifact(&merged, out)?;
    println!("merged {} shards -> {out}", parts.len());
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let mut opts = RunOptions::defaults();
    let positional = parse_options(args, &mut opts)?;
    let input = positional
        .first()
        .ok_or_else(|| "shard_run: report needs an artifact file".to_string())?;
    let out = require_out(&opts)?;
    let artifact = load_artifact(input)?;
    let html = render_html_report(&artifact);
    std::fs::write(out, html).map_err(|err| format!("shard_run: {out}: {err}"))?;
    println!("report {input} -> {out}");
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    if args.len() != 2 {
        return Err("shard_run: verify needs exactly two artifact files".to_string());
    }
    let a = load_artifact(&args[0])?;
    let b = load_artifact(&args[1])?;
    let mut failures = Vec::new();
    if a.deterministic_text() != b.deterministic_text() {
        failures.push("deterministic surface differs");
    }
    let coverage = |artifact: &RunArtifact| {
        artifact
            .coverage
            .as_ref()
            .map(|c| serde_json::to_string(c).unwrap_or_default())
    };
    if coverage(&a) != coverage(&b) {
        failures.push("coverage differs");
    }
    if failures.is_empty() {
        println!(
            "verify: {} == {} on the deterministic surface",
            args[0], args[1]
        );
        Ok(())
    } else {
        Err(format!("shard_run: verify: {}", failures.join("; ")))
    }
}

fn main() -> ExitCode {
    // poisoned locations panic on purpose; the supervisor quarantines them
    quiet_injected_panics();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "run" => cmd_run(rest),
        "single" => cmd_single(rest),
        "merge" => cmd_merge(rest),
        "report" => cmd_report(rest),
        "verify" => cmd_verify(rest),
        _ => {
            eprintln!("shard_run: unknown command {command}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("{err}");
            let usage_error = err.contains("expects")
                || err.contains("unknown option")
                || err.contains("needs")
                || err.contains("required")
                || err.contains("not a number");
            ExitCode::from(if usage_error { 2 } else { 1 })
        }
    }
}
