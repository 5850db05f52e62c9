//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload walks-threaded --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One run repeats its workload's whole pipeline (set-up, training,
//! evaluation, serving) on `SUBS` inputs derived from `--seed`, cycling
//! through them until `--seconds` have passed, and reports medians. The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The traced run
//! alternates untraced and traced repetitions of the same inputs, switches
//! on the `gw2v-obs` instruments for the traced ones, and writes the
//! benchmark's own spans to `.perfbench_out/` at exit. See
//! `perfbench/BENCHMARK.md` for every metric and workload.

mod cores;
mod spans;
mod stats;
mod workloads;

use spans::Spans;
use stats::{json_num, json_str, median};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{run_rep, sub_seed, RepOut, Workload};

/// Distinct inputs per run; repetitions cycle through them.
const SUBS: usize = 8;
/// No repetition starts that would end after about this much wall time.
const HARD_STOP_S: f64 = 150.0;

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("train_words_per_s", "1/s"),
    ("eval_quality", "frac"),
    ("peak_rss_mb", "MB"),
    ("serve_qps", "1/s"),
];

/// Per-layer metrics (`--trace 1`), with units. Every workload reports
/// every name; a layer a workload bypasses reads 0.
const PER_LAYER: [(&str, &str); 46] = [
    ("corpus.generate_s", "s"),
    ("corpus.graph_s", "s"),
    ("corpus.walks_s", "s"),
    ("corpus.vocab_s", "s"),
    ("corpus.encode_s", "s"),
    ("corpus.tokens", "count"),
    ("corpus.sentences", "count"),
    ("corpus.empty_chunks", "count"),
    ("corpus.chunk_imbalance", "ratio"),
    ("check.chunks_s", "s"),
    ("setup.self_s", "s"),
    ("core.train_s", "s"),
    ("core.sim_replay_s", "s"),
    ("core.epoch_s_p50", "s"),
    ("core.epoch_s_max", "s"),
    ("core.pairs", "count"),
    ("core.negatives", "count"),
    ("core.host_compute_s_p50", "s"),
    ("core.host_compute_s_p99", "s"),
    ("core.round_self_s", "s"),
    ("core.virtual_s", "s"),
    ("sgns.minibatches", "count"),
    ("sgns.shared_negatives", "count"),
    ("gluon.sync_s", "s"),
    ("gluon.barrier_wait_s", "s"),
    ("gluon.barrier_wait_p99_ms", "ms"),
    ("gluon.msgs", "count"),
    ("gluon.rounds", "count"),
    ("gluon.reduce_bytes", "bytes"),
    ("gluon.broadcast_bytes", "bytes"),
    ("gluon.comm_virtual_s", "s"),
    ("gluon.sync_share", "ratio"),
    ("serve.load_s", "s"),
    ("serve.loop_s", "s"),
    ("serve.queries", "count"),
    ("serve.failed", "count"),
    ("serve.batch_ms_p50", "ms"),
    ("serve.batch_ms_p99", "ms"),
    ("serve.shard_scan_ns_p50", "ns"),
    ("serve.shard_scan_ns_p99", "ns"),
    ("eval.analogy_s", "s"),
    ("eval.linkpred_s", "s"),
    ("eval.skipped", "count"),
    ("eval.quality", "frac"),
    ("obs.trace_overhead", "ratio"),
    ("trace.unaccounted_share", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in raw.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k[2..].to_owned(), v.clone());
            }
            _ => return Err(format!("expected --flag value pairs, got {pair:?}")),
        }
    }
    let mut take = |k: &str| flags.remove(k).ok_or_else(|| format!("missing --{k}"));
    let name = take("workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let num = |k: &str, v: String| {
        v.parse::<u64>()
            .map_err(|_| format!("--{k}: bad number {v:?}"))
    };
    let seed = num("seed", take("seed")?)?;
    let seconds = num("seconds", take("seconds")?)? as f64;
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        v => return Err(format!("--trace: expected 0 or 1, got {v:?}")),
    };
    if let Some(k) = flags.keys().next() {
        return Err(format!("unknown flag --{k}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set size of this process, in MB.
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

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Machine and build stamp printed ahead of every result.
fn provenance_line(args: &Args, reps: usize, batches: usize) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let fields = [
        ("workload", json_str(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("trace", (args.trace as u8).to_string()),
        ("cores", cores.to_string()),
        ("cpu_model", json_str(&cpu_model())),
        ("rustc", json_str(env!("PERFBENCH_RUSTC"))),
        ("git_sha", json_str(&gw2v_obs::git_sha())),
        ("simd_backend", json_str(gw2v_util::simd::backend_name())),
        ("reps", reps.to_string()),
        ("serve_batches", batches.to_string()),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!("{{\"provenance\":{{{}}}}}", body.join(","))
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

struct Rep {
    sub: usize,
    traced: bool,
    wall_s: f64,
    out: RepOut,
}

fn end_to_end(reps: &[Rep]) -> BTreeMap<&'static str, f64> {
    let all = |f: fn(&RepOut) -> f64| -> Vec<f64> { reps.iter().map(|r| f(&r.out)).collect() };
    // The first SUBS repetitions cover each input once; the score of a
    // deterministic workload depends on nothing else.
    let quality: Vec<f64> = reps.iter().take(SUBS).map(|r| r.out.quality).collect();
    // One sample per epoch where the trainer reports epochs, else one
    // per repetition (the threaded trainer has no epoch callback).
    let train_rates: Vec<f64> = reps
        .iter()
        .flat_map(|r| {
            let o = &r.out;
            if o.epoch_s.is_empty() {
                vec![o.words / o.train_s]
            } else {
                let per_epoch = o.words / o.epoch_s.len() as f64;
                o.epoch_s.iter().map(|e| per_epoch / e).collect()
            }
        })
        .collect();
    // A repetition whose trainer failed never reached the serving loop.
    let qps: Vec<f64> = reps
        .iter()
        .filter(|r| r.out.serve.queries > 0)
        .map(|r| r.out.serve.queries as f64 / r.out.serve.loop_s)
        .collect();
    BTreeMap::from([
        ("setup_s", median(&all(|o| o.setup_s))),
        ("train_words_per_s", median(&train_rates)),
        ("eval_quality", median(&quality)),
        ("peak_rss_mb", peak_rss_mb()),
        ("serve_qps", median(&qps)),
    ])
}

fn per_layer(reps: &[Rep], spans: &Spans) -> BTreeMap<String, f64> {
    let traced: Vec<(usize, &Rep)> = reps.iter().enumerate().filter(|(_, r)| r.traced).collect();
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for &(i, r) in &traced {
        for (k, v) in &r.out.layer {
            samples.entry((*k).to_owned()).or_default().push(*v);
        }
        let selfs = spans.self_times(i);
        for (name, s) in &selfs {
            let key = match *name {
                "rep" => {
                    samples
                        .entry("trace.unaccounted_share".into())
                        .or_default()
                        .push(s / r.wall_s);
                    continue;
                }
                "setup" => "setup.self_s".to_owned(),
                _ => format!("{name}_s"),
            };
            samples.entry(key).or_default().push(*s);
        }
    }
    let mut out: BTreeMap<String, f64> = samples
        .iter()
        .map(|(k, v)| (k.clone(), median(v)))
        .collect();
    let train_s = |t: bool| {
        median(
            &reps
                .iter()
                .filter(|r| r.traced == t)
                .map(|r| r.out.train_s)
                .collect::<Vec<_>>(),
        )
    };
    out.insert(
        "obs.trace_overhead".into(),
        train_s(true) / train_s(false) - 1.0,
    );
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let wl = args.workload;
    gw2v_obs::set_enabled(false);
    let run_id = format!("{}-seed{}-pid{}", wl.name(), args.seed, std::process::id());
    let mut spans = Spans::new(run_id);
    let cpus = cores::allowed();
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut problems: Vec<String> = Vec::new();

    loop {
        let i = reps.len();
        let (sub, traced) = if args.trace {
            ((i / 2) % SUBS, i % 2 == 1)
        } else {
            (i % SUBS, false)
        };
        spans.set_rep(i);
        gw2v_obs::reset();
        gw2v_obs::set_enabled(traced);
        let rep_span = spans.enter("rep");
        // The simulator replay is a check and a traced layer: once a run,
        // and in every traced repetition.
        let replay = i == 0 || traced;
        let out = run_rep(wl, sub_seed(args.seed, sub), replay, &cpus, &mut spans);
        let wall_s = spans.exit(rep_span);
        gw2v_obs::set_enabled(false);
        eprintln!(
            "rep {i} input {sub}{}: setup {:.3}s train {:.3}s epochs {:.3?} quality {:.4} serve {} batches in {:.3}s, wall {:.3}s",
            if traced { " traced" } else { "" },
            out.setup_s,
            out.train_s,
            out.epoch_s,
            out.quality,
            out.serve.batches,
            out.serve.loop_s,
            wall_s
        );
        problems.extend(out.problems.iter().map(|p| format!("rep {i}: {p}")));
        if let Some(first) = reps.iter().find(|r| r.sub == sub) {
            if first.out.det != out.det {
                problems.push(format!(
                    "rep {i}: outputs differ from rep with the same input: {:?} vs {:?}",
                    out.det, first.out.det
                ));
            }
        }
        reps.push(Rep {
            sub,
            traced,
            wall_s,
            out,
        });

        let elapsed = start.elapsed().as_secs_f64();
        let enough = reps.len() > SUBS;
        // Stop when the next repetition would end more than half a
        // repetition past the deadline, so a run lasts about --seconds.
        if (enough && elapsed + wall_s / 2.0 >= args.seconds) || elapsed + wall_s > HARD_STOP_S {
            break;
        }
    }

    let attempted: u64 = reps.iter().map(|r| r.out.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.out.failed).sum();
    let batches: usize = reps.iter().map(|r| r.out.serve.batches).sum();
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    println!("{}", provenance_line(&args, reps.len(), batches));
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let layer = per_layer(&reps, &spans);
        let path = PathBuf::from(".perfbench_out").join(format!(
            "spans-{}-seed{}.jsonl",
            wl.name(),
            args.seed
        ));
        if let Err(e) = spans.write_jsonl(&path) {
            problems.push(format!("cannot write {}: {e}", path.display()));
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, layer.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let e2e = end_to_end(&reps);
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name, unit, e2e[name]))
            .collect()
    };
    println!(
        "{}",
        result_line(problems.is_empty(), attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_names_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
        let listed = spec.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
