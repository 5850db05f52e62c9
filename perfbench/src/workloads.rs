//! The workloads, each driven through the library's public entry points:
//! corpus generation, vocabulary and encoding, one timed trainer,
//! evaluation, and a closed-loop serving client over the trained table.
//!
//! One call of [`run_rep`] is one repetition: the full pipeline on inputs
//! derived from one seed. Every layer call is wrapped in a span of the
//! benchmark's own (see [`crate::spans`]).

use crate::cores;
use crate::spans::Spans;
use crate::stats::{max, median};
use gw2v_core::TrainResult;
use gw2v_core::{DistConfig, DistributedTrainer, HogBatchTrainer, Hyperparams, SgnsMode};
use gw2v_core::{ThreadedTrainer, Word2VecModel};
use gw2v_corpus::datasets::{DatasetPreset, Scale};
use gw2v_corpus::graphs::{even_blocks, holdout_split, sample_negative_edges, sbm};
use gw2v_corpus::tokenizer::{sentences_from_text, TokenizerConfig};
use gw2v_corpus::walks::{generate_walks, WalkParams};
use gw2v_corpus::{AnalogySet, Corpus, SynthCorpus, VocabBuilder, Vocabulary, WalkGraph};
use gw2v_eval::{evaluate, evaluate_link_prediction, EmbeddingIndex, LinkScore};
use gw2v_gluon::{CommStats, SyncPlan, WireMode};
use gw2v_obs::MetricsSnapshot;
use gw2v_serve::{Query, QueryEngine, ShardedStore};
use gw2v_util::rng::{Rng64, SplitMix64, Xoshiro256};
use std::collections::BTreeMap;
use std::time::Instant;

/// Queries per serving batch.
const SERVE_BATCH: usize = 32;
/// Neighbours returned per query.
const SERVE_K: usize = 10;
/// Shards of the serving store.
const SERVE_SHARDS: usize = 8;
/// Closed-loop batches per repetition.
const SERVE_BATCHES_PER_REP: usize = 400;
/// Served queries per repetition re-checked against a brute-force scan:
/// the first query of every `KNN_EVERY`-th batch.
const KNN_CHECKS: usize = 24;
const KNN_EVERY: usize = 16;
/// Largest score gap tolerated between the served and the brute-force
/// top-k at any rank (served scores are rescored in scalar arithmetic
/// and quantized at 1e-6; the brute-force scan uses the SIMD kernels).
const KNN_TOLERANCE: f64 = 1e-4;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// SBM graph walks on the threaded engine, HogBatch SGNS, replayed on
    /// the sequential simulator.
    WalksThreaded,
    /// News-sim text on the shared-memory HogBatch trainer, then serving.
    HogbatchServe,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::WalksThreaded, Workload::HogbatchServe];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WalksThreaded => "walks-threaded",
            Workload::HogbatchServe => "hogbatch-serve",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether a repetition's outputs are a pure function of its inputs
    /// (the distributed engines' are; racing HogBatch threads' are not).
    pub fn deterministic(self) -> bool {
        self == Workload::WalksThreaded
    }

    /// Lowest acceptable evaluation score (analogy accuracy as a
    /// fraction, or link-prediction AUC). Set well below the lowest
    /// value measured over many seeds; see `perfbench/BENCHMARK.md`.
    pub fn quality_floor(self) -> f64 {
        match self {
            Workload::WalksThreaded => 0.85,
            Workload::HogbatchServe => 0.75,
        }
    }

    /// Host threads (or racing HogBatch threads) and rounds per epoch:
    /// the (host, round) chunk grid the corpus is split into.
    fn grid(self) -> (usize, usize) {
        match self {
            Workload::WalksThreaded => (2, 8),
            Workload::HogbatchServe => (2, 1),
        }
    }

    fn params(self, seed: u64) -> Hyperparams {
        match self {
            Workload::HogbatchServe => Hyperparams {
                dim: 32,
                window: 5,
                negative: 5,
                epochs: 2,
                seed,
                ..Hyperparams::default()
            },
            Workload::WalksThreaded => Hyperparams {
                dim: 32,
                window: 4,
                negative: 5,
                epochs: 6,
                subsample: 0.0,
                seed,
                ..Hyperparams::default()
            },
        }
    }
}

/// The evaluation task that goes with a corpus.
enum Task {
    Analogy(AnalogySet),
    LinkPred {
        graph: WalkGraph,
        positives: Vec<(u32, u32)>,
    },
}

/// A generated, encoded input.
struct Prepared {
    vocab: Vocabulary,
    corpus: Corpus,
    task: Task,
}

/// Serving-loop outcome of one repetition.
#[derive(Default)]
pub struct ServeOut {
    /// Batches sent.
    pub batches: usize,
    /// Wall time of the whole closed loop.
    pub loop_s: f64,
    /// Queries sent.
    pub queries: u64,
    /// Queries answered with an error.
    pub failed: u64,
}

/// Everything one repetition measured.
pub struct RepOut {
    /// Set-up time: generation, vocabulary, encoding and chunk checks.
    pub setup_s: f64,
    /// Wall time of the trainer call.
    pub train_s: f64,
    /// Wall time of each epoch, from the trainer's epoch callback (empty
    /// for the threaded trainer, which has none).
    pub epoch_s: Vec<f64>,
    /// Tokens × epochs the trainer consumed.
    pub words: f64,
    /// Evaluation score: analogy accuracy (fraction) or link-prediction AUC.
    pub quality: f64,
    /// Outputs that must repeat bit-for-bit for the same inputs.
    pub det: Vec<(&'static str, String)>,
    /// Serving loop.
    pub serve: ServeOut,
    /// Operations attempted (train calls and queries).
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Check failures, one line each; empty when every check passed.
    pub problems: Vec<String>,
    /// Per-layer metrics of this repetition.
    pub layer: BTreeMap<&'static str, f64>,
}

/// Seed of repetition input `sub` of a run seeded with `seed`.
pub fn sub_seed(seed: u64, sub: usize) -> u64 {
    SplitMix64::new(seed).derive(sub as u64)
}

fn encode(text: &str, spans: &mut Spans) -> (Vocabulary, Corpus) {
    let cfg = TokenizerConfig::default();
    let (vocab, _) = spans.time("corpus.vocab", || {
        let mut builder = VocabBuilder::new();
        for sentence in sentences_from_text(text, cfg.clone()) {
            builder.add_sentence(&sentence);
        }
        builder.build(1)
    });
    let (corpus, _) = spans.time("corpus.encode", || Corpus::from_text(text, &vocab, cfg));
    (vocab, corpus)
}

fn prepare(wl: Workload, seed: u64, spans: &mut Spans) -> Prepared {
    match wl {
        Workload::HogbatchServe => {
            let preset = DatasetPreset::by_name("news-sim").expect("news-sim preset exists");
            // Every distinct question of the planted relations, so the
            // score carries no question-sampling noise.
            let (synth, _) = spans.time("corpus.generate", || {
                let spec = preset.spec(Scale::Small, seed);
                let all = spec
                    .categories
                    .iter()
                    .map(|c| c.n_pairs * (c.n_pairs - 1))
                    .max();
                SynthCorpus::generate(&spec, preset.target_tokens(Scale::Small), all.unwrap_or(0))
            });
            let (vocab, corpus) = encode(&synth.text, spans);
            Prepared {
                vocab,
                corpus,
                task: Task::Analogy(synth.analogies),
            }
        }
        Workload::WalksThreaded => {
            let ((graph, train_graph, positives), _) = spans.time("corpus.graph", || {
                let (graph, _) = sbm(&even_blocks(1200, 24), 0.12, 0.0005, seed);
                let (train_graph, positives) = holdout_split(&graph, 0.2, seed ^ 0x5eed);
                (graph, train_graph, positives)
            });
            let params = WalkParams {
                walks_per_node: 10,
                walk_length: 40,
                p: 1.0,
                q: 2.0,
                seed,
            };
            let (walks, _) = spans.time("corpus.walks", || generate_walks(&train_graph, &params));
            let (vocab, corpus) = encode(&walks.text, spans);
            Prepared {
                vocab,
                corpus,
                task: Task::LinkPred { graph, positives },
            }
        }
    }
}

/// Token count of every (host, round) chunk the trainers will walk,
/// computed from the public partitioning API.
fn chunk_tokens(corpus: &Corpus, hosts: usize, rounds: usize) -> Vec<usize> {
    (0..hosts)
        .flat_map(|h| {
            let shard = corpus.partition(h, hosts);
            (0..rounds).map(move |r| shard.round_chunk(r, rounds).total_tokens())
        })
        .collect()
}

/// A trained model plus what its trainer reported; the shared-memory
/// trainer reports no pairs, traffic or virtual time.
struct Trained {
    model: Word2VecModel,
    epoch_s: Vec<f64>,
    pairs: u64,
    stats: CommStats,
    compute_s: f64,
    comm_virtual_s: f64,
}

impl From<TrainResult> for Trained {
    fn from(r: TrainResult) -> Self {
        Self {
            model: r.model,
            epoch_s: Vec::new(),
            pairs: r.pairs_trained,
            stats: r.stats,
            compute_s: r.compute_time,
            comm_virtual_s: r.comm_time,
        }
    }
}

/// The distributed configuration of `walks-threaded`, shared by the
/// threaded engine and its simulator replay.
fn walks_config() -> DistConfig {
    let (hosts, rounds) = Workload::WalksThreaded.grid();
    DistConfig {
        sync_rounds: rounds,
        plan: SyncPlan::PullModel,
        wire: WireMode::Delta,
        sgns: SgnsMode::HogBatch,
        ..DistConfig::paper_default(hosts)
    }
}

fn train(wl: Workload, p: &Hyperparams, data: &Prepared) -> Result<Trained, String> {
    let (hosts, _) = wl.grid();
    let t0 = Instant::now();
    let mut marks = Vec::with_capacity(p.epochs);
    let mut mark = || marks.push(t0.elapsed().as_secs_f64());
    let trained: Trained = match wl {
        Workload::WalksThreaded => ThreadedTrainer::new(p.clone(), walks_config())
            .train(&data.corpus, &data.vocab)
            .map_err(|e| format!("threaded trainer: {e}"))?
            .into(),
        Workload::HogbatchServe => Trained {
            model: HogBatchTrainer::new(p.clone(), hosts).train_with_callback(
                &data.corpus,
                &data.vocab,
                |_, _| mark(),
            ),
            epoch_s: Vec::new(),
            pairs: 0,
            stats: CommStats::default(),
            compute_s: 0.0,
            comm_virtual_s: 0.0,
        },
    };
    // Epoch durations from the callback timestamps (none for the
    // threaded trainer, which has no callback).
    let epoch_s = marks
        .iter()
        .scan(0.0, |prev, &t| Some(t - std::mem::replace(prev, t)))
        .collect();
    Ok(Trained { epoch_s, ..trained })
}

/// FNV-1a over the bits of the embedding table.
fn model_hash(model: &Word2VecModel) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in model.syn0.as_slice() {
        h = (h ^ x.to_bits() as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Closed-loop query stream: 80% similarity / 20% analogy on the text
/// workloads (analogy triples from the question set), similarity only on
/// the walk workload (nearest nodes).
fn make_queries(data: &Prepared, seed: u64, n: usize) -> Vec<Query> {
    let mut rng = Xoshiro256::new(seed);
    let n_words = data.vocab.len() as u64;
    let triples: Vec<[&str; 3]> = match &data.task {
        Task::Analogy(set) => set
            .categories
            .iter()
            .flat_map(|c| &c.questions)
            .filter(|q| {
                [&q.a, &q.b, &q.c]
                    .iter()
                    .all(|w| data.vocab.id_of(w).is_some())
            })
            .map(|q| [q.a.as_str(), q.b.as_str(), q.c.as_str()])
            .collect(),
        Task::LinkPred { .. } => Vec::new(),
    };
    (0..n)
        .map(|_| {
            if !triples.is_empty() && rng.next_u64().is_multiple_of(5) {
                let [a, b, c] = triples[(rng.next_u64() % triples.len() as u64) as usize];
                Query::Analogy {
                    a: a.to_owned(),
                    b: b.to_owned(),
                    c: c.to_owned(),
                }
            } else {
                let id = (rng.next_u64() % n_words) as u32;
                Query::Similar {
                    word: data.vocab.word_of(id).to_owned(),
                }
            }
        })
        .collect()
}

/// Re-answers `query` by a brute-force scan over the unit-normalized
/// table and compares score-by-rank with the served hits.
fn knn_matches(
    index: &EmbeddingIndex,
    vocab: &Vocabulary,
    query: &Query,
    hits: &[gw2v_serve::Hit],
) -> Result<(), String> {
    let id = |w: &str| vocab.id_of(w).expect("queries are in vocabulary");
    let (q, exclude): (Vec<f32>, Vec<u32>) = match query {
        Query::Similar { word } => (index.vector(id(word)).to_vec(), vec![id(word)]),
        Query::Analogy { a, b, c } => {
            let (ia, ib, ic) = (id(a), id(b), id(c));
            let q = (0..index.dim())
                .map(|d| index.vector(ib)[d] - index.vector(ia)[d] + index.vector(ic)[d])
                .collect();
            (q, vec![ia, ib, ic])
        }
    };
    let brute = index.nearest(&q, SERVE_K, &exclude);
    if brute.len() != hits.len() {
        return Err(format!(
            "{query:?}: {} hits, brute force {}",
            hits.len(),
            brute.len()
        ));
    }
    for (rank, (hit, (bid, bscore))) in hits.iter().zip(&brute).enumerate() {
        if (hit.score() - *bscore as f64).abs() > KNN_TOLERANCE {
            return Err(format!(
                "{query:?} rank {rank}: served id {} score {:.6}, brute force id {bid} score {bscore:.6}",
                hit.id,
                hit.score()
            ));
        }
    }
    Ok(())
}

fn serve(
    data: &Prepared,
    model: &Word2VecModel,
    seed: u64,
    spans: &mut Spans,
    problems: &mut Vec<String>,
) -> ServeOut {
    let (store, _) = spans.time("serve.load", || {
        ShardedStore::from_matrix(&model.syn0, SERVE_SHARDS)
    });
    let (queries, _) = spans.time("bench.queries", || {
        make_queries(data, seed, SERVE_BATCH * SERVE_BATCHES_PER_REP)
    });
    let engine = QueryEngine::new(&store, &data.vocab);
    let mut out = ServeOut::default();
    let mut sample = Vec::new();
    let loop_span = spans.enter("serve.loop");
    for (b, batch) in queries.chunks(SERVE_BATCH).enumerate() {
        let answers = engine.answer_batch(batch, SERVE_K);
        out.batches += 1;
        out.queries += batch.len() as u64;
        for (j, answer) in answers.into_iter().enumerate() {
            match answer.hits {
                Ok(hits) if j == 0 && b % KNN_EVERY == 0 && sample.len() < KNN_CHECKS => {
                    sample.push((answer.query, hits));
                }
                Ok(_) => {}
                Err(e) => {
                    out.failed += 1;
                    problems.push(format!("in-vocabulary query failed: {e}"));
                }
            }
        }
    }
    out.loop_s = spans.exit(loop_span);
    let (bad, _) = spans.time("check.knn", || {
        let index = EmbeddingIndex::new(model);
        sample
            .iter()
            .filter_map(|(q, hits)| knn_matches(&index, &data.vocab, q, hits).err())
            .collect::<Vec<_>>()
    });
    problems.extend(bad);
    out
}

/// Runs one repetition of `wl` on inputs derived from `seed`; with
/// `replay`, `walks-threaded` also retrains on the simulator.
///
/// `cpus` are the cores the process may use: single-threaded phases move
/// round-robin over all of them (see [`crate::cores`]); the timed
/// trainers, which run two threads, and the caller get all of them at
/// once.
pub fn run_rep(wl: Workload, seed: u64, replay: bool, cpus: &[usize], spans: &mut Spans) -> RepOut {
    let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut problems = Vec::new();
    let (hosts, rounds) = wl.grid();

    let spread = cores::Spread::start(cpus);
    let setup_span = spans.enter("setup");
    let data = prepare(wl, seed, spans);
    let (chunks, _) = spans.time("check.chunks", || chunk_tokens(&data.corpus, hosts, rounds));
    let setup_s = spans.exit(setup_span);
    let empty = chunks.iter().filter(|&&t| t == 0).count();
    if empty > 0 {
        problems.push(format!(
            "{empty} of {} (host, round) chunks are empty",
            chunks.len()
        ));
    }
    let chunk_f: Vec<f64> = chunks.iter().map(|&t| t as f64).collect();
    let mean_chunk = chunk_f.iter().sum::<f64>() / chunk_f.len() as f64;
    layer.insert("corpus.empty_chunks", empty as f64);
    layer.insert("corpus.chunk_imbalance", max(&chunk_f) / mean_chunk);
    layer.insert("corpus.tokens", data.corpus.total_tokens() as f64);
    layer.insert("corpus.sentences", data.corpus.len() as f64);

    let p = wl.params(seed);
    let words = (data.corpus.total_tokens() * p.epochs) as f64;
    // The trainer spawns its threads from this one: they must not
    // inherit a single core.
    drop(spread);
    let (trained, train_s) = spans.time("core.train", || train(wl, &p, &data));
    let obs_train = obs_capture();
    let _spread = cores::Spread::start(cpus);
    let mut rep = RepOut {
        setup_s,
        train_s,
        epoch_s: Vec::new(),
        words,
        quality: 0.0,
        det: Vec::new(),
        serve: ServeOut::default(),
        attempted: 1,
        failed: 0,
        problems: Vec::new(),
        layer,
    };
    let trained = match trained {
        Ok(t) => t,
        Err(e) => {
            rep.failed = 1;
            rep.problems.push(e);
            rep.problems.append(&mut problems);
            return rep;
        }
    };

    // The threaded engine must agree bit for bit with the sequential
    // simulator on the same configuration; the replay also yields the
    // simulator's virtual time and the per-host figures only it emits.
    let replay = (replay && wl == Workload::WalksThreaded).then(|| {
        gw2v_obs::reset();
        let (sim, _) = spans.time("core.sim_replay", || replay_on_simulator(&p, &data));
        let (a, b) = (model_hash(&trained.model), model_hash(&sim.model));
        if a != b || trained.stats != sim.stats || trained.pairs != sim.pairs {
            problems.push(format!(
                "threaded engine and simulator disagree: model {a:016x} vs {b:016x}, pairs {} vs {}, comm {:?} vs {:?}",
                trained.pairs, sim.pairs, trained.stats, sim.stats
            ));
        }
        (sim, obs_capture())
    });

    let quality = match &data.task {
        Task::Analogy(set) => {
            let (report, _) = spans.time("eval.analogy", || {
                evaluate(&trained.model, &data.vocab, set)
            });
            rep.layer.insert("eval.skipped", report.skipped() as f64);
            report.total() / 100.0
        }
        Task::LinkPred { graph, positives } => {
            let (report, _) = spans.time("eval.linkpred", || {
                let negatives = sample_negative_edges(graph, positives.len() * 2, seed ^ 0x11e9);
                evaluate_link_prediction(
                    &trained.model,
                    &data.vocab,
                    positives,
                    &negatives,
                    LinkScore::Cosine,
                )
            });
            rep.layer.insert("eval.skipped", report.skipped as f64);
            if report.skipped > 0 {
                problems.push(format!("{} link-prediction pairs skipped", report.skipped));
            }
            report.auc
        }
    };
    if quality < wl.quality_floor() {
        problems.push(format!(
            "evaluation score {quality:.4} below floor {}",
            wl.quality_floor()
        ));
    }
    rep.quality = quality;

    if wl.deterministic() {
        let comm = trained.stats.reduce_bytes + trained.stats.broadcast_bytes;
        rep.det = vec![
            ("comm_bytes", comm.to_string()),
            ("core.pairs", trained.pairs.to_string()),
            ("quality", format!("{:016x}", quality.to_bits())),
            ("model_hash", format!("{:016x}", model_hash(&trained.model))),
        ];
    }

    rep.serve = serve(&data, &trained.model, seed, spans, &mut problems);
    rep.attempted += rep.serve.queries;
    rep.failed += rep.serve.failed;
    rep.problems = problems;

    rep.epoch_s = trained.epoch_s;
    let l = &mut rep.layer;
    l.insert("core.epoch_s_p50", median(&rep.epoch_s));
    l.insert("core.epoch_s_max", max(&rep.epoch_s));
    // Virtual time (Fig. 8: measured compute + modeled comm) is the
    // simulator's; 0 where no simulator ran.
    if let Some((sim, _)) = &replay {
        l.insert("core.virtual_s", sim.compute_s + sim.comm_virtual_s);
        l.insert("gluon.comm_virtual_s", sim.comm_virtual_s);
    }
    l.insert("gluon.rounds", trained.stats.rounds as f64);
    l.insert("gluon.reduce_bytes", trained.stats.reduce_bytes as f64);
    l.insert(
        "gluon.broadcast_bytes",
        trained.stats.broadcast_bytes as f64,
    );
    l.insert("eval.quality", quality);
    l.insert("serve.queries", rep.serve.queries as f64);
    l.insert("serve.failed", rep.serve.failed as f64);
    if let Some((snap, events)) = obs_train {
        program_layers(l, &snap, &events, hosts, train_s, trained.pairs);
        if let Some((_, Some((snap, events)))) = &replay {
            simulator_layers(l, snap, events);
        }
        let serve_snap = gw2v_obs::snapshot();
        let h = |name: &str, q: fn(&gw2v_obs::HistSummary) -> u64| {
            serve_snap.histograms.get(name).map_or(0.0, |s| q(s) as f64)
        };
        l.insert("serve.batch_ms_p50", h("serve.batch_ns", |s| s.p50) / 1e6);
        l.insert("serve.batch_ms_p99", h("serve.batch_ns", |s| s.p99) / 1e6);
        l.insert(
            "serve.shard_scan_ns_p50",
            h("serve.shard_scan_ns", |s| s.p50),
        );
        l.insert(
            "serve.shard_scan_ns_p99",
            h("serve.shard_scan_ns", |s| s.p99),
        );
    }
    rep
}

/// Trains `data` on the sequential simulator with the configuration the
/// threaded engine of `walks-threaded` used.
fn replay_on_simulator(p: &Hyperparams, data: &Prepared) -> Trained {
    DistributedTrainer::new(p.clone(), walks_config())
        .train(&data.corpus, &data.vocab)
        .into()
}

type ObsCapture = (MetricsSnapshot, Vec<gw2v_obs::TraceEvent>);

/// The `gw2v-obs` counters and the drained trace events, when the
/// instruments are switched on (traced repetitions only).
fn obs_capture() -> Option<ObsCapture> {
    gw2v_obs::enabled().then(|| (gw2v_obs::snapshot(), gw2v_obs::obs().trace.drain()))
}

fn counter(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.counters.get(name).copied().unwrap_or(0) as f64
}

fn hist(snap: &MetricsSnapshot, name: &str) -> gw2v_obs::HistSummary {
    snap.histograms.get(name).copied().unwrap_or_default()
}

/// Total wall time of the program's spans called `name`.
fn span_sum(events: &[gw2v_obs::TraceEvent], name: &str) -> f64 {
    events
        .iter()
        .filter(|e| e.name == name)
        .map(|e| e.wall_s)
        .sum()
}

/// Per-layer metrics only the sequential simulator emits, read from its
/// replay.
fn simulator_layers(
    l: &mut BTreeMap<&'static str, f64>,
    snap: &MetricsSnapshot,
    events: &[gw2v_obs::TraceEvent],
) {
    l.insert("core.negatives", counter(snap, "core.negatives"));
    let compute = hist(snap, "core.host_compute_ns");
    l.insert("core.host_compute_s_p50", compute.p50 as f64 / 1e9);
    l.insert("core.host_compute_s_p99", compute.p99 as f64 / 1e9);
    l.insert(
        "core.round_self_s",
        span_sum(events, "core.round") - span_sum(events, "gluon.sync"),
    );
}

/// Per-layer metrics read from the counters and spans the timed trainer
/// emits while `gw2v-obs` is switched on (traced repetitions only).
fn program_layers(
    l: &mut BTreeMap<&'static str, f64>,
    snap: &MetricsSnapshot,
    events: &[gw2v_obs::TraceEvent],
    hosts: usize,
    train_s: f64,
    pairs: u64,
) {
    let counter = |name: &str| counter(snap, name);
    let span_sum = |name: &str| span_sum(events, name);
    let hist = |name: &str| hist(snap, name);

    let hogbatch_pairs = counter("core.hogbatch.pairs");
    l.insert(
        "core.pairs",
        if pairs > 0 {
            pairs as f64
        } else {
            hogbatch_pairs
        },
    );
    l.insert("sgns.minibatches", counter("sgns.minibatches"));
    l.insert("sgns.shared_negatives", counter("sgns.shared_negatives"));

    // The threaded engine syncs on every host ("gluon.threaded.sync"), so
    // its total is divided by the host count to give per-host time.
    let sync_s = span_sum("gluon.threaded.sync") / hosts as f64;
    l.insert("gluon.sync_s", sync_s);
    l.insert(
        "gluon.sync_share",
        if train_s > 0.0 { sync_s / train_s } else { 0.0 },
    );
    let barrier = hist("gluon.barrier_wait_ns");
    l.insert(
        "gluon.barrier_wait_s",
        barrier.sum as f64 / 1e9 / hosts as f64,
    );
    l.insert("gluon.barrier_wait_p99_ms", barrier.p99 as f64 / 1e6);
    l.insert(
        "gluon.msgs",
        counter("gluon.reduce_msgs")
            + counter("gluon.broadcast_msgs")
            + counter("gluon.threaded.msgs"),
    );
}
