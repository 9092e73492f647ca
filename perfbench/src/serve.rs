//! The `serve_mixed` workload: an in-process `kdom::serve::Server` on a
//! Unix socket, driven by two closed-loop connections of this process.
//!
//! * The *interactive* connection sends `SUBMIT` then `WAIT` for one
//!   `SimpleMst`, `FastDomG` or `Bfs` job at a time on installed graphs
//!   of 2 500–5 000 nodes. Four submissions in twelve repeat an earlier
//!   spec, so the cache serves hits; two of the four name a job of the
//!   batch connection's latest sweep, which may still be queued, and the
//!   pool then runs it a second time.
//! * The *batch* connection sends rounds of one `SWEEP` of sync jobs
//!   plus one `ReliableAlpha` job with link drops on a 256-node graph,
//!   then waits for all of them. Every few rounds it `UPLOAD`s a fresh
//!   graph, which writes to the registry and guarantees cache misses.
//!
//! Each client certifies a result the first time its cache key comes
//! back: SimpleMST parent ports by `check_mst_fragments`, FastDOM_G
//! centers by `check_k_dominating` at the resolved `k`, BFS parents as
//! one tree rooted at node 0, ReliableAlpha outputs against the sync run
//! of the same spec. Every later result of the key must carry the same
//! report and the same outputs (compared by a 64-bit FNV-1a hash).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use kdom::congest::transport::Endpoint;
use kdom::congest::{
    Algo, CacheKey, ExecSpec, FaultPlan, JobPool, RunReport, RunSpec, Runner, SweepSpec,
};
use kdom::core::verify::{check_k_dominating, check_mst_fragments};
use kdom::graph::generators::{gnm_connected, GenConfig};
use kdom::graph::{Graph, NodeId};
use kdom::mst::service;
use kdom::serve::{parse_graph_spec, Client, ServeStats, Server, WaitReply};
use kdom_rng::StdRng;

use crate::report::{Ledger, Metrics, Outcome, END_TO_END, PER_LAYER};
use crate::spans::Tracer;
use crate::stats::{median, median_or_zero, peak_rss_bytes, quantile, secs};
use crate::SETUP_BATCH;

/// Pool workers: one per CPU of the 2-CPU reference host.
const WORKERS: usize = 2;
/// Result-cache budget handed to `JobPool::new`.
const CACHE_BYTES: usize = 64 << 20;
/// Graphs the interactive connection submits against, installed with
/// `GRAPH` (the seed is filled in per run).
const INTERACTIVE_GRAPHS: [(&str, usize); 4] = [
    ("grid", 2500),
    ("gnp", 3000),
    ("rtree", 4000),
    ("caterpillar", 5000),
];
/// Nodes and edges of the `gnm_connected` graphs the batch connection
/// uploads.
const BATCH_GRAPH: (usize, usize) = (3000, 6000);
/// The batch connection uploads a fresh graph every this many rounds.
const UPLOAD_EVERY: u64 = 3;
/// Run seeds per algorithm in one batch `SWEEP`.
const SWEEP_SEEDS: u64 = 2;
/// Nodes of the graph ReliableAlpha jobs run on.
const ALPHA_NODES: usize = 256;
/// SimpleMST's `k` in ReliableAlpha jobs (about 0.4 s per job).
const ALPHA_K: u64 = 4;
/// Link-drop probability of ReliableAlpha jobs.
const ALPHA_DROP: f64 = 0.05;
const ALGOS: [Algo; 3] = [Algo::SimpleMst, Algo::FastDomG, Algo::Bfs];

/// The interactive connection's next spec, by position in a repeating
/// pattern: fresh specs name their algorithm; repeats name an earlier
/// interactive spec, or a spec of the batch connection's latest sweep.
#[derive(Clone, Copy)]
enum Slot {
    Fresh(Algo),
    RepeatOwn,
    RepeatBatch,
}

/// Four repeats in twelve submissions. Two repeats name a batch job,
/// which may still be queued and then runs again rather than hitting.
/// BFS, the one job that takes single milliseconds, fills one fresh
/// slot of eight. Hits and BFS so make up well under half the
/// submissions, and the latency median falls among the
/// tens-of-milliseconds misses rather than at the foot of the gap
/// between them and the sub-millisecond hits.
const PATTERN: [Slot; 12] = [
    Slot::Fresh(Algo::SimpleMst),
    Slot::Fresh(Algo::FastDomG),
    Slot::RepeatOwn,
    Slot::Fresh(Algo::Bfs),
    Slot::Fresh(Algo::FastDomG),
    Slot::RepeatBatch,
    Slot::Fresh(Algo::SimpleMst),
    Slot::Fresh(Algo::FastDomG),
    Slot::RepeatOwn,
    Slot::Fresh(Algo::SimpleMst),
    Slot::Fresh(Algo::FastDomG),
    Slot::RepeatBatch,
];

/// One engine run, recorded by the runner wrapper in a pool worker.
struct RunRecord {
    key: CacheKey,
    algo: Algo,
    alpha: bool,
    dur: Duration,
    report: RunReport,
}

/// Which connection submitted a job.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Conn {
    Interactive,
    Batch,
}

/// One finished (or failed) job as its client saw it.
struct JobRecord {
    conn: Conn,
    key: CacheKey,
    repeat: bool,
    latency: Duration,
    end: Instant,
    result: Result<JobResult, String>,
}

struct JobResult {
    from_cache: bool,
    report: RunReport,
    /// Failed checks: certification, or a mismatch with the key's first
    /// result.
    problems: Vec<String>,
    /// Wall time and verdict of the certification, when this result was
    /// the key's first.
    certificate: Option<(Duration, bool)>,
}

/// Graphs known to both the server and this process, by index.
#[derive(Default)]
struct Registry {
    graphs: Vec<Arc<Graph>>,
    fingerprints: Vec<u64>,
}

/// Graph fingerprint, algorithm and `k` of a sync reference run.
type SyncRefKey = (u64, Algo, u64);

/// State the two client threads share.
#[derive(Default)]
struct Shared {
    registry: Mutex<Registry>,
    /// The sync specs of the batch connection's latest sweep, by graph
    /// index: candidates for interactive repeats.
    latest_sweep: Mutex<Vec<(usize, RunSpec)>>,
    /// The first report and outputs hash returned for each cache key.
    first: Mutex<HashMap<CacheKey, (RunReport, u64)>>,
    /// Sync reference outputs for ReliableAlpha jobs.
    sync_ref: Mutex<HashMap<SyncRefKey, Arc<Vec<u64>>>>,
    uploads: Mutex<Vec<f64>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("benchmark state lock poisoned by a panic")
}

fn base_spec(algo: Algo, seed: u64) -> RunSpec {
    RunSpec::default()
        .with_algo(algo)
        .with_k(0)
        .with_seed(seed)
        .with_threads(1)
        .with_wire_exact(true)
}

fn alpha_spec(seed: u64) -> RunSpec {
    base_spec(Algo::SimpleMst, seed)
        .with_k(ALPHA_K)
        .with_exec(ExecSpec::ReliableAlpha { max_delay: 4 })
        .with_faults(FaultPlan::new(seed).drop_prob(ALPHA_DROP))
}

fn fnv(words: &[u64]) -> u64 {
    words.iter().fold(0xcbf2_9ce4_8422_2325, |h, &w| {
        (h ^ w).wrapping_mul(0x100_0000_01b3)
    })
}

/// The pool's runner: `kdom_mst::service::run`, timed per call.
fn recording_runner(records: Arc<Mutex<Vec<RunRecord>>>, tracer: Arc<Tracer>) -> Runner {
    Arc::new(move |g: &Graph, spec: &RunSpec| {
        let start = Instant::now();
        let out = service::run(g, spec);
        let end = Instant::now();
        let key = CacheKey::of(g, spec);
        tracer.record("service.run", start, end, None, key.spec);
        if let Ok(o) = &out {
            lock(&records).push(RunRecord {
                key,
                algo: spec.algo,
                alpha: matches!(spec.exec, ExecSpec::ReliableAlpha { .. }),
                dur: end - start,
                report: o.report.clone(),
            });
        }
        out
    })
}

/// A bound server, its accept thread, and the two connections.
struct Session {
    interactive: Client,
    batch: Client,
    server: std::thread::JoinHandle<std::io::Result<()>>,
    socket: PathBuf,
}

impl Session {
    /// Sends `SHUTDOWN`, joins the server thread and removes the socket.
    fn close(mut self) -> Result<(), String> {
        let bye = self
            .interactive
            .shutdown()
            .map_err(|e| format!("SHUTDOWN: {e}"));
        drop(self.interactive);
        drop(self.batch);
        let joined = match self.server.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        };
        let _ = std::fs::remove_file(&self.socket);
        bye.and(joined)
    }
}

/// The `GRAPH` specs one set-up installs: the interactive graphs, then
/// the ReliableAlpha graph.
fn graph_specs(seed: u64) -> Vec<String> {
    let mut specs: Vec<String> = INTERACTIVE_GRAPHS
        .iter()
        .enumerate()
        .map(|(i, (fam, n))| format!("{fam}:{n}:{}", seed.wrapping_mul(31).wrapping_add(i as u64)))
        .collect();
    specs.push(format!("gnp:{ALPHA_NODES}:{}", seed.wrapping_add(977)));
    specs
}

/// The batch connection's `epoch`-th uploaded graph.
fn batch_graph(seed: u64, epoch: u64) -> Graph {
    let (n, m) = BATCH_GRAPH;
    let graph_seed = seed ^ (epoch.wrapping_mul(0x9E37_79B9) + 1);
    gnm_connected(&GenConfig::with_seed(n, graph_seed), m)
}

/// One set-up: bind, pool start, both connections, every graph
/// generated here, installed (`GRAPH` or `UPLOAD`) and its fingerprint
/// matched. Returns the session, the registry and the generation time.
fn set_up(
    seed: u64,
    index: usize,
    out_dir: &Path,
    runner: Runner,
    tracer: &Tracer,
    ledger: &mut Ledger,
    uploads: &mut Vec<f64>,
) -> Result<(Session, Registry, Duration), String> {
    let span = tracer.open("setup", None, index as u64);
    let socket = out_dir.join(format!("serve-{}-{index}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let pool = JobPool::new(WORKERS, CACHE_BYTES, runner);
    let server = Server::bind(&Endpoint::Unix(socket.clone()), pool)
        .map_err(|e| format!("bind {}: {e}", socket.display()))?;
    let ep = server
        .local_endpoint()
        .map_err(|e| format!("local endpoint: {e}"))?;
    let server = std::thread::Builder::new()
        .name("perfbench-server".into())
        .spawn(move || server.run())
        .map_err(|e| format!("spawn server: {e}"))?;
    let connect = || Client::connect(&ep).map_err(|e| format!("connect: {e}"));
    let mut session = Session {
        interactive: connect()?,
        batch: connect()?,
        server,
        socket,
    };

    let mut registry = Registry::default();
    let mut gen = Duration::ZERO;
    let mut add = |registry: &mut Registry, g: Graph, reply: std::io::Result<_>, what: &str| {
        let fp = g.fingerprint();
        let ok =
            matches!(&reply, Ok(kdom::serve::GraphInfo { fingerprint, .. }) if *fingerprint == fp);
        ledger.check(ok, || {
            format!("{what}: {reply:?}, local fingerprint {fp:016x}")
        });
        registry.fingerprints.push(fp);
        registry.graphs.push(Arc::new(g));
    };
    for spec in graph_specs(seed) {
        let (g, d) = tracer.time("generators", span, 0, || parse_graph_spec(&spec));
        gen += d;
        let g = g.map_err(|e| format!("graph spec {spec}: {e}"))?;
        let (reply, _) = tracer.time("serve.graph", span, 0, || {
            session.interactive.graph_spec(&spec)
        });
        add(&mut registry, g, reply, &format!("GRAPH {spec}"));
    }
    let (g, d) = tracer.time("generators", span, 0, || batch_graph(seed, 0));
    gen += d;
    let (reply, d) = tracer.time("serve.upload", span, 0, || session.batch.upload(&g));
    uploads.push(secs(d) * 1e3);
    add(&mut registry, g, reply, "UPLOAD");
    tracer.close(span);
    Ok((session, registry, gen))
}

/// Set-up times of one run, in seconds: whole set-ups, and graph
/// generation within them. `UPLOAD` round trips, in milliseconds.
#[derive(Default)]
struct SetupTimes {
    total: Vec<f64>,
    gen: Vec<f64>,
    uploads: Vec<f64>,
}

/// Times [`SETUP_BATCH`] set-ups and closes each session, except the
/// last when `keep` is set, which it returns. A failed set-up is counted
/// and ends the batch with `None`.
fn setup_batch(
    seed: u64,
    out_dir: &Path,
    records: &Arc<Mutex<Vec<RunRecord>>>,
    tracer: &Arc<Tracer>,
    keep: bool,
    ledger: &mut Ledger,
    times: &mut SetupTimes,
) -> Option<(Session, Registry)> {
    for b in 0..SETUP_BATCH {
        let i = times.total.len();
        let runner = recording_runner(Arc::clone(records), Arc::clone(tracer));
        let t = Instant::now();
        let (session, registry, gen) =
            match set_up(seed, i, out_dir, runner, tracer, ledger, &mut times.uploads) {
                Ok(r) => r,
                Err(e) => {
                    ledger.op(vec![format!("set-up {i}: {e}")]);
                    return None;
                }
            };
        times.total.push(secs(t.elapsed()));
        times.gen.push(secs(gen));
        if keep && b + 1 == SETUP_BATCH {
            return Some((session, registry));
        }
        let closed = session.close();
        ledger.check(closed.is_ok(), || format!("set-up {i}: {closed:?}"));
    }
    None
}

/// Checks one job's harvested outputs against the sequential oracle.
fn certify(shared: &Shared, g: &Graph, spec: &RunSpec, outputs: &[u64]) -> Result<(), String> {
    if outputs.len() != g.node_count() {
        return Err(format!(
            "{} outputs for {} nodes",
            outputs.len(),
            g.node_count()
        ));
    }
    if let ExecSpec::ReliableAlpha { .. } = spec.exec {
        let sync = base_spec(spec.algo, spec.seed).with_k(spec.k);
        let key = (g.fingerprint(), spec.algo, spec.k);
        let cached = lock(&shared.sync_ref).get(&key).cloned();
        let reference = match cached {
            Some(r) => r,
            None => {
                let r = Arc::new(
                    service::run(g, &sync)
                        .map_err(|e| format!("sync reference run: {e}"))?
                        .outputs,
                );
                lock(&shared.sync_ref).insert(key, Arc::clone(&r));
                r
            }
        };
        return if reference.as_slice() == outputs {
            Ok(())
        } else {
            Err("ReliableAlpha outputs differ from the sync run of the same spec".into())
        };
    }
    // SimpleMst and Bfs harvest the parent port + 1 per node, 0 at a root
    let parent_arc = |v: usize| match outputs[v] {
        0 => Ok(None),
        p => g
            .neighbors(NodeId(v))
            .get(p as usize - 1)
            .copied()
            .map(Some)
            .ok_or_else(|| format!("node {v}: parent port {} out of range", p - 1)),
    };
    match spec.algo {
        Algo::SimpleMst => {
            let mut edges = Vec::new();
            for v in 0..g.node_count() {
                if let Some(arc) = parent_arc(v)? {
                    edges.push(arc.edge);
                }
            }
            check_mst_fragments(g, &edges).map_err(|e| format!("check_mst_fragments: {e:?}"))
        }
        Algo::FastDomG => {
            let mut centers = Vec::new();
            for (v, &id) in outputs.iter().enumerate() {
                let c = g
                    .node_with_id(id)
                    .ok_or_else(|| format!("node {v}: unknown center id {id}"))?;
                centers.push(c);
            }
            centers.sort_unstable();
            centers.dedup();
            let k = service::resolve_k(spec, g);
            check_k_dominating(g, &centers, k)
                .map_err(|e| format!("check_k_dominating(k={k}): {e:?}"))
        }
        Algo::Bfs => {
            // one tree rooted at node 0: node 0 alone has no parent and
            // every parent chain reaches it without a cycle
            if parent_arc(0)?.is_some() {
                return Err("node 0 has a BFS parent".into());
            }
            let n = g.node_count();
            let mut reaches = vec![false; n];
            reaches[0] = true;
            for start in 1..n {
                let mut chain = Vec::new();
                let mut v = start;
                while !reaches[v] {
                    if chain.len() > n {
                        return Err(format!("the parent chain from node {start} cycles"));
                    }
                    chain.push(v);
                    v = parent_arc(v)?
                        .ok_or_else(|| format!("node {v} is a second root"))?
                        .to
                        .0;
                }
                for c in chain {
                    reaches[c] = true;
                }
            }
            Ok(())
        }
    }
}

/// Turns a `WAIT` reply into a result. The first result of a key is
/// certified; every later one must match it.
fn finish(
    shared: &Shared,
    g: &Graph,
    spec: &RunSpec,
    key: CacheKey,
    reply: std::io::Result<WaitReply>,
    tracer: &Tracer,
) -> Result<JobResult, String> {
    let r = reply.map_err(|e| format!("WAIT: {e}"))?;
    let hash = fnv(&r.outputs);
    let mut problems = Vec::new();
    let mut certificate = None;
    if !lock(&shared.first).contains_key(&key) {
        let (verdict, d) = tracer.time("oracle", None, key.spec, || {
            certify(shared, g, spec, &r.outputs)
        });
        certificate = Some((d, verdict.is_ok()));
        if let Err(e) = verdict {
            let n = g.node_count();
            problems.push(format!("{} on a {n}-node graph: {e}", spec.algo));
        }
    }
    // the other connection may have stored this key while we certified
    let mut first = lock(&shared.first);
    let (report, h) = first.entry(key).or_insert_with(|| (r.report.clone(), hash));
    if *report != r.report || *h != hash {
        problems.push(format!(
            "{} result differs from the first result of its key",
            spec.algo
        ));
    }
    drop(first);
    Ok(JobResult {
        from_cache: r.from_cache,
        report: r.report,
        problems,
        certificate,
    })
}

fn graph_of(shared: &Shared, index: usize) -> (Arc<Graph>, u64) {
    let reg = lock(&shared.registry);
    (Arc::clone(&reg.graphs[index]), reg.fingerprints[index])
}

/// The interactive closed loop: one `SUBMIT` + `WAIT` at a time.
fn interactive_loop(
    client: &mut Client,
    shared: &Shared,
    seed: u64,
    deadline: Instant,
    tracer: &Tracer,
    workload: Option<usize>,
) -> Vec<JobRecord> {
    let mut rng = StdRng::seed_from_u64(seed).fork(1);
    let mut records = Vec::new();
    let mut own: Vec<(usize, RunSpec)> = Vec::new();
    let mut per_algo = [0usize; 3];
    for slot in PATTERN.iter().cycle() {
        if Instant::now() >= deadline {
            break;
        }
        let pick = rng.next_u64();
        let latest = lock(&shared.latest_sweep).clone();
        let (graph, spec, repeat) = match slot {
            Slot::Fresh(algo) => {
                // each algorithm visits the interactive graphs in turn
                let a = ALGOS
                    .iter()
                    .position(|x| x == algo)
                    .expect("known algorithm");
                let graph = per_algo[a] % INTERACTIVE_GRAPHS.len();
                per_algo[a] += 1;
                let spec = base_spec(*algo, 1_000_000 + own.len() as u64);
                own.push((graph, spec.clone()));
                (graph, spec, false)
            }
            Slot::RepeatBatch if !latest.is_empty() => {
                let (g, s) = latest[(pick % latest.len() as u64) as usize].clone();
                (g, s, true)
            }
            Slot::RepeatOwn | Slot::RepeatBatch => {
                let (g, s) = own[(pick % own.len() as u64) as usize].clone();
                (g, s, true)
            }
        };
        let (g, fp) = graph_of(shared, graph);
        let key = CacheKey::of(&g, &spec);
        let start = Instant::now();
        let reply = client
            .submit(fp, &spec)
            .map_err(|e| std::io::Error::other(format!("SUBMIT: {e}")))
            .and_then(|id| client.wait(id));
        let end = Instant::now();
        tracer.record("interactive", start, end, workload, key.spec);
        let result = finish(shared, &g, &spec, key, reply, tracer);
        let failed = result.is_err();
        records.push(JobRecord {
            conn: Conn::Interactive,
            key,
            repeat,
            latency: end - start,
            end,
            result,
        });
        if failed {
            break; // the connection's state is unknown after a failure
        }
    }
    records
}

/// The batch closed loop: uploads, sweeps and ReliableAlpha jobs.
fn batch_loop(
    client: &mut Client,
    shared: &Shared,
    seed: u64,
    deadline: Instant,
    tracer: &Tracer,
    workload: Option<usize>,
    alpha_graph: usize,
) -> Vec<JobRecord> {
    let mut records = Vec::new();
    let mut graph = lock(&shared.registry).graphs.len() - 1; // the set-up's upload
    let failed = |records: &mut Vec<JobRecord>, start: Instant, what: String| {
        records.push(JobRecord {
            conn: Conn::Batch,
            key: CacheKey { graph: 0, spec: 0 },
            repeat: false,
            latency: start.elapsed(),
            end: Instant::now(),
            result: Err(what),
        });
    };
    let mut round = 0u64;
    'rounds: while Instant::now() < deadline {
        let span = tracer.open("batch", workload, round);
        if round > 0 && round.is_multiple_of(UPLOAD_EVERY) {
            let g = batch_graph(seed, round / UPLOAD_EVERY);
            let fp = g.fingerprint();
            let start = Instant::now();
            let (reply, d) = tracer.time("serve.upload", span, round, || client.upload(&g));
            lock(&shared.uploads).push(secs(d) * 1e3);
            match reply {
                Ok(info) if info.fingerprint == fp => {
                    let mut reg = lock(&shared.registry);
                    reg.graphs.push(Arc::new(g));
                    reg.fingerprints.push(fp);
                    graph = reg.graphs.len() - 1;
                }
                other => {
                    let what = format!("UPLOAD: {other:?}, local fingerprint {fp:016x}");
                    failed(&mut records, start, what);
                    break 'rounds;
                }
            }
        }
        let first_seed = 2_000_000 + round * SWEEP_SEEDS;
        let seeds: Vec<u64> = (first_seed..first_seed + SWEEP_SEEDS).collect();
        let sweep = SweepSpec::new(base_spec(Algo::SimpleMst, first_seed))
            .over_algos(&ALGOS)
            .over_seeds(&seeds);
        let alpha = alpha_spec(3_000_000 + round);
        let mut jobs: Vec<(usize, RunSpec)> =
            sweep.specs().into_iter().map(|s| (graph, s)).collect();
        *lock(&shared.latest_sweep) = jobs.clone();
        jobs.push((alpha_graph, alpha.clone()));
        let (_, fp) = graph_of(shared, graph);
        let (_, afp) = graph_of(shared, alpha_graph);
        let start = Instant::now();
        let ids = client.sweep(fp, &sweep).and_then(|mut ids| {
            ids.push(client.submit(afp, &alpha)?);
            Ok(ids)
        });
        let ids = match ids {
            Ok(ids) if ids.len() == jobs.len() => ids,
            other => {
                let what = format!(
                    "SWEEP/SUBMIT: {:?} for {} jobs",
                    other.map(|i| i.len()),
                    jobs.len()
                );
                failed(&mut records, start, what);
                break 'rounds;
            }
        };
        for (id, (gi, spec)) in ids.into_iter().zip(jobs) {
            let (g, _) = graph_of(shared, gi);
            let key = CacheKey::of(&g, &spec);
            let reply = client.wait(id);
            let end = Instant::now();
            let result = finish(shared, &g, &spec, key, reply, tracer);
            let stop = result.is_err();
            records.push(JobRecord {
                conn: Conn::Batch,
                key,
                repeat: false,
                latency: end - start,
                end,
                result,
            });
            if stop {
                break 'rounds;
            }
        }
        tracer.close(span);
        round += 1;
    }
    records
}

/// Runs `serve_mixed` for `seconds` of closed-loop traffic.
pub fn run(seed: u64, seconds: f64, tracer: &Arc<Tracer>, out_dir: &Path) -> Outcome {
    let mut ledger = Ledger::default();
    let records: Arc<Mutex<Vec<RunRecord>>> = Arc::default();

    // Set-up, timed in two batches, one before the traffic and one after
    // it, so the median `setup_s` samples the host over the whole run.
    // The last set-up of the first batch carries the traffic.
    let mut times = SetupTimes::default();
    let timed_setups = |keep, ledger: &mut Ledger, times: &mut SetupTimes| {
        setup_batch(seed, out_dir, &records, tracer, keep, ledger, times)
    };
    let Some((mut session, registry)) = timed_setups(true, &mut ledger, &mut times) else {
        return Outcome::failed(ledger);
    };
    let graph_bytes: u64 = registry.graphs.iter().map(|g| g.memory_bytes()).sum();
    println!(
        "set-up: {} graphs ({graph_bytes} bytes)",
        registry.graphs.len()
    );
    let alpha_graph = INTERACTIVE_GRAPHS.len();
    let shared = Shared {
        registry: Mutex::new(registry),
        ..Shared::default()
    };

    // The measured window: both connections in closed loops.
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let workload = tracer.open("workload", None, seed);
    let (interactive, batch) = (&mut session.interactive, &mut session.batch);
    let (shared_ref, tracer_ref) = (&shared, &**tracer);
    let (irecs, brecs) = std::thread::scope(|s| {
        let i = s.spawn(move || {
            interactive_loop(
                interactive,
                shared_ref,
                seed,
                deadline,
                tracer_ref,
                workload,
            )
        });
        let b = s.spawn(move || {
            batch_loop(
                batch,
                shared_ref,
                seed,
                deadline,
                tracer_ref,
                workload,
                alpha_graph,
            )
        });
        (
            i.join().expect("interactive client thread panicked"),
            b.join().expect("batch client thread panicked"),
        )
    });
    tracer.close(workload);
    let stats: Result<ServeStats, String> = session
        .interactive
        .stats()
        .map_err(|e| format!("STATS: {e}"));
    ledger.check(stats.is_ok(), || format!("{stats:?}"));
    let stats = stats.unwrap_or_default();
    let closed = session.close();
    ledger.check(closed.is_ok(), || format!("{closed:?}"));
    timed_setups(false, &mut ledger, &mut times);
    let setup_s = median(&times.total);
    println!(
        "set-up: median {setup_s:.4} s of {} in {:?}",
        times.total.len(),
        times
            .total
            .iter()
            .map(|t| (t * 1e4).round() / 10.0)
            .collect::<Vec<_>>()
    );
    let jobs: Vec<JobRecord> = irecs.into_iter().chain(brecs).collect();
    let window = jobs.iter().map(|j| j.end).max().unwrap_or(start) - start;

    // One operation per job: its reply, certificate and identity check.
    let mut oracle_s = 0.0;
    let mut oracle_checks = 0u64;
    let mut oracle_failed = 0u64;
    for j in &jobs {
        match &j.result {
            Err(e) => ledger.op(vec![e.clone()]),
            Ok(r) => {
                if let Some((d, passed)) = r.certificate {
                    oracle_s += secs(d);
                    oracle_checks += 1;
                    oracle_failed += u64::from(!passed);
                }
                ledger.op(r.problems.clone());
            }
        }
    }

    let ok = |c: Conn| {
        jobs.iter()
            .filter(move |j| j.conn == c)
            .filter_map(|j| j.result.as_ref().ok().map(|r| (j, r)))
    };
    let latencies: Vec<f64> = ok(Conn::Interactive)
        .map(|(j, _)| secs(j.latency) * 1e3)
        .collect();
    let hit_ms: Vec<f64> = ok(Conn::Interactive)
        .filter(|(_, r)| r.from_cache)
        .map(|(j, _)| secs(j.latency) * 1e3)
        .collect();
    let replies: Vec<&RunReport> = ok(Conn::Interactive).map(|(_, r)| &r.report).collect();
    let repeats = ok(Conn::Interactive).filter(|(j, _)| j.repeat).count();
    let inflight = ok(Conn::Interactive)
        .filter(|(j, r)| j.repeat && !r.from_cache)
        .count();
    let batch_jobs = ok(Conn::Batch).count();
    let completed = latencies.len() + batch_jobs;

    let runs = std::mem::take(&mut *lock(&records));
    let run_ms = |f: &dyn Fn(&RunRecord) -> bool| -> Vec<f64> {
        runs.iter()
            .filter(|r| f(r))
            .map(|r| secs(r.dur) * 1e3)
            .collect()
    };
    let mut run_by_key: HashMap<CacheKey, Vec<f64>> = HashMap::new();
    for r in &runs {
        run_by_key.entry(r.key).or_default().push(secs(r.dur) * 1e3);
    }
    let queue_wait: Vec<f64> = ok(Conn::Interactive)
        .filter(|(_, r)| !r.from_cache)
        .filter_map(|(j, _)| {
            let durs = run_by_key.get(&j.key)?;
            let run = durs.iter().sum::<f64>() / durs.len() as f64;
            Some((secs(j.latency) * 1e3 - run).max(0.0))
        })
        .collect();
    let alpha: Vec<&RunRecord> = runs.iter().filter(|r| r.alpha).collect();
    let alpha_msgs: u64 = alpha.iter().map(|r| r.report.messages).sum();
    let alpha_retx: u64 = alpha.iter().map(|r| r.report.retransmissions).sum();
    let accounted_peak = runs
        .iter()
        .map(|r| r.report.peak_memory_bytes)
        .max()
        .unwrap_or(0);
    let rss = peak_rss_bytes();
    let mut uploads = times.uploads;
    uploads.extend(shared.uploads.into_inner().expect("uploads lock"));

    println!(
        "traffic: {completed} jobs in {:.2} s; interactive {} (repeats {repeats} = {:.3} of them, \
         {inflight} of the repeats still queued and run again = {:.3}, cache hits {}), \
         batch {batch_jobs}, uploads {}",
        secs(window),
        latencies.len(),
        repeats as f64 / latencies.len().max(1) as f64,
        inflight as f64 / repeats.max(1) as f64,
        hit_ms.len(),
        uploads.len()
    );
    println!(
        "pool: {} engine runs ({} distinct keys), hits {} misses {} evictions {} cache bytes {}; \
         certified {oracle_checks} distinct results in {oracle_s:.3} s",
        runs.len(),
        run_by_key.len(),
        stats.pool.cache.hits,
        stats.pool.cache.misses,
        stats.pool.cache.evictions,
        stats.pool.cache.bytes
    );

    if !latencies.is_empty() {
        let deciles: Vec<String> = (1..=9)
            .map(|d| format!("{:.1}", quantile(&latencies, f64::from(d) / 10.0)))
            .collect();
        println!(
            "interactive latency deciles (ms, {} samples): {}",
            latencies.len(),
            deciles.join(" ")
        );
    }
    if latencies.is_empty() || runs.is_empty() {
        ledger.op(vec!["no interactive job or engine run completed".into()]);
        return Outcome::failed(ledger);
    }
    let nruns = runs.len() as f64;
    let nreplies = replies.len() as f64;
    let mut e2e = Metrics::new(END_TO_END);
    e2e.put("setup_s", setup_s);
    e2e.put(
        "solve_s",
        runs.iter().map(|r| secs(r.dur)).sum::<f64>() / nruns,
    );
    e2e.put(
        "rounds",
        replies.iter().map(|r| r.rounds as f64).sum::<f64>() / nreplies,
    );
    e2e.put(
        "bits",
        replies.iter().map(|r| r.total_bits as f64).sum::<f64>() / nreplies,
    );
    e2e.put(
        "max_msg_bits",
        replies
            .iter()
            .map(|r| r.max_message_bits)
            .max()
            .unwrap_or(0) as f64,
    );
    e2e.put("jobs_per_s", completed as f64 / secs(window));
    e2e.put("job_p50_ms", median(&latencies));
    e2e.put("job_p90_ms", quantile(&latencies, 0.9));
    e2e.put("peak_rss_bytes", rss as f64);

    let lookups = (stats.pool.cache.hits + stats.pool.cache.misses).max(1) as f64;
    let mut layers = Metrics::new(PER_LAYER);
    layers.put("generators.s", median(&times.gen));
    layers.put("generators.graph_bytes", graph_bytes as f64);
    layers.put("engine.accounted_peak_bytes", accounted_peak as f64);
    layers.put(
        "engine.accounted_over_rss",
        accounted_peak as f64 / rss as f64,
    );
    layers.put("oracle.s", oracle_s);
    layers.put("oracle.checks", oracle_checks as f64);
    layers.put("oracle.failed", oracle_failed as f64);
    for (name, algo) in [
        ("service.run_ms_p50.simple-mst", Algo::SimpleMst),
        ("service.run_ms_p50.fastdom-g", Algo::FastDomG),
        ("service.run_ms_p50.bfs", Algo::Bfs),
    ] {
        layers.put(
            name,
            median_or_zero(&run_ms(&|r| !r.alpha && r.algo == algo)),
        );
    }
    layers.put(
        "service.alpha_ms_p50",
        median_or_zero(&run_ms(&|r| r.alpha)),
    );
    layers.put(
        "service.retx_per_msg",
        alpha_retx as f64 / alpha_msgs.max(1) as f64,
    );
    layers.put(
        "jobs.cache_hit_ratio",
        stats.pool.cache.hits as f64 / lookups,
    );
    layers.put("jobs.useful_run_ratio", run_by_key.len() as f64 / nruns);
    layers.put("jobs.queue_wait_ms_p50", median_or_zero(&queue_wait));
    layers.put("jobs.evictions", stats.pool.cache.evictions as f64);
    layers.put("jobs.cache_bytes", stats.pool.cache.bytes as f64);
    layers.put("serve.hit_ms_p50", median_or_zero(&hit_ms));
    layers.put("serve.upload_ms_p50", median_or_zero(&uploads));
    if tracer.enabled() {
        layers.put("trace.overhead_s", tracer.overhead_s());
    }
    Outcome {
        e2e,
        layers,
        ledger,
    }
}
