//! The DisTA benchmark: closed-loop workloads driven by one thread from
//! a seed, measuring boundary crossings and a standing cross-system
//! pipeline end to end, plus a separate traced run that times each
//! layer's public functions from outside the program.
//!
//! See `README.md` next to this crate for the workloads, the metrics
//! and what each per-layer metric is predicted to move.

pub mod crossing;
pub mod pipeline;
pub mod stats;

use std::collections::HashMap;
use std::time::Instant;

use dista_core::simnet::{FaultConfig, SimNet};
use dista_core::taint::{LocalId, TagValue, Taint, TaintStore};
use dista_core::Cluster;

use stats::{percentile, Metric};

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// 4 KiB untainted request in 64 writes of 64 B, 4 KiB reply, v2.
    CrossingCleanV2,
    /// 16 KiB echo striped over 8 warm taints, v1.
    CrossingWarmV1,
    /// 1 KiB echo striped over 4 freshly minted taints, v2.
    CrossingFreshV2,
    /// One record through RocketMQ into HBase and back out, v2, obs on.
    PipelineIngest,
}

impl WorkloadKind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::CrossingCleanV2,
        WorkloadKind::CrossingWarmV1,
        WorkloadKind::CrossingFreshV2,
        WorkloadKind::PipelineIngest,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::CrossingCleanV2 => "crossing_clean_v2",
            WorkloadKind::CrossingWarmV1 => "crossing_warm_v1",
            WorkloadKind::CrossingFreshV2 => "crossing_fresh_v2",
            WorkloadKind::PipelineIngest => "pipeline_ingest",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed ops per requested second. The op count is fixed by
    /// `--seconds` alone, never by how fast the host runs, so counts and
    /// memory repeat exactly. At `--seconds 10` a run takes 5–12 s on a
    /// 2-core x86-64 host; `crossing_fresh_v2` runs fewer ops because
    /// its state grows by about 4 KiB with every op.
    pub fn ops_per_second(self) -> u64 {
        match self {
            WorkloadKind::CrossingCleanV2 => 60_000,
            WorkloadKind::CrossingWarmV1 => 16_000,
            WorkloadKind::CrossingFreshV2 => 6_000,
            WorkloadKind::PipelineIngest => 4_000,
        }
    }

    /// Ops run during each set-up before timing starts, so caches and
    /// buffer pools are full.
    pub fn warmup_ops(self) -> u64 {
        match self {
            WorkloadKind::PipelineIngest => 200,
            _ => 1_000,
        }
    }
}

/// Everything one run needs.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Which workload.
    pub workload: WorkloadKind,
    /// Seed for every generated input.
    pub seed: u64,
    /// Timed ops (split evenly over `rounds`).
    pub ops: u64,
    /// Warm-up ops per set-up.
    pub warmup: u64,
    /// Set-ups per run; `setup_s` is their median and the last one is
    /// measured.
    pub setups: usize,
    /// Rounds of the timed loop; throughput and latency are reported
    /// from the best round.
    pub rounds: usize,
    /// Also run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Op samples replayed through each layer in the traced pass.
    pub replay_ops: usize,
}

impl RunSpec {
    /// The standard run of `workload` sized for `seconds`.
    pub fn standard(workload: WorkloadKind, seed: u64, seconds: u64, trace: bool) -> Self {
        RunSpec {
            workload,
            seed,
            ops: (seconds * workload.ops_per_second()).max(1_000),
            warmup: workload.warmup_ops(),
            setups: 5,
            rounds: 40,
            trace,
            replay_ops: 200,
        }
    }
}

/// Per-layer wall time of the set-up phases, in seconds.
#[derive(Debug, Clone, Default)]
pub struct SetupPhases {
    /// `Cluster::build`.
    pub core_build: f64,
    /// ZooKeeper ensemble election and start.
    pub zookeeper: f64,
    /// HBase master, region server and table handles.
    pub hbase: f64,
    /// RocketMQ name server, broker, producer and consumer.
    pub rocketmq: f64,
    /// Warm-up ops.
    pub warmup: f64,
}

/// Monotone counters read from the cluster between loops.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// SimNet `net_tcp_bytes`: data plane plus Taint Map RPCs.
    pub net_bytes: u64,
    /// Taint Map register + lookup items sent over the wire.
    pub rpc_items: u64,
    /// Taint Map batch frames.
    pub batch_frames: u64,
    /// Taint Map client cache hits.
    pub cache_hits: u64,
    /// `WireBufPool::recycled` over all VMs.
    pub pool_recycled: u64,
    /// Flight-recorder events recorded over all VMs.
    pub flight_events: u64,
    /// Flight-recorder events lost to ring wrap-around.
    pub flight_dropped: u64,
    /// `boundary_wire_bytes_out` over all VMs (0 with observability off).
    pub wire_out: u64,
}

impl Counters {
    /// Reads the counters of every VM of `cluster`.
    pub fn of(cluster: &Cluster) -> Self {
        let mut c = Counters {
            net_bytes: cluster.net().metrics().snapshot().tcp_bytes,
            wire_out: cluster
                .metrics_dump()
                .counter_total("boundary_wire_bytes_out"),
            ..Counters::default()
        };
        for vm in cluster.vms() {
            if let Some(client) = vm.taint_map() {
                let s = client.stats();
                c.rpc_items += s.register_rpcs + s.lookup_rpcs;
                c.batch_frames += s.batch_frames;
                c.cache_hits += s.cache_hits;
            }
            c.pool_recycled += vm.wire_pool().recycled();
            c.flight_events += vm.flight_recorder().recorded();
            c.flight_dropped += vm.flight_recorder().dropped();
        }
        c
    }

    fn delta(self, before: Counters) -> Counters {
        Counters {
            net_bytes: self.net_bytes - before.net_bytes,
            rpc_items: self.rpc_items - before.rpc_items,
            batch_frames: self.batch_frames - before.batch_frames,
            cache_hits: self.cache_hits - before.cache_hits,
            pool_recycled: self.pool_recycled - before.pool_recycled,
            flight_events: self.flight_events - before.flight_events,
            flight_dropped: self.flight_dropped - before.flight_dropped,
            wire_out: self.wire_out - before.wire_out,
        }
    }
}

/// A SimNet with the link model off (0 ns per byte). A non-zero link
/// cost spin-waits on the sending thread, which would time a spin loop;
/// wire cost is reported as the exact `net_bytes_per_op` count instead.
pub fn bench_net() -> SimNet {
    SimNet::with_faults(FaultConfig {
        wire_ns_per_byte: 0,
        ..FaultConfig::default()
    })
}

/// Benchmark-side span names: each wraps one public call of the op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanName {
    /// The whole op (parent of every other span).
    Op,
    /// Minting source taints and building the payload.
    Build,
    /// `OutputStream::write`.
    JreWrite,
    /// `InputStream::read_exact`.
    JreRead,
    /// `MqProducer::send`.
    MqSend,
    /// `MqConsumer::try_pull`.
    MqPull,
    /// `HTable::put`.
    HbPut,
    /// `HTable::get`.
    HbGet,
}

impl SpanName {
    fn label(self) -> &'static str {
        match self {
            SpanName::Op => "op",
            SpanName::Build => "payload.build",
            SpanName::JreWrite => "jre.write",
            SpanName::JreRead => "jre.read",
            SpanName::MqSend => "rocketmq.send",
            SpanName::MqPull => "rocketmq.pull",
            SpanName::HbPut => "hbase.put",
            SpanName::HbGet => "hbase.get",
        }
    }
}

/// One recorded span. All spans of an op share its index; every span
/// but `op` has the op span as parent.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Op index (the trace identifier).
    pub op: u64,
    /// Which call.
    pub name: SpanName,
    /// Start, in ns since the traced loop began.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

/// In-memory span recorder for the traced pass.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            op: 0,
            spans: Vec::new(),
        }
    }

    /// Times `f` as span `name` of the current op.
    pub fn span<T>(&mut self, name: SpanName, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let dur_ns = t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            op: self.op,
            name,
            start_ns: (t0 - self.origin).as_nanos() as u64,
            dur_ns,
        });
        out
    }
}

/// Runs `f` inside span `name` when tracing, or plainly otherwise.
pub fn traced<T>(tracer: &mut Option<&mut Tracer>, name: SpanName, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Isolated per-layer cost of the replayed op sample, in ns per op.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// `WireCodec::encode_into`.
    pub encode: f64,
    /// `WireCodec::decode_available`.
    pub decode: f64,
    /// Mint + `TaintedBytes` build + receiver `TaintRuns::push_run` rebuild.
    pub build: f64,
    /// `TaintMapClient::global_ids_for`.
    pub register: f64,
    /// `TaintMapClient::taints_for`.
    pub lookup: f64,
    /// `TcpEndpoint::write` of the op's wire bytes.
    pub net_write: f64,
    /// `TcpEndpoint::read_exact` of the op's wire bytes.
    pub net_read: f64,
    /// Shadow runs per op (count).
    pub runs: f64,
}

impl Replay {
    fn scaled(self, k: f64) -> Replay {
        Replay {
            encode: self.encode * k,
            decode: self.decode * k,
            build: self.build * k,
            register: self.register * k,
            lookup: self.lookup * k,
            net_write: self.net_write * k,
            net_read: self.net_read * k,
            runs: self.runs * k,
        }
    }

    fn isolated_sum(&self) -> f64 {
        self.encode
            + self.decode
            + self.build
            + self.register
            + self.lookup
            + self.net_write
            + self.net_read
    }
}

/// Times `f`, adding its ns to `acc`.
pub fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed().as_nanos() as f64;
    out
}

/// What one op did.
#[derive(Debug)]
pub struct OpOutcome {
    /// Wall time of the op (generation and checking excluded).
    pub ns: u64,
    /// `Err` names the check or call that failed.
    pub check: Result<(), String>,
}

/// A workload standing on its own cluster.
pub trait Workload {
    /// The cluster under test.
    fn cluster(&self) -> &Cluster;
    /// Runs op `index` and checks it outside its timer.
    fn op(&mut self, index: u64, tracer: Option<&mut Tracer>) -> OpOutcome;
    /// Exact codec wire bytes of the traced ops (crossings encode each
    /// traced op's writes again, outside every span), or `None` when the
    /// workload reads them from the observability counters instead.
    fn traced_wire_bytes(&self) -> Option<u64>;
    /// Replays the recorded op sample through each inner layer alone.
    fn replay(&mut self) -> Result<Replay, String>;
    /// `rocketmq.pull_empty_ratio` numerator and denominator so far.
    fn pulls(&self) -> (u64, u64) {
        (0, 0)
    }
    /// End-of-run check.
    fn finish(&mut self) -> Result<(), String>;
    /// Stops every server thread the workload started.
    fn shutdown(self: Box<Self>);
}

/// Stands a workload up, recording its set-up phases.
pub fn setup(
    kind: WorkloadKind,
    seed: u64,
    warmup: u64,
    sample: usize,
    phases: &mut SetupPhases,
) -> Result<Box<dyn Workload>, String> {
    match kind {
        WorkloadKind::PipelineIngest => {
            pipeline::Pipeline::setup(seed, warmup, sample, phases).map(|p| Box::new(p) as _)
        }
        _ => {
            crossing::Crossing::setup(kind, seed, warmup, sample, phases).map(|c| Box::new(c) as _)
        }
    }
}

/// Tag-set signature of a taint: its `(value, origin VM)` pairs, sorted.
pub type Sig = Vec<(TagValue, LocalId)>;

/// The signature of `taint` in `store`.
pub fn sig_of(store: &TaintStore, taint: Taint) -> Sig {
    let mut sig: Sig = store
        .tree()
        .tags_of(taint)
        .into_iter()
        .map(|t| (t.value, t.local_id))
        .collect();
    sig.sort();
    sig
}

/// A bounded per-store cache of taint signatures (the checks see the
/// same few taints over and over on warm workloads).
#[derive(Debug, Default)]
pub struct SigCache(HashMap<Taint, Sig>);

impl SigCache {
    /// The signature of `taint` in `store`.
    pub fn get(&mut self, store: &TaintStore, taint: Taint) -> &Sig {
        if self.0.len() > 256 && !self.0.contains_key(&taint) {
            self.0.clear();
        }
        self.0.entry(taint).or_insert_with(|| sig_of(store, taint))
    }
}

/// The result of one run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Every check passed and no op failed.
    pub correct: bool,
    /// Ops attempted in the timed loop(s).
    pub attempted: u64,
    /// Ops whose call or check failed.
    pub failed: u64,
    /// End-to-end metrics (always) and per-layer metrics (traced runs).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics; empty unless traced.
    pub per_layer: Vec<Metric>,
    /// Spans of the traced pass.
    pub spans: Vec<Span>,
    /// Failure messages (the first few).
    pub errors: Vec<String>,
}

/// One round of the timed loop.
#[derive(Debug, Clone, Copy)]
struct Round {
    ops_per_s: f64,
    p50_us: f64,
    p99_us: f64,
}

struct LoopResult {
    attempted: u64,
    failed: u64,
    rounds: Vec<Round>,
    busy_ns: f64,
    counters: Counters,
    errors: Vec<String>,
}

const MAX_ERRORS: usize = 8;

fn timed_loop(w: &mut dyn Workload, spec: &RunSpec, mut tracer: Option<&mut Tracer>) -> LoopResult {
    let before = Counters::of(w.cluster());
    let mut res = LoopResult {
        attempted: 0,
        failed: 0,
        rounds: Vec::new(),
        busy_ns: 0.0,
        counters: Counters::default(),
        errors: Vec::new(),
    };
    let per_round = spec.ops.div_ceil(spec.rounds as u64);
    let mut index = spec.warmup;
    let end = spec.warmup + spec.ops;
    while index < end {
        let round_end = (index + per_round).min(end);
        let (mut ok, mut busy) = (0u64, 0u64);
        let mut latencies_us = Vec::with_capacity(per_round as usize);
        while index < round_end {
            if let Some(t) = tracer.as_deref_mut() {
                t.op = index;
            }
            let started = Instant::now();
            let out = w.op(index, tracer.as_deref_mut());
            if let Some(t) = tracer.as_deref_mut() {
                t.spans.push(Span {
                    op: index,
                    name: SpanName::Op,
                    start_ns: (started - t.origin).as_nanos() as u64,
                    dur_ns: out.ns,
                });
            }
            res.attempted += 1;
            busy += out.ns;
            match out.check {
                Ok(()) => {
                    ok += 1;
                    latencies_us.push(out.ns as f64 / 1e3);
                }
                Err(e) => {
                    res.failed += 1;
                    if res.errors.len() < MAX_ERRORS {
                        res.errors.push(format!("op {index}: {e}"));
                    }
                }
            }
            index += 1;
        }
        res.busy_ns += busy as f64;
        res.rounds.push(Round {
            ops_per_s: ok as f64 / (busy.max(1) as f64 / 1e9),
            p50_us: percentile(&latencies_us, 0.50),
            p99_us: percentile(&latencies_us, 0.99),
        });
    }
    res.counters = Counters::of(w.cluster()).delta(before);
    res
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The last of a run's set-ups, with every set-up's timings.
struct Standup {
    workload: Box<dyn Workload>,
    setup_s: Vec<f64>,
    phases: Vec<SetupPhases>,
}

/// Stands the workload up `spec.setups` times and returns the last one
/// with every set-up's phases.
fn standup(spec: &RunSpec, errors: &mut Vec<String>) -> Option<Standup> {
    let mut setup_s = Vec::new();
    let mut phases = Vec::new();
    let mut last: Option<Box<dyn Workload>> = None;
    for k in 0..spec.setups.max(1) {
        if let Some(prev) = last.take() {
            prev.shutdown();
        }
        let mut ph = SetupPhases::default();
        let t0 = Instant::now();
        match setup(spec.workload, spec.seed, spec.warmup, 0, &mut ph) {
            Ok(w) => {
                setup_s.push(t0.elapsed().as_secs_f64());
                phases.push(ph);
                last = Some(w);
            }
            Err(e) => {
                errors.push(format!("set-up {k}: {e}"));
                return None;
            }
        }
    }
    last.map(|workload| Standup {
        workload,
        setup_s,
        phases,
    })
}

/// Runs `spec` end to end: set-ups, the untraced timed loop, the
/// end-of-run check, and (when `spec.trace`) the traced pass.
pub fn run(spec: &RunSpec) -> RunOutcome {
    let mut out = RunOutcome {
        correct: false,
        attempted: 0,
        failed: 0,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        spans: Vec::new(),
        errors: Vec::new(),
    };
    let Some(Standup {
        workload: mut w,
        setup_s,
        phases,
    }) = standup(spec, &mut out.errors)
    else {
        return out;
    };
    let main = timed_loop(w.as_mut(), spec, None);
    let finish = w.finish();
    w.shutdown();
    out.attempted = main.attempted;
    out.failed = main.failed;
    out.errors.extend(main.errors.iter().cloned());
    if let Err(e) = &finish {
        out.errors.push(format!("end-of-run check: {e}"));
    }
    let ok_ops = main.attempted - main.failed;
    let per_op = |v: u64| v as f64 / main.attempted.max(1) as f64;
    let of_rounds = |f: fn(&Round) -> f64| main.rounds.iter().map(f).collect::<Vec<f64>>();
    out.end_to_end = vec![
        Metric::best_of("ops_per_s", "1/s", of_rounds(|r| r.ops_per_s), false),
        Metric::best_of("latency_p50_us", "us", of_rounds(|r| r.p50_us), true),
        Metric::best_of("latency_p99_us", "us", of_rounds(|r| r.p99_us), true),
        Metric::median_of("setup_s", "s", setup_s),
        Metric::single("net_bytes_per_op", "B", per_op(main.counters.net_bytes)),
        Metric::single(
            "ok_op_ratio",
            "ratio",
            ok_ops as f64 / main.attempted.max(1) as f64,
        ),
    ];
    let untraced_ops_per_s = out.end_to_end[0].value;

    if spec.trace && out.errors.is_empty() {
        match traced_pass(spec, untraced_ops_per_s, &phases, &mut out) {
            Ok(()) => {}
            Err(e) => out.errors.push(format!("traced pass: {e}")),
        }
    }
    // Read last, so the traced pass's own high-water mark counts too.
    out.end_to_end
        .insert(4, Metric::single("peak_rss_mib", "MiB", peak_rss_mib()));
    out.correct = out.errors.is_empty() && out.failed == 0 && out.attempted > 0;
    out
}

fn traced_pass(
    spec: &RunSpec,
    untraced_ops_per_s: f64,
    phases: &[SetupPhases],
    out: &mut RunOutcome,
) -> Result<(), String> {
    let mut ph = SetupPhases::default();
    let mut w = setup(
        spec.workload,
        spec.seed,
        spec.warmup,
        spec.replay_ops,
        &mut ph,
    )?;
    let mut tracer = Tracer::new();
    let res = timed_loop(w.as_mut(), spec, Some(&mut tracer));
    let (empty, pulls) = w.pulls();
    let replay = w.replay();
    let wire_bytes = w.traced_wire_bytes();
    let finish = w.finish();
    w.shutdown();
    out.attempted += res.attempted;
    out.failed += res.failed;
    out.errors.extend(res.errors.iter().cloned());
    finish.map_err(|e| format!("end-of-run check: {e}"))?;
    let replay = replay?;

    let n = res.attempted.max(1) as f64;
    let c = res.counters;
    let wire = wire_bytes.unwrap_or(c.wire_out) as f64 / n;
    let net = c.net_bytes as f64 / n;
    let mut span_ns: HashMap<SpanName, f64> = HashMap::new();
    for s in &tracer.spans {
        *span_ns.entry(s.name).or_default() += s.dur_ns as f64;
    }
    let span_us = |name: SpanName| span_ns.get(&name).copied().unwrap_or(0.0) / n / 1e3;
    let op_us = res.busy_ns / n / 1e3;
    let us = |ns: f64| ns / 1e3;
    let traced_ops_per_s = res.rounds.iter().map(|r| r.ops_per_s).fold(0.0, f64::max);
    let requests = c.cache_hits + c.rpc_items;
    let hit_ratio = if requests == 0 {
        0.0
    } else {
        c.cache_hits as f64 / requests as f64
    };
    let mut m = vec![
        Metric::single("jre.write_us", "us", span_us(SpanName::JreWrite)),
        Metric::single("jre.read_us", "us", span_us(SpanName::JreRead)),
        Metric::single("jre.pool_recycled", "count", c.pool_recycled as f64 / n),
        Metric::single("codec.encode_us", "us", us(replay.encode)),
        Metric::single("codec.decode_us", "us", us(replay.decode)),
        Metric::single("codec.wire_bytes", "B", wire),
        Metric::single("taint.build_us", "us", us(replay.build)),
        Metric::single("taint.runs", "count", replay.runs),
        Metric::single("taintmap.register_us", "us", us(replay.register)),
        Metric::single("taintmap.lookup_us", "us", us(replay.lookup)),
        Metric::single("taintmap.rpc_items", "count", c.rpc_items as f64 / n),
        Metric::single("taintmap.batch_frames", "count", c.batch_frames as f64 / n),
        Metric::single("taintmap.cache_hit_ratio", "ratio", hit_ratio),
        Metric::single("taintmap.rpc_bytes", "B", net - wire),
        Metric::single("simnet.write_us", "us", us(replay.net_write)),
        Metric::single("simnet.read_us", "us", us(replay.net_read)),
        Metric::single("rocketmq.send_us", "us", span_us(SpanName::MqSend)),
        Metric::single("rocketmq.pull_us", "us", span_us(SpanName::MqPull)),
        Metric::single(
            "rocketmq.pull_empty_ratio",
            "ratio",
            if pulls == 0 {
                0.0
            } else {
                empty as f64 / pulls as f64
            },
        ),
        Metric::single("hbase.put_us", "us", span_us(SpanName::HbPut)),
        Metric::single("hbase.get_us", "us", span_us(SpanName::HbGet)),
        Metric::single("obs.flight_events", "count", c.flight_events as f64 / n),
        Metric::single("obs.flight_dropped", "count", c.flight_dropped as f64 / n),
    ];
    for (name, f) in [
        (
            "core.build_s",
            (|p: &SetupPhases| p.core_build) as fn(&SetupPhases) -> f64,
        ),
        ("zookeeper.ensemble_s", |p| p.zookeeper),
        ("hbase.standup_s", |p| p.hbase),
        ("rocketmq.standup_s", |p| p.rocketmq),
        ("warmup_s", |p| p.warmup),
    ] {
        m.push(Metric::median_of(name, "s", phases.iter().map(f).collect()));
    }
    m.push(Metric::single(
        "residual_share",
        "ratio",
        1.0 - replay.isolated_sum() / 1e3 / op_us.max(1e-9),
    ));
    m.push(Metric::single(
        "trace.overhead",
        "ratio",
        1.0 - traced_ops_per_s / untraced_ops_per_s.max(1e-9),
    ));
    out.per_layer = m;
    out.spans = tracer.spans;
    Ok(())
}

/// Averages a replay over `ops` sampled ops.
pub fn per_op(total: Replay, ops: usize) -> Replay {
    total.scaled(1.0 / ops.max(1) as f64)
}

/// Writes spans as JSON lines (at most `cap`), one object per span.
pub fn spans_jsonl(spans: &[Span], cap: usize) -> String {
    let mut s = String::new();
    for sp in spans.iter().take(cap) {
        s.push_str(&format!(
            "{{\"trace\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"dur_ns\":{}}}\n",
            sp.op,
            sp.name.label(),
            if sp.name == SpanName::Op {
                "null"
            } else {
                "\"op\""
            },
            sp.start_ns,
            sp.dur_ns
        ));
    }
    s
}
