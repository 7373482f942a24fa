//! The three crossing workloads: two VMs, one connection, and one
//! thread that drives both ends. The request is already in the SimNet
//! pipe when the peer reads it, so no thread wakes up on the data path;
//! the only hand-offs left are the program's own Taint Map RPCs.

use std::time::Instant;

use dista_core::jre::{
    InputStream, OutputStream, ServerSocket, Socket, SocketInputStream, SocketOutputStream,
    V1Codec, V2Codec, Vm, WireCodec,
};
use dista_core::simnet::{NodeAddr, SimNet, TcpEndpoint};
use dista_core::taint::{GlobalId, Payload, TagValue, Taint, TaintRuns, TaintedBytes};
use dista_core::{Cluster, Mode, WireProtocol};

use crate::stats::Rng;
use crate::{
    bench_net, per_op, timed, traced, OpOutcome, Replay, SetupPhases, SigCache, SpanName, Tracer,
    Workload, WorkloadKind,
};

/// Warm taints striped over each `crossing_warm_v1` payload.
pub const WARM_TAINTS: usize = 8;
/// Fresh taints minted by each `crossing_fresh_v2` op.
pub const FRESH_TAINTS: usize = 4;
/// `crossing_clean_v2` writes its request in this many pieces …
pub const CLEAN_WRITES: usize = 64;
/// … of this many bytes each.
pub const CLEAN_WRITE_LEN: usize = 64;

fn server_addr() -> NodeAddr {
    NodeAddr::new([10, 0, 0, 2], 9000)
}

/// Times each sampled op is replayed through the layers.
const REPLAY_REPS: usize = 4;

/// A delivered run as the check expects it: its length and the
/// `(tag value, origin IP)` pairs of its taint.
type ExpectedRun = (usize, Vec<(TagValue, [u8; 4])>);

/// One op's generated inputs.
#[derive(Debug, Clone)]
struct Input {
    data: Vec<u8>,
    /// `(run length, taint slot)`, covering `data`; empty when clean.
    stripes: Vec<(usize, usize)>,
    /// Tags to mint (fresh workload only).
    fresh_tags: Vec<TagValue>,
}

/// What one traced op sent, kept for the exact wire count and replay.
#[derive(Debug, Clone)]
struct Sample {
    /// Request writes as built by VM a.
    request: Vec<TaintedBytes>,
    /// The request as delivered to VM b, which echoes it back.
    delivered: TaintedBytes,
    /// The reply as delivered to VM a.
    back: TaintedBytes,
}

/// A crossing workload standing on its two-VM cluster.
pub struct Crossing {
    kind: WorkloadKind,
    seed: u64,
    cluster: Cluster,
    a: Vm,
    b: Vm,
    _listener: ServerSocket,
    client: Socket,
    server: Socket,
    a_out: SocketOutputStream,
    a_in: SocketInputStream,
    b_out: SocketOutputStream,
    b_in: SocketInputStream,
    warm: Vec<Taint>,
    warm_tags: Vec<TagValue>,
    sigs_a: SigCache,
    sigs_b: SigCache,
    sample_cap: usize,
    samples: Vec<Sample>,
    traced_wire: u64,
    replay_mints: u64,
}

impl Crossing {
    /// Builds the cluster, connects, mints the warm taints and runs
    /// `warmup` ops. `sample` ops of the timed loop are kept for replay.
    ///
    /// # Errors
    ///
    /// Any set-up call or warm-up op that fails.
    pub fn setup(
        kind: WorkloadKind,
        seed: u64,
        warmup: u64,
        sample: usize,
        phases: &mut SetupPhases,
    ) -> Result<Self, String> {
        let protocol = match kind {
            WorkloadKind::CrossingWarmV1 => WireProtocol::V1,
            _ => WireProtocol::V2,
        };
        let t0 = Instant::now();
        let cluster = Cluster::builder(Mode::Dista)
            .node("a", [10, 0, 0, 1])
            .node("b", [10, 0, 0, 2])
            .wire_protocol(protocol)
            .net(bench_net())
            .build()
            .map_err(|e| format!("cluster build: {e}"))?;
        phases.core_build = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let (a, b) = (cluster.vm(0).clone(), cluster.vm(1).clone());
        let listener = ServerSocket::bind(&b, server_addr()).map_err(|e| format!("bind: {e}"))?;
        let client = Socket::connect(&a, server_addr()).map_err(|e| format!("connect: {e}"))?;
        let server = listener.accept().map_err(|e| format!("accept: {e}"))?;
        let warm_tags: Vec<TagValue> = (0..WARM_TAINTS)
            .map(|k| TagValue::str(format!("warm:{k}")))
            .collect();
        let warm = match kind {
            WorkloadKind::CrossingWarmV1 => warm_tags
                .iter()
                .map(|t| a.taint_source(t.clone()))
                .collect(),
            _ => Vec::new(),
        };
        let mut w = Crossing {
            kind,
            seed,
            a_out: client.output_stream(),
            a_in: client.input_stream(),
            b_out: server.output_stream(),
            b_in: server.input_stream(),
            cluster,
            a,
            b,
            _listener: listener,
            client,
            server,
            warm,
            warm_tags,
            sigs_a: SigCache::default(),
            sigs_b: SigCache::default(),
            sample_cap: 0,
            samples: Vec::new(),
            traced_wire: 0,
            replay_mints: 0,
        };
        for i in 0..warmup {
            w.op(i, None)
                .check
                .map_err(|e| format!("warm-up op {i}: {e}"))?;
        }
        phases.warmup = t0.elapsed().as_secs_f64();
        w.sample_cap = sample;
        Ok(w)
    }

    fn payload_len(&self) -> usize {
        match self.kind {
            WorkloadKind::CrossingCleanV2 => CLEAN_WRITES * CLEAN_WRITE_LEN,
            WorkloadKind::CrossingWarmV1 => 16 * 1024,
            _ => 1024,
        }
    }

    fn input(&self, index: u64) -> Input {
        let mut rng = Rng::for_op(self.seed, index);
        let len = self.payload_len();
        let data = rng.bytes(len);
        let mut stripes = Vec::new();
        let mut fresh_tags = Vec::new();
        match self.kind {
            WorkloadKind::CrossingCleanV2 => {}
            WorkloadKind::CrossingWarmV1 => {
                let mut at = 0;
                while at < len {
                    let run = rng.range(64, 1024).min(len - at);
                    stripes.push((run, rng.range(0, WARM_TAINTS - 1)));
                    at += run;
                }
            }
            _ => {
                // Adjacent stripes always differ and every one of the
                // fresh taints appears (runs of at most 240 B make at
                // least five stripes).
                let first = rng.range(0, FRESH_TAINTS - 1);
                let mut at = 0;
                while at < len {
                    let run = rng.range(16, 240).min(len - at);
                    stripes.push((run, (first + stripes.len()) % FRESH_TAINTS));
                    at += run;
                }
                fresh_tags = (0..FRESH_TAINTS)
                    .map(|k| TagValue::str(format!("fresh:{index}:{k}")))
                    .collect();
            }
        }
        Input {
            data,
            stripes,
            fresh_tags,
        }
    }

    /// The expected `(run length, tag set)` layout of a delivered
    /// payload: adjacent stripes of one taint coalesce.
    fn expected_runs(&self, input: &Input) -> Vec<ExpectedRun> {
        let tag_of = |slot: usize| match self.kind {
            WorkloadKind::CrossingWarmV1 => self.warm_tags[slot].clone(),
            _ => input.fresh_tags[slot].clone(),
        };
        if input.stripes.is_empty() {
            return vec![(input.data.len(), Vec::new())];
        }
        let mut out: Vec<(usize, usize)> = Vec::new();
        for &(len, slot) in &input.stripes {
            match out.last_mut() {
                Some(last) if last.1 == slot => last.0 += len,
                _ => out.push((len, slot)),
            }
        }
        out.into_iter()
            .map(|(len, slot)| (len, vec![(tag_of(slot), self.a.ip())]))
            .collect()
    }
}

/// Checks that `got` carries exactly `data`, and that its runs carry
/// exactly the expected tag sets: no tag dropped, none invented.
fn check_delivery(
    vm: &Vm,
    sigs: &mut SigCache,
    got: &Payload,
    data: &[u8],
    expected: &[ExpectedRun],
    leg: &str,
) -> Result<(), String> {
    let Some(bytes) = got.as_tainted() else {
        return Err(format!("{leg}: payload arrived without a shadow"));
    };
    if bytes.data() != data {
        return Err(format!(
            "{leg}: {} data bytes differ from the {} sent",
            bytes.len(),
            data.len()
        ));
    }
    let runs = bytes.shadow().runs();
    if runs.len() != expected.len() {
        return Err(format!(
            "{leg}: {} runs delivered, {} sent",
            runs.len(),
            expected.len()
        ));
    }
    for (k, (run, (len, tags))) in runs.iter().zip(expected).enumerate() {
        let sig = sigs.get(vm.store(), run.taint);
        let same = run.len == *len
            && sig.len() == tags.len()
            && sig
                .iter()
                .zip(tags)
                .all(|((v, origin), (tv, ip))| v == tv && origin.ip() == *ip);
        if !same {
            return Err(format!(
                "{leg}: run {k} delivered {} B with {:?}, sent {len} B with {tags:?}",
                run.len, sig
            ));
        }
    }
    Ok(())
}

/// The `(run length, gid)` table a sender's codec sees for `bytes`,
/// from the sender's cache (no RPC, no statistics touched).
fn gid_runs(vm: &Vm, bytes: &TaintedBytes) -> Result<Vec<(usize, GlobalId)>, String> {
    let client = vm.taint_map().ok_or("VM without a Taint Map client")?;
    bytes
        .shadow()
        .iter_runs()
        .map(|(len, taint)| {
            if taint.is_empty() {
                Ok((len, GlobalId::UNTAINTED))
            } else {
                client
                    .cached_gid_for(taint)
                    .map(|g| (len, g))
                    .ok_or_else(|| format!("no cached gid for {taint}"))
            }
        })
        .collect()
}

fn distinct<T: PartialEq + Copy>(items: impl Iterator<Item = T>) -> Vec<T> {
    let mut out: Vec<T> = Vec::new();
    for t in items {
        if !out.contains(&t) {
            out.push(t);
        }
    }
    out
}

impl Crossing {
    fn codec(&self) -> Box<dyn WireCodec> {
        let width = self.a.gid_width();
        match self.kind {
            WorkloadKind::CrossingWarmV1 => Box::new(V1Codec::new(width)),
            _ => Box::new(V2Codec::new(width)),
        }
    }

    fn wire_len(
        &self,
        codec: &dyn WireCodec,
        vm: &Vm,
        bytes: &TaintedBytes,
    ) -> Result<u64, String> {
        let mut wire = Vec::new();
        codec
            .encode_into(bytes.data(), &gid_runs(vm, bytes)?, &mut wire)
            .map_err(|e| format!("encode: {e}"))?;
        Ok(wire.len() as u64)
    }

    /// Replays one crossing leg: `from` sent `writes`, `to` received
    /// `delivered`.
    #[allow(clippy::too_many_arguments)]
    fn replay_leg(
        &mut self,
        r: &mut Replay,
        codec: &dyn WireCodec,
        net: (&TcpEndpoint, &TcpEndpoint),
        from: &Vm,
        to: &Vm,
        writes: &[TaintedBytes],
        delivered: &TaintedBytes,
        cold: bool,
    ) -> Result<(), String> {
        let no_client = || "VM without a Taint Map client".to_string();
        let tx = from.taint_map().ok_or_else(no_client)?;
        let rx = to.taint_map().ok_or_else(no_client)?;
        let run_tables: Vec<Vec<(usize, Taint)>> = writes
            .iter()
            .map(|w| w.shadow().iter_runs().collect())
            .collect();
        // taint: mint (fresh legs), build each write, rebuild the
        // receiver's shadow.
        let mut fresh: Vec<Taint> = Vec::new();
        let mut buffers: Vec<Vec<u8>> = writes.iter().map(|w| w.data().to_vec()).collect();
        let built =
            timed(&mut r.build, || {
                if cold {
                    for k in 0..FRESH_TAINTS {
                        self.replay_mints += 1;
                        fresh.push(from.taint_source(TagValue::str(format!(
                            "replay:{}:{k}",
                            self.replay_mints
                        ))));
                    }
                }
                run_tables
                    .iter()
                    .zip(buffers.drain(..))
                    .map(|(runs, data)| {
                        let mut shadow = TaintRuns::new();
                        for &(len, taint) in runs {
                            shadow.push_run(taint, len);
                        }
                        TaintedBytes::from_runs(data, shadow)
                    })
                    .collect::<Vec<_>>()
            });
        let rx_runs: Vec<(usize, Taint)> = delivered.shadow().iter_runs().collect();
        let rebuilt = timed(&mut r.build, || {
            let mut shadow = TaintRuns::new();
            for &(len, taint) in &rx_runs {
                shadow.push_run(taint, len);
            }
            shadow
        });
        r.runs += rebuilt.num_runs() as f64;
        std::hint::black_box((built, rebuilt));
        // taintmap: the leg's distinct taints in the workload's cache
        // state (fresh legs register and look up never-seen taints).
        let taints = if cold {
            fresh
        } else {
            distinct(
                writes
                    .iter()
                    .flat_map(|w| w.shadow().iter_runs().map(|(_, t)| t)),
            )
        };
        let gids = timed(&mut r.register, || tx.global_ids_for(&taints))
            .map_err(|e| format!("register replay: {e}"))?;
        let gids = distinct(gids.into_iter());
        timed(&mut r.lookup, || rx.taints_for(&gids)).map_err(|e| format!("lookup replay: {e}"))?;
        // codec: encode every write, decode every frame.
        let tables: Vec<Vec<(usize, GlobalId)>> = writes
            .iter()
            .map(|w| gid_runs(from, w))
            .collect::<Result<_, _>>()?;
        let mut wires: Vec<Vec<u8>> = vec![Vec::new(); writes.len()];
        timed(&mut r.encode, || -> Result<(), String> {
            for ((w, table), out) in writes.iter().zip(&tables).zip(wires.iter_mut()) {
                codec
                    .encode_into(w.data(), table, out)
                    .map_err(|e| format!("encode replay: {e}"))?;
            }
            Ok(())
        })?;
        // The receiver decodes whatever the writes left in its buffer.
        let stream = wires.concat();
        let want: usize = writes.iter().map(TaintedBytes::len).sum();
        let (mut data, mut runs) = (Vec::new(), Vec::new());
        timed(&mut r.decode, || -> Result<(), String> {
            let mut at = 0;
            while at < stream.len() {
                let used = codec
                    .decode_available(&stream[at..], want, &mut data, &mut runs)
                    .map_err(|e| format!("decode replay: {e}"))?;
                if used == 0 {
                    return Err("decode replay stalled".into());
                }
                at += used;
            }
            Ok(())
        })?;
        std::hint::black_box((data, runs));
        // simnet: the leg's wire bytes over a raw endpoint pair.
        let total = stream.len();
        timed(&mut r.net_write, || -> Result<(), String> {
            for wire in &wires {
                net.0.write(wire).map_err(|e| format!("net write: {e}"))?;
            }
            Ok(())
        })?;
        let mut buf = vec![0u8; total];
        timed(&mut r.net_read, || net.1.read_exact(&mut buf))
            .map_err(|e| format!("net read: {e}"))?;
        Ok(())
    }
}

impl Workload for Crossing {
    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn op(&mut self, index: u64, mut tracer: Option<&mut Tracer>) -> OpOutcome {
        let input = self.input(index);
        let len = input.data.len();
        // The application's own buffers, prepared outside the timer.
        let pieces: Vec<Vec<u8>> = match self.kind {
            WorkloadKind::CrossingCleanV2 => input
                .data
                .chunks(CLEAN_WRITE_LEN)
                .map(<[u8]>::to_vec)
                .collect(),
            _ => vec![input.data.clone()],
        };
        let started = Instant::now();
        // Build the request: mint fresh taints, stripe the payload.
        let request: Vec<Payload> = traced(&mut tracer, SpanName::Build, || {
            if input.stripes.is_empty() {
                return pieces
                    .into_iter()
                    .map(|p| Payload::Tainted(TaintedBytes::from_plain(p)))
                    .collect();
            }
            let fresh: Vec<Taint> = input
                .fresh_tags
                .iter()
                .map(|t| self.a.taint_source(t.clone()))
                .collect();
            let taints = if fresh.is_empty() { &self.warm } else { &fresh };
            let mut shadow = TaintRuns::new();
            for &(run, slot) in &input.stripes {
                shadow.push_run(taints[slot], run);
            }
            pieces
                .into_iter()
                .map(|p| Payload::Tainted(TaintedBytes::from_runs(p, shadow.clone())))
                .collect()
        });
        let result = (|| {
            traced(&mut tracer, SpanName::JreWrite, || {
                request.iter().try_for_each(|piece| self.a_out.write(piece))
            })
            .map_err(|e| format!("request write: {e}"))?;
            let delivered = traced(&mut tracer, SpanName::JreRead, || self.b_in.read_exact(len))
                .map_err(|e| format!("request read: {e}"))?;
            traced(&mut tracer, SpanName::JreWrite, || {
                self.b_out.write(&delivered)
            })
            .map_err(|e| format!("reply write: {e}"))?;
            let back = traced(&mut tracer, SpanName::JreRead, || self.a_in.read_exact(len))
                .map_err(|e| format!("reply read: {e}"))?;
            Ok::<_, String>((delivered, back))
        })();
        let ns = started.elapsed().as_nanos() as u64;
        // Checks run outside the op's timer.
        let check = result.and_then(|(delivered, back)| {
            let expected = self.expected_runs(&input);
            check_delivery(
                &self.b,
                &mut self.sigs_b,
                &delivered,
                &input.data,
                &expected,
                "request",
            )?;
            check_delivery(
                &self.a,
                &mut self.sigs_a,
                &back,
                &input.data,
                &expected,
                "reply",
            )?;
            if tracer.is_some() {
                let codec = self.codec();
                let delivered = delivered.into_tainted();
                let request: Vec<TaintedBytes> =
                    request.into_iter().map(Payload::into_tainted).collect();
                for piece in &request {
                    self.traced_wire += self.wire_len(codec.as_ref(), &self.a, piece)?;
                }
                self.traced_wire += self.wire_len(codec.as_ref(), &self.b, &delivered)?;
                if self.samples.len() < self.sample_cap {
                    self.samples.push(Sample {
                        request,
                        delivered,
                        back: back.into_tainted(),
                    });
                }
            }
            Ok(())
        });
        OpOutcome { ns, check }
    }

    fn traced_wire_bytes(&self) -> Option<u64> {
        Some(self.traced_wire)
    }

    fn replay(&mut self) -> Result<Replay, String> {
        let net = SimNet::new();
        let addr = NodeAddr::new([10, 0, 1, 2], 9100);
        let listener = net.tcp_listen(addr).map_err(|e| format!("listen: {e}"))?;
        let tx = net
            .tcp_connect_from([10, 0, 1, 1], addr)
            .map_err(|e| format!("connect: {e}"))?;
        let rx = listener.accept().map_err(|e| format!("accept: {e}"))?;
        let codec = self.codec();
        let samples = std::mem::take(&mut self.samples);
        let fresh = self.kind == WorkloadKind::CrossingFreshV2;
        let (a, b) = (self.a.clone(), self.b.clone());
        let mut r = Replay::default();
        for _ in 0..REPLAY_REPS {
            for s in &samples {
                self.replay_leg(
                    &mut r,
                    codec.as_ref(),
                    (&tx, &rx),
                    &a,
                    &b,
                    &s.request,
                    &s.delivered,
                    fresh,
                )?;
                let reply = std::slice::from_ref(&s.delivered);
                self.replay_leg(
                    &mut r,
                    codec.as_ref(),
                    (&rx, &tx),
                    &b,
                    &a,
                    reply,
                    &s.back,
                    false,
                )?;
            }
        }
        self.samples = samples;
        Ok(per_op(r, self.samples.len() * REPLAY_REPS))
    }

    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn shutdown(self: Box<Self>) {
        self.client.close();
        self.server.close();
        self.cluster.shutdown();
    }
}
