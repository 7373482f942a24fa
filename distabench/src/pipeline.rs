//! `pipeline_ingest`: a standing RocketMQ → HBase cluster (name server,
//! broker, producer and bridge; ZooKeeper ×3; HBase master, region
//! server and a reader). One thread steps every stage of each record in
//! order: mint `record:i` at the producer, `send`, the bridge's
//! `try_pull`, `HTable::put`, and the reader's `get`.

use std::time::Instant;

use dista_core::jre::{V2Codec, Vm, WireCodec};
use dista_core::simnet::{NodeAddr, SimNet};
use dista_core::taint::{MethodDesc, SourceSinkSpec, TagValue, Taint, TaintRuns, TaintedBytes};
use dista_core::{Cluster, Mode, WireProtocol};
use dista_hbase::{HMaster, HTable, RegionServer, HTABLE_CLASS};
use dista_obs::ObsConfig;
use dista_rocketmq::{
    BrokerServer, MqConsumer, MqProducer, NameServer, CONSUMER_CLASS, PRODUCER_CLASS,
};
use dista_zookeeper::{ZkClient, ZkEnsemble, ZkEnsembleConfig};

use crate::stats::Rng;
use crate::{
    bench_net, per_op, sig_of, timed, traced, OpOutcome, Replay, SetupPhases, SpanName, Tracer,
    Workload,
};

/// Topic the producer publishes to and the bridge consumes from.
pub const TOPIC: &str = "BenchTopic";
/// Table the bridge writes and the reader reads.
pub const TABLE: &str = "records";

/// Hops a record's bytes cross: producer→broker, broker→bridge,
/// bridge→region server, region server→reader.
const HOPS: usize = 4;

/// Pull attempts before a record counts as lost.
const MAX_PULLS: usize = 100;

/// Maps a node name to its system by the `system-role` naming.
pub fn system_of(node: &str) -> &str {
    match node.split_once('-').map(|(p, _)| p) {
        Some("mq") => "rocketmq",
        Some("hb") => "hbase",
        Some("zk") => "zookeeper",
        _ => node,
    }
}

fn spec() -> SourceSinkSpec {
    let mut spec = SourceSinkSpec::new();
    spec.add_source(MethodDesc::new(PRODUCER_CLASS, "createMessage"))
        .add_sink(MethodDesc::new(CONSUMER_CLASS, "consumeMessage"))
        .add_source(MethodDesc::new(HTABLE_CLASS, "tableName"))
        .add_sink(MethodDesc::new(HTABLE_CLASS, "getResult"));
    spec
}

/// A traced record kept for replay.
#[derive(Debug, Clone)]
struct Sample {
    body: Vec<u8>,
}

/// The standing pipeline.
pub struct Pipeline {
    seed: u64,
    cluster: Cluster,
    producer_vm: Vm,
    /// Receivers of the record's four hops, in order.
    hop_vms: Vec<Vm>,
    ns: NameServer,
    broker: BrokerServer,
    ensemble: ZkEnsemble,
    rs: RegionServer,
    master: HMaster,
    producer: MqProducer,
    consumer: MqConsumer,
    bridge_table: HTable,
    reader_table: HTable,
    last_record: Option<Taint>,
    pulls: u64,
    empty_pulls: u64,
    sample_cap: usize,
    samples: Vec<Sample>,
    replay_mints: u64,
}

fn vm(cluster: &Cluster, name: &str) -> Result<Vm, String> {
    cluster
        .vm_named(name)
        .cloned()
        .ok_or_else(|| format!("no node {name}"))
}

impl Pipeline {
    /// Stands the whole pipeline up and runs `warmup` records through
    /// it. `sample` records of the timed loop are kept for replay.
    ///
    /// # Errors
    ///
    /// Any stand-up call or warm-up record that fails.
    pub fn setup(
        seed: u64,
        warmup: u64,
        sample: usize,
        phases: &mut SetupPhases,
    ) -> Result<Self, String> {
        let t0 = Instant::now();
        let cluster = Cluster::builder(Mode::Dista)
            .node("mq-ns", [10, 0, 0, 1])
            .node("mq-broker", [10, 0, 0, 2])
            .node("mq-producer", [10, 0, 0, 3])
            .node("mq-bridge", [10, 0, 0, 4])
            .node("zk-1", [10, 0, 0, 5])
            .node("zk-2", [10, 0, 0, 6])
            .node("zk-3", [10, 0, 0, 7])
            .node("hb-master", [10, 0, 0, 8])
            .node("hb-rs1", [10, 0, 0, 9])
            .node("hb-reader", [10, 0, 0, 10])
            .spec(spec())
            .wire_protocol(WireProtocol::V2)
            .observability(ObsConfig::default())
            .net(bench_net())
            .build()
            .map_err(|e| format!("cluster build: {e}"))?;
        phases.core_build = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let (ns_vm, broker_vm) = (vm(&cluster, "mq-ns")?, vm(&cluster, "mq-broker")?);
        let (producer_vm, bridge_vm) = (vm(&cluster, "mq-producer")?, vm(&cluster, "mq-bridge")?);
        dista_rocketmq::seed_config(&broker_vm, "bench-broker");
        let ns = NameServer::start(&ns_vm, NodeAddr::new(ns_vm.ip(), 9876))
            .map_err(|e| format!("name server: {e}"))?;
        let broker =
            BrokerServer::start(&broker_vm, NodeAddr::new(broker_vm.ip(), 10911), &[TOPIC])
                .map_err(|e| format!("broker: {e}"))?;
        broker
            .register_with(ns.addr())
            .map_err(|e| format!("broker registration: {e}"))?;
        let producer = MqProducer::start(&producer_vm, ns.addr(), TOPIC)
            .map_err(|e| format!("producer: {e}"))?;
        let consumer = MqConsumer::start(&bridge_vm, ns.addr(), TOPIC)
            .map_err(|e| format!("consumer: {e}"))?;
        phases.rocketmq = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let zk_vms = vec![
            vm(&cluster, "zk-1")?,
            vm(&cluster, "zk-2")?,
            vm(&cluster, "zk-3")?,
        ];
        let ensemble = ZkEnsemble::start(&zk_vms, ZkEnsembleConfig::default())
            .map_err(|e| format!("zookeeper ensemble: {e}"))?;
        phases.zookeeper = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let (master_vm, rs_vm) = (vm(&cluster, "hb-master")?, vm(&cluster, "hb-rs1")?);
        let reader_vm = vm(&cluster, "hb-reader")?;
        let zk_addr = ensemble.any_client_addr();
        dista_hbase::seed_config(&rs_vm, "hb-rs1");
        let rs = RegionServer::start(&rs_vm, NodeAddr::new(rs_vm.ip(), 16020))
            .map_err(|e| format!("region server: {e}"))?;
        let zk = ZkClient::connect(&rs_vm, zk_addr).map_err(|e| format!("zk connect: {e:?}"))?;
        rs.register_in_zk(&zk, 0)
            .map_err(|e| format!("region server registration: {e}"))?;
        zk.close();
        let master = HMaster::start(&master_vm, zk_addr).map_err(|e| format!("master: {e:?}"))?;
        let servers = master
            .wait_for_region_servers(1)
            .map_err(|e| format!("master wait: {e}"))?;
        master
            .assign_tables(&[TABLE], &servers)
            .map_err(|e| format!("assign: {e}"))?;
        let bridge_table =
            HTable::open(&bridge_vm, zk_addr, TABLE).map_err(|e| format!("bridge table: {e}"))?;
        let reader_table =
            HTable::open(&reader_vm, zk_addr, TABLE).map_err(|e| format!("reader table: {e}"))?;
        phases.hbase = t0.elapsed().as_secs_f64();

        let mut p = Pipeline {
            seed,
            hop_vms: vec![broker_vm, bridge_vm, rs_vm, reader_vm],
            cluster,
            producer_vm,
            ns,
            broker,
            ensemble,
            rs,
            master,
            producer,
            consumer,
            bridge_table,
            reader_table,
            last_record: None,
            pulls: 0,
            empty_pulls: 0,
            sample_cap: 0,
            samples: Vec::new(),
            replay_mints: 0,
        };
        let t0 = Instant::now();
        for i in 0..warmup {
            p.op(i, None)
                .check
                .map_err(|e| format!("warm-up record {i}: {e}"))?;
        }
        phases.warmup = t0.elapsed().as_secs_f64();
        p.pulls = 0;
        p.empty_pulls = 0;
        p.sample_cap = sample;
        Ok(p)
    }

    fn body(&self, index: u64) -> Vec<u8> {
        let mut rng = Rng::for_op(self.seed, index);
        let len = rng.range(32, 224);
        let mut body = format!("record {index} ").into_bytes();
        body.extend(rng.bytes(len));
        body
    }
}

impl Workload for Pipeline {
    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn op(&mut self, index: u64, mut tracer: Option<&mut Tracer>) -> OpOutcome {
        let body = self.body(index);
        let tag = format!("record:{index}");
        let tag_value = TagValue::str(&tag);
        let row = format!("row{index:08}");
        let payload = body.clone();
        let started = Instant::now();
        let result = (|| {
            let taint = traced(&mut tracer, SpanName::Build, || {
                self.producer_vm
                    .source_point(PRODUCER_CLASS, "createMessage", tag_value)
            });
            let record = TaintedBytes::uniform(payload, taint);
            let sent = traced(&mut tracer, SpanName::MqSend, || {
                self.producer.send(TOPIC, record)
            })
            .map_err(|e| format!("send: {e}"))?;
            let mut msg = None;
            for _ in 0..MAX_PULLS {
                self.pulls += 1;
                match traced(&mut tracer, SpanName::MqPull, || self.consumer.try_pull())
                    .map_err(|e| format!("pull: {e}"))?
                {
                    Some(m) => {
                        msg = Some(m);
                        break;
                    }
                    None => self.empty_pulls += 1,
                }
            }
            let msg = msg.ok_or("record never reached the bridge")?;
            let pulled_id = msg.msg_id;
            let pulled_body = msg.body.clone();
            traced(&mut tracer, SpanName::HbPut, || {
                self.bridge_table.put(row.as_bytes(), msg.body)
            })
            .map_err(|e| format!("put: {e}"))?;
            let got = traced(&mut tracer, SpanName::HbGet, || {
                self.reader_table.get(row.as_bytes())
            })
            .map_err(|e| format!("get: {e}"))?;
            Ok::<_, String>((taint, sent, pulled_id, pulled_body, got))
        })();
        let ns = started.elapsed().as_nanos() as u64;
        let check = result.and_then(|(taint, sent, pulled_id, pulled_body, got)| {
            if pulled_id != sent {
                return Err(format!("bridge pulled message {pulled_id}, sent {sent}"));
            }
            if pulled_body.data() != body.as_slice() {
                return Err("bridge received different bytes".into());
            }
            if !got.found || got.cells.len() != 1 {
                return Err(format!("get found {} cells", got.cells.len()));
            }
            let value = &got.cells[0].value;
            if value.data() != body.as_slice() {
                return Err("reader got different bytes".into());
            }
            let expected = (TagValue::str(&tag), self.producer_vm.ip());
            let reader = &self.hop_vms[HOPS - 1];
            for (len, t) in value.shadow().iter_runs() {
                let sig = sig_of(reader.store(), t);
                let same = sig.len() == 1 && sig[0].0 == expected.0 && sig[0].1.ip() == expected.1;
                if !same {
                    return Err(format!("{len} B of the cell carry {sig:?}, expected {tag}"));
                }
            }
            // The sink sees exactly this record (plus the reader's own
            // table-name source, which tags every get).
            let records: Vec<String> = reader
                .store()
                .tag_values(got.taint)
                .into_iter()
                .filter(|t| t.starts_with("record:"))
                .collect();
            if records != [tag.clone()] {
                return Err(format!("get sink saw {records:?}, expected [{tag}]"));
            }
            self.last_record = Some(taint);
            if tracer.is_some() && self.samples.len() < self.sample_cap {
                self.samples.push(Sample { body });
            }
            Ok(())
        });
        OpOutcome { ns, check }
    }

    fn traced_wire_bytes(&self) -> Option<u64> {
        None
    }

    fn replay(&mut self) -> Result<Replay, String> {
        let net = SimNet::new();
        let addr = NodeAddr::new([10, 0, 1, 2], 9100);
        let listener = net.tcp_listen(addr).map_err(|e| format!("listen: {e}"))?;
        let tx = net
            .tcp_connect_from([10, 0, 1, 1], addr)
            .map_err(|e| format!("connect: {e}"))?;
        let rx = listener.accept().map_err(|e| format!("accept: {e}"))?;
        let codec = V2Codec::new(self.producer_vm.gid_width());
        let producer = self
            .producer_vm
            .taint_map()
            .ok_or("producer without client")?;
        let mut r = Replay::default();
        for s in &self.samples {
            let len = s.body.len();
            // taint: mint a never-seen record taint and build the body.
            let mut taint = Taint::EMPTY;
            let buffer = s.body.clone();
            let record = timed(&mut r.build, || {
                self.replay_mints += 1;
                taint = self
                    .producer_vm
                    .taint_source(TagValue::str(format!("replay:{}", self.replay_mints)));
                let mut shadow = TaintRuns::new();
                shadow.push_run(taint, len);
                TaintedBytes::from_runs(buffer, shadow)
            });
            // taintmap: one cold register, then one cold lookup per hop.
            let gids = timed(&mut r.register, || producer.global_ids_for(&[taint]))
                .map_err(|e| format!("register replay: {e}"))?;
            for hop in &self.hop_vms {
                let client = hop.taint_map().ok_or("hop without client")?;
                let taints = timed(&mut r.lookup, || client.taints_for(&gids))
                    .map_err(|e| format!("lookup replay: {e}"))?;
                let shadow = timed(&mut r.build, || {
                    let mut shadow = TaintRuns::new();
                    shadow.push_run(taints[0], len);
                    shadow
                });
                r.runs += shadow.num_runs() as f64;
            }
            // codec and simnet: the body crosses each hop once.
            let table = [(len, gids[0])];
            let mut wire = Vec::new();
            let (mut data, mut runs) = (Vec::new(), Vec::new());
            let mut buf = Vec::new();
            for _ in 0..HOPS {
                timed(&mut r.encode, || {
                    codec.encode_into(record.data(), &table, &mut wire)
                })
                .map_err(|e| format!("encode replay: {e}"))?;
                timed(&mut r.decode, || {
                    codec.decode_available(&wire, len, &mut data, &mut runs)
                })
                .map_err(|e| format!("decode replay: {e}"))?;
                timed(&mut r.net_write, || tx.write(&wire))
                    .map_err(|e| format!("net write: {e}"))?;
                buf.resize(wire.len(), 0);
                timed(&mut r.net_read, || rx.read_exact(&mut buf))
                    .map_err(|e| format!("net read: {e}"))?;
            }
        }
        Ok(per_op(r, self.samples.len()))
    }

    fn pulls(&self) -> (u64, u64) {
        (self.empty_pulls, self.pulls)
    }

    fn finish(&mut self) -> Result<(), String> {
        let taint = self.last_record.ok_or("no record completed")?;
        let gid = self
            .producer_vm
            .taint_map()
            .and_then(|c| c.cached_gid_for(taint))
            .ok_or("last record never registered a gid")?;
        let trace = self.cluster.provenance_stitched(gid.0);
        if !trace.exact {
            return Err(format!("provenance of gid {} is not exact on v2", gid.0));
        }
        let mut systems: Vec<&str> = trace.nodes().into_iter().map(system_of).collect();
        systems.dedup();
        let at = |name| systems.iter().position(|s| *s == name);
        match (at("rocketmq"), at("hbase")) {
            (Some(mq), Some(hb)) if mq < hb => {}
            _ => {
                return Err(format!(
                    "last record's provenance runs {systems:?}, not rocketmq → hbase"
                ))
            }
        }
        Ok(())
    }

    fn shutdown(self: Box<Self>) {
        let p = *self;
        p.producer.close();
        p.consumer.close();
        p.bridge_table.close();
        p.reader_table.close();
        p.master.shutdown();
        p.rs.shutdown();
        p.ensemble.shutdown();
        p.broker.shutdown();
        p.ns.shutdown();
        p.cluster.shutdown();
    }
}
