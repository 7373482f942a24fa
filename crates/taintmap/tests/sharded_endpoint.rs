//! End-to-end tests for the sharded, batched Taint Map deployment:
//! batched registration and lookup must keep working while shard
//! primaries are killed and clients fail over to standbys (§IV), and
//! replication must stay per-shard.

use dista_simnet::SimNet;
use dista_taint::{GlobalId, LocalId, TagValue, Taint, TaintStore};
use dista_taintmap::TaintMapEndpoint;

fn store(host: u8) -> TaintStore {
    TaintStore::new(LocalId::new([10, 0, 0, host], host as u32))
}

#[test]
fn batched_roundtrip_across_four_shards() {
    let net = SimNet::new();
    let endpoint = TaintMapEndpoint::builder().shards(4).connect(&net).unwrap();
    let store1 = store(1);
    let client1 = endpoint.client(&net, store1.clone()).unwrap();

    let taints: Vec<Taint> = (0..64)
        .map(|i| store1.mint_source_taint(TagValue::Int(i)))
        .collect();
    let gids = client1.global_ids_for(&taints).unwrap();
    assert!(gids.iter().all(|g| g.is_tainted()));

    // One logical batch, at most one frame per shard.
    assert!(client1.stats().batch_frames <= 4);
    assert_eq!(client1.stats().register_rpcs, 64);

    let store2 = store(2);
    let client2 = endpoint.client(&net, store2.clone()).unwrap();
    let resolved = client2.taints_for(&gids).unwrap();
    for (i, taint) in resolved.iter().enumerate() {
        assert_eq!(store2.tag_values(*taint), vec![i.to_string()]);
    }
    assert_eq!(endpoint.stats().global_taints, 64);
    endpoint.shutdown();
}

#[test]
fn batched_register_survives_primary_kill_mid_batch() {
    let net = SimNet::new();
    let mut endpoint = TaintMapEndpoint::builder()
        .shards(4)
        .standby(true)
        .connect(&net)
        .unwrap();
    let store1 = store(1);
    let client = endpoint.client(&net, store1.clone()).unwrap();

    // Warm every shard connection and replicate some state.
    let warm: Vec<Taint> = (0..16)
        .map(|i| store1.mint_source_taint(TagValue::Int(i)))
        .collect();
    let warm_gids = client.global_ids_for(&warm).unwrap();

    // Kill two shard primaries. The client's connections to them are now
    // dead mid-stream; the next batch must redial the standbys and
    // resend (register is dedup-idempotent, so the replay is safe).
    endpoint.kill_primary(0);
    endpoint.kill_primary(2);

    let fresh: Vec<Taint> = (100..132)
        .map(|i| store1.mint_source_taint(TagValue::Int(i)))
        .collect();
    let gids = client.global_ids_for(&fresh).unwrap();
    assert!(gids.iter().all(|g| g.is_tainted()));
    assert!(
        client.stats().failovers >= 1,
        "batch must have failed over to a standby"
    );

    // Old and new ids all resolve through the surviving topology.
    let store2 = store(2);
    let client2 = endpoint.client(&net, store2.clone()).unwrap();
    let all: Vec<GlobalId> = warm_gids.iter().chain(&gids).copied().collect();
    let resolved = client2.taints_for(&all).unwrap();
    assert_eq!(resolved.len(), 48);
    for (k, taint) in resolved.iter().enumerate() {
        let expect = if k < 16 { k as i64 } else { 84 + k as i64 };
        assert_eq!(store2.tag_values(*taint), vec![expect.to_string()]);
    }
    endpoint.shutdown();
}

#[test]
fn batched_lookup_survives_primary_kill_mid_batch() {
    let net = SimNet::new();
    let mut endpoint = TaintMapEndpoint::builder()
        .shards(3)
        .standby(true)
        .connect(&net)
        .unwrap();
    let store1 = store(1);
    let client1 = endpoint.client(&net, store1.clone()).unwrap();
    let taints: Vec<Taint> = (0..24)
        .map(|i| store1.mint_source_taint(TagValue::Int(i)))
        .collect();
    let gids = client1.global_ids_for(&taints).unwrap();

    // A second VM connects (dialing primaries), then every primary dies.
    let store2 = store(2);
    let client2 = endpoint.client(&net, store2.clone()).unwrap();
    for i in 0..3 {
        endpoint.kill_primary(i);
    }

    // The whole batched lookup lands on standbys, which must serve the
    // replicated taints (lookups are read-only, so replay is safe).
    let resolved = client2.taints_for(&gids).unwrap();
    for (i, taint) in resolved.iter().enumerate() {
        assert_eq!(store2.tag_values(*taint), vec![i.to_string()]);
    }
    assert!(client2.stats().failovers >= 3);
    endpoint.shutdown();
}

#[test]
fn replication_stays_per_shard() {
    // A standby must end up with exactly its own shard's taints — the
    // partitioned namespace means a foreign gid never replicates in.
    let net = SimNet::new();
    let endpoint = TaintMapEndpoint::builder()
        .shards(2)
        .standby(true)
        .connect(&net)
        .unwrap();
    let store1 = store(1);
    let client = endpoint.client(&net, store1.clone()).unwrap();
    let taints: Vec<Taint> = (0..20)
        .map(|i| store1.mint_source_taint(TagValue::Int(i)))
        .collect();
    let gids = client.global_ids_for(&taints).unwrap();

    for shard in 0..2 {
        let expected = gids
            .iter()
            .filter(|g| (g.0 - 1) % 2 == shard as u32)
            .count() as u64;
        assert_eq!(
            endpoint.shard(shard).stats().global_taints,
            expected,
            "shard {shard} primary holds exactly its residue class"
        );
        assert_eq!(
            endpoint.standby(shard).unwrap().stats().global_taints,
            expected,
            "shard {shard} standby replicated exactly its residue class"
        );
    }
    endpoint.shutdown();
}

#[test]
fn a_dead_shard_leaves_no_unread_reply_on_a_live_one() {
    // A lookup spanning a live and a dead shard fails, but the live
    // shard's reply must still be read off its kept-open connection:
    // otherwise the next request there reads the stale reply and
    // resolves to the wrong taint.
    let net = SimNet::new();
    let mut endpoint = TaintMapEndpoint::builder().shards(2).connect(&net).unwrap();
    let store1 = store(1);
    let writer = endpoint.client(&net, store1.clone()).unwrap();
    let taints: Vec<Taint> = (0..16)
        .map(|i| store1.mint_source_taint(TagValue::Int(i)))
        .collect();
    let gids = writer.global_ids_for(&taints).unwrap();
    let on_shard = |class: u32| {
        gids.iter()
            .enumerate()
            .filter(move |(_, g)| (g.0 - 1) % 2 == class)
    };
    let mut live = on_shard(0);
    let (_, &first) = live.next().unwrap();
    let (second_idx, &second) = live.next().unwrap();
    let (_, &dead) = on_shard(1).next().unwrap();

    let store2 = store(2);
    let reader = endpoint.client(&net, store2.clone()).unwrap();
    endpoint.crash_primary(1);
    assert!(reader.taints_for(&[first, dead]).is_err());
    let got = reader.taints_for(&[second]).unwrap();
    assert_eq!(store2.tag_values(got[0]), vec![second_idx.to_string()]);
    endpoint.shutdown();
}

#[test]
fn moved_redirects_converge_without_tripping_the_breaker() {
    // A client whose shard map predates a split keeps operating: the
    // servers answer its stale epoch stamp with `StaleEpoch`, the client
    // refetches the new table and retries — and the breaker counts those
    // well-formed redirects as successes, never as failures. A redirect
    // storm must not open a healthy shard's circuit. (`Moved` on a
    // stamped frame needs a server that missed a table update; the
    // client's unit tests cover it.)
    let net = SimNet::new();
    let mut endpoint = TaintMapEndpoint::builder().shards(2).connect(&net).unwrap();
    let store1 = store(1);
    let client1 = endpoint.client(&net, store1.clone()).unwrap();
    let taints: Vec<Taint> = (0..32)
        .map(|i| store1.mint_source_taint(TagValue::Int(i)))
        .collect();
    let gids = client1.global_ids_for(&taints).unwrap();

    // Two cold-cache clients connect before the splits, so both hold an
    // epoch-0 shard map with nothing memoized.
    let store2 = store(2);
    let unbatched = endpoint.client(&net, store2.clone()).unwrap();
    let store3 = store(3);
    let batched = endpoint.client(&net, store3.clone()).unwrap();

    endpoint.split_shard(0).unwrap();
    endpoint.split_shard(1).unwrap();

    // A single-item lookup of a migrated gid is a batch of one stamped
    // with epoch 0: the old owner rejects it as stale, the client
    // refetches the table, and the retry hits the new tail.
    let top = *gids.iter().max_by_key(|g| g.0).unwrap();
    let idx = gids.iter().position(|g| *g == top).unwrap();
    let t = unbatched.taint_for(top).unwrap();
    assert_eq!(store2.tag_values(t), vec![idx.to_string()]);

    // Batched lookups carry the stale epoch stamp and get a
    // `StaleEpoch` refetch before converging on correct answers.
    let resolved = batched.taints_for(&gids).unwrap();
    for (i, &t) in resolved.iter().enumerate() {
        assert_eq!(store3.tag_values(t), vec![i.to_string()]);
    }

    let single = unbatched.stats();
    assert!(
        single.epoch_refetches >= 1,
        "the old owner rejected the stale stamp: {single:?}"
    );
    let stale = batched.stats();
    assert!(
        stale.epoch_refetches >= 1,
        "the stale epoch stamp forced a table refetch: {stale:?}"
    );
    for stats in [single, stale] {
        assert_eq!(
            stats.breaker_opens, 0,
            "redirects are successes, not breaker failures"
        );
        assert_eq!(stats.failovers, 0, "no shard was ever unreachable");
    }
    endpoint.shutdown();
}

#[test]
fn unbatched_and_batched_paths_agree() {
    // A single-item call is a batch of one on the same op as a batch
    // (the measured unbatched baseline); both call shapes must hand out
    // consistent ids.
    let net = SimNet::new();
    let endpoint = TaintMapEndpoint::builder().shards(4).connect(&net).unwrap();
    let store1 = store(1);
    let client = endpoint.client(&net, store1.clone()).unwrap();

    let a = store1.mint_source_taint(TagValue::str("a"));
    let b = store1.mint_source_taint(TagValue::str("b"));
    let gid_a = client.global_id_for(a).unwrap(); // batch of one

    let store2 = store(2);
    let fresh_client = endpoint.client(&net, store2.clone()).unwrap();
    // Resolve through the *other* VM so no cache is involved, then
    // re-register the same logical taint via the batched path.
    let a2 = fresh_client.taint_for(gid_a).unwrap();
    let b2 = {
        let gid_b = client.global_ids_for(&[b]).unwrap()[0]; // batched
        fresh_client.taint_for(gid_b).unwrap()
    };
    let re = fresh_client.global_ids_for(&[a2, b2]).unwrap();
    assert_eq!(
        re[0], gid_a,
        "batched re-register dedups with a batch of one"
    );
    assert_eq!(endpoint.stats().global_taints, 2);
    endpoint.shutdown();
}
