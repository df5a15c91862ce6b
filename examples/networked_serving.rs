//! Networked serving: run a `gcond` server in-process, persist its store,
//! restart from the file at O(open) cost, and query it over TCP with
//! `GconClient` — bitwise identical to in-process inference.
//!
//! ```text
//! cargo run --release --example networked_serving
//! ```

use gcon::prelude::*;
use gcon::serve::{GconClient, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    // 1. Train and freeze a store, exactly as the in-process example does.
    let dataset = gcon::datasets::two_moons_graph(42);
    let mut rng = StdRng::seed_from_u64(0);
    let model = train_gcon(
        &GconConfig::default(),
        &dataset.graph,
        &dataset.features,
        &dataset.labels,
        &dataset.split.train,
        dataset.num_classes,
        2.0,
        dataset.default_delta(),
        &mut rng,
    );
    let t = Instant::now();
    let built = ServingModel::build(&model, &dataset.graph, &dataset.features, ServingMode::Public);
    println!("ServingModel::build (full propagation): {:?}", t.elapsed());

    // 2. Persist the store and restart from the file: the reload does no
    //    propagation at all, so it is orders of magnitude cheaper.
    let path = std::env::temp_dir().join("networked_serving_example.gconstore");
    built.save(&path).expect("saving store");
    let t = Instant::now();
    let store = ServingModel::load(&path).expect("loading store");
    println!("ServingModel::load (O(open) restart):   {:?}", t.elapsed());
    assert_eq!(
        store.store_f64().unwrap().as_slice(),
        built.store_f64().unwrap().as_slice(),
        "the restored store is bitwise the built one"
    );

    // 3. Serve it on an ephemeral loopback port.
    let server = Server::bind(&store, ServerConfig::default(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    std::thread::scope(|scope| {
        scope.spawn(|| server.run().expect("server run"));

        // 4. Handshake: the server announces what it serves.
        let mut client = GconClient::connect(addr).expect("connect");
        let info = *client.info();
        println!(
            "connected to {addr}: {} nodes, {} classes, {:?}/{:?} store",
            info.nodes, info.classes, info.mode, info.dtype
        );

        // 5. Remote answers are bitwise the local ones — single queries and
        //    a streamed bulk query alike.
        let reference = public_predict(&model, &dataset.graph, &dataset.features);
        for node in [3u64, 141, 59] {
            let logits = client.logits(node).expect("query");
            assert_eq!(logits, store.logits(node as usize));
            assert_eq!(
                gcon::linalg::vecops::argmax(&logits),
                reference[node as usize],
                "remote answer equals one-shot inference"
            );
        }
        let nodes: Vec<u64> = (0..info.nodes).collect();
        let t = Instant::now();
        let bulk = client.logits_bulk(&nodes).expect("bulk query");
        println!("bulk-queried all {} nodes over TCP in {:?}", nodes.len(), t.elapsed());
        for (i, &node) in nodes.iter().enumerate() {
            assert_eq!(bulk.row(i), store.logits(node as usize).as_slice());
        }

        // 6. Health + stats come over the same wire.
        assert!(client.health().expect("health"), "server is healthy");
        let stats = client.stats().expect("stats");
        println!(
            "server stats: {} node rows answered ({} single-node forwards), {} rejected",
            stats.requests, stats.batches, stats.rejected_overload
        );
        client.bye().expect("bye");
        handle.stop();
    });
    std::fs::remove_file(&path).ok();
    println!("server stopped cleanly");
}
