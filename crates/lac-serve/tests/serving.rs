//! End-to-end tests of the serving daemon over real TCP connections:
//! smoke round-trips for every kernel, serving determinism across
//! worker counts and batch sizes, checkpoint hot-swap, and
//! malformed-input resilience.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use lac_apps::serving::ServeApp;
use lac_core::{SessionCheckpoint, ServingModel, TrainSession};
use lac_hw::catalog;
use lac_serve::{
    loadgen, serve, Client, Registry, Request, Response, RunningServer, ServerConfig,
};

/// A registry with an untrained model in every slot.
fn full_registry(spec: &str) -> Arc<Registry> {
    let registry = Arc::new(Registry::new());
    for app in ServeApp::ALL {
        registry.swap(ServingModel::untrained(app, spec).expect(app.cli_id()));
    }
    registry
}

fn start(registry: Arc<Registry>, workers: usize, max_batch: usize) -> RunningServer {
    let cfg = ServerConfig {
        workers,
        max_batch,
        linger: Duration::from_micros(200),
        ..ServerConfig::default()
    };
    serve(registry, cfg, 0).expect("bind ephemeral port")
}

fn connect(server: &RunningServer) -> Client {
    let client = Client::connect(server.port()).expect("connect");
    client.set_timeout(Some(lac_serve::DEFAULT_CLIENT_TIMEOUT)).expect("timeout");
    client
}

/// Write a fresh (untrained-coefficients) checkpoint for `app` on `spec`.
fn write_checkpoint(dir: &std::path::Path, name: &str, app: ServeApp, spec: &str) -> PathBuf {
    let kernel = app.build();
    let unit = catalog::by_spec(spec).expect("spec resolves");
    let mults = vec![kernel.adapt(&unit)];
    let session = TrainSession::new(kernel.init_coeffs(&mults), 0.5);
    let ck = SessionCheckpoint::capture(&session, 0, 0, &[]).with_model(app.kernel_name(), spec);
    let path = dir.join(name);
    ck.save(&path).expect("save checkpoint");
    path
}

fn tmp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lac-serve-test-{label}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

#[test]
fn smoke_every_kernel_round_trips_and_shuts_down() {
    let server = start(full_registry("mul8u_FTA"), 2, 8);
    let mut client = connect(&server);

    match client.round_trip(&Request::Ping { id: 9 }).unwrap() {
        Response::Pong { id, health } => {
            assert_eq!(id, 9);
            assert_eq!(health.modes.len(), ServeApp::ALL.len(), "all slots published");
        }
        other => panic!("expected pong, got {other:?}"),
    }

    for (i, app) in ServeApp::ALL.into_iter().enumerate() {
        let id = 100 + i as u64;
        let values = loadgen::payload(app, 1, i as u64);
        let req = Request::Infer { kernel: app.code(), id, values, deadline_us: None };
        match client.round_trip(&req).unwrap() {
            Response::Infer { id: rid, values } => {
                assert_eq!(rid, id, "{}", app.cli_id());
                assert_eq!(values.len(), app.output_len(), "{}", app.cli_id());
                assert!(values.iter().all(|v| v.is_finite()), "{}", app.cli_id());
            }
            other => panic!("{}: expected infer reply, got {other:?}", app.cli_id()),
        }
    }

    match client.round_trip(&Request::Shutdown { id: 1 }).unwrap() {
        Response::Bye { id } => assert_eq!(id, 1),
        other => panic!("expected bye, got {other:?}"),
    }
    server.join(); // graceful: all threads exit after SHUTDOWN
}

/// The same recorded arrival order must produce byte-identical
/// responses for any worker count and any max batch size.
#[test]
fn responses_are_identical_for_any_workers_and_batch() {
    // One recorded arrival order: interleaved kernels, varied payloads.
    let arrivals: Vec<(ServeApp, u64)> = (0..24)
        .map(|i| {
            let app = match i % 4 {
                0 => ServeApp::Blur,
                1 => ServeApp::InverseK2j,
                2 => ServeApp::Jpeg,
                _ => ServeApp::Blur,
            };
            (app, i as u64)
        })
        .collect();

    let mut baseline: Option<BTreeMap<u64, Vec<u8>>> = None;
    for (workers, max_batch) in [(1, 1), (2, 8), (4, 32)] {
        let server = start(full_registry("ETM8-k4"), workers, max_batch);
        let mut client = connect(&server);
        // Pipeline the whole recorded order through one connection so
        // the queue sees the same arrival sequence every run.
        for &(app, n) in &arrivals {
            let values = loadgen::payload(app, 7, n);
            client
                .send(&Request::Infer { kernel: app.code(), id: n, values, deadline_us: None })
                .unwrap();
        }
        let mut responses = BTreeMap::new();
        for _ in 0..arrivals.len() {
            match client.recv().unwrap() {
                Response::Infer { id, values } => {
                    let bytes = Response::Infer { id, values }.encode().expect("encode");
                    assert!(responses.insert(id, bytes).is_none(), "duplicate id {id}");
                }
                other => panic!("w{workers}/b{max_batch}: unexpected {other:?}"),
            }
        }
        // Slots are released before answers are sent, so a drained
        // connection has nothing left in flight.
        assert_eq!(server.in_flight(), 0, "w{workers}/b{max_batch}: leaked an in-flight slot");
        server.shutdown();
        server.join();

        match &baseline {
            None => baseline = Some(responses),
            Some(want) => assert_eq!(
                want, &responses,
                "responses changed between configs at w{workers}/b{max_batch}"
            ),
        }
    }
}

#[test]
fn hot_swap_serves_new_model_without_dropping_connections() {
    let dir = tmp_dir("swap");
    let first = write_checkpoint(&dir, "blur-etm.ck.json", ServeApp::Blur, "ETM8-k4");
    let second = write_checkpoint(&dir, "blur-fta.ck.json", ServeApp::Blur, "mul8u_FTA");

    let registry = Arc::new(Registry::new());
    registry.swap(ServingModel::load(&first).expect("load first"));
    let server = start(Arc::clone(&registry), 2, 8);
    let mut client = connect(&server);

    let payload = loadgen::payload(ServeApp::Blur, 3, 0);
    let infer = |client: &mut Client, id: u64| {
        let req = Request::Infer {
            kernel: ServeApp::Blur.code(),
            id,
            values: payload.clone(),
            deadline_us: None,
        };
        match client.round_trip(&req).unwrap() {
            Response::Infer { id: rid, values } => {
                assert_eq!(rid, id);
                values
            }
            other => panic!("expected infer reply, got {other:?}"),
        }
    };

    let before = infer(&mut client, 1);

    // An in-flight resolve taken before the swap keeps answering on the
    // old model even after the swap lands.
    let held = registry.resolve(ServeApp::Blur).expect("published");

    let swap = Request::Swap { id: 2, path: second.to_string_lossy().into_owned() };
    match client.round_trip(&swap).unwrap() {
        Response::Swapped { id, kernel } => {
            assert_eq!(id, 2);
            assert_eq!(kernel, ServeApp::Blur.code());
        }
        other => panic!("expected swapped, got {other:?}"),
    }

    // Same connection, same payload, new model: ETM8-k4 and mul8u_FTA
    // have different error profiles, so the output changes.
    let after = infer(&mut client, 3);
    assert_ne!(before, after, "swap should change the serving model's output");

    // The held (pre-swap) Arc still computes the old answer: in-flight
    // batches complete on the model they started with.
    let sample = ServeApp::Blur.decode(&payload).unwrap();
    let old_out = held.infer(std::slice::from_ref(&sample), 1).unwrap();
    assert_eq!(old_out[0], before);
    assert_eq!(held.mult_spec(), "ETM8-k4");
    assert_eq!(registry.resolve(ServeApp::Blur).unwrap().mult_spec(), "mul8u_FTA");

    // Swapping to a checkpoint whose spec no longer resolves is a
    // structured error naming the spec and the file — connection lives.
    let text = std::fs::read_to_string(&second).unwrap();
    let broken = dir.join("blur-gone.ck.json");
    std::fs::write(&broken, text.replace("\"mult\":\"mul8u_FTA\"", "\"mult\":\"mul9u_GONE\""))
        .unwrap();
    let swap = Request::Swap { id: 4, path: broken.to_string_lossy().into_owned() };
    match client.round_trip(&swap).unwrap() {
        Response::Error { id, message } => {
            assert_eq!(id, 4);
            assert!(
                message.contains("mul9u_GONE") && message.contains("blur-gone.ck.json"),
                "error should name spec and file: {message}"
            );
        }
        other => panic!("expected error, got {other:?}"),
    }
    let still = infer(&mut client, 5);
    assert_eq!(still, after, "failed swap must not disturb the published model");

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_requests_get_error_frames_not_disconnects() {
    let server = start(full_registry("mul8u_FTA"), 1, 4);
    let mut client = connect(&server);

    // Unknown kernel code.
    let req = Request::Infer { kernel: 42, id: 1, values: vec![0.0; 4], deadline_us: None };
    match client.round_trip(&req).unwrap() {
        Response::Error { id, message } => {
            assert_eq!(id, 1);
            assert!(message.contains("kernel"), "{message}");
        }
        other => panic!("expected error, got {other:?}"),
    }

    // Wrong payload length.
    let req = Request::Infer {
        kernel: ServeApp::Blur.code(),
        id: 2,
        values: vec![1.0; 3],
        deadline_us: None,
    };
    match client.round_trip(&req).unwrap() {
        Response::Error { id, message } => {
            assert_eq!(id, 2);
            assert!(message.contains("1024"), "{message}");
        }
        other => panic!("expected error, got {other:?}"),
    }

    // Out-of-range pixels.
    let req = Request::Infer {
        kernel: ServeApp::Blur.code(),
        id: 3,
        values: vec![-5.0; 1024],
        deadline_us: None,
    };
    match client.round_trip(&req).unwrap() {
        Response::Error { id, .. } => assert_eq!(id, 3),
        other => panic!("expected error, got {other:?}"),
    }

    // Unreachable inverse-kinematics target.
    let req = Request::Infer {
        kernel: ServeApp::InverseK2j.code(),
        id: 4,
        values: vec![5.0, 5.0],
        deadline_us: None,
    };
    match client.round_trip(&req).unwrap() {
        Response::Error { id, message } => {
            assert_eq!(id, 4);
            assert!(message.contains("reachable"), "{message}");
        }
        other => panic!("expected error, got {other:?}"),
    }

    // The connection survived all of it.
    match client.round_trip(&Request::Ping { id: 5 }).unwrap() {
        Response::Pong { id, .. } => assert_eq!(id, 5),
        other => panic!("expected pong, got {other:?}"),
    }

    server.shutdown();
    server.join();
}

#[test]
fn loadgen_reports_full_completion() {
    let server = start(full_registry("mul8u_FTA"), 2, 8);
    let report = loadgen::run_loadgen(&loadgen::LoadgenConfig {
        port: server.port(),
        app: ServeApp::InverseK2j,
        requests: 40,
        conns: 3,
        window: 8,
        seed: 11,
        timeout: lac_serve::DEFAULT_CLIENT_TIMEOUT,
    })
    .expect("loadgen run");
    assert_eq!(report.completed, 40);
    assert_eq!(report.errors, 0);
    assert!(report.p99_us >= report.p50_us);
    assert!(report.throughput_rps > 0.0);
    server.shutdown();
    server.join();
}

/// Regression: a connection accepted just before `shutdown()` used to
/// register its outbox after `join()` had already closed every
/// registered one, so its reader waited on its writer forever and
/// `join()` on the reader. Races many connect → shutdown → join rounds
/// against a watchdog; the server's unit tests force that exact
/// interleaving.
#[test]
fn join_returns_when_connections_race_shutdown() {
    const ROUNDS: usize = 60;
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let rounds = std::thread::spawn(move || {
        for round in 0..ROUNDS {
            let server = start(Arc::new(Registry::new()), 1, 4);
            let port = server.port();
            let connector = std::thread::spawn(move || {
                (0..4)
                    .filter_map(|_| std::net::TcpStream::connect(("127.0.0.1", port)).ok())
                    .collect::<Vec<_>>()
            });
            // Vary where shutdown lands among the accepts.
            (0..round % 4).for_each(|_| std::thread::yield_now());
            server.shutdown();
            // Peers stay open until the server has joined, so their
            // readers exit on the stop flag rather than on EOF.
            let peers = connector.join().expect("connector");
            server.join();
            drop(peers);
        }
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(120))
        .expect("RunningServer::join hung on a connection that raced shutdown");
    rounds.join().expect("connect/shutdown rounds");
}
