//! The daemon's error taxonomy (DESIGN.md §10): every error frame a
//! client can provoke carries one of the documented classes — the
//! message prefix before the first `:`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use lac_apps::serving::ServeApp;
use lac_core::ServingModel;
use lac_serve::{
    loadgen, serve, FrameEvent, FrameReader, Registry, Request, Response, ServerConfig,
    MAX_FRAME_LEN,
};

/// The error classes DESIGN.md §10 documents (`BUSY` is an opcode of
/// its own, not an error class).
const CLASSES: &[&str] = &[
    "malformed request",
    "overflow",
    "deadline",
    "panic",
    "shutdown",
    "debug",
    "swap",
    "unavailable",
    "inference",
];

/// Write `bytes` on a fresh connection and read back one response.
fn answer(port: u16, bytes: &[u8]) -> Response {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    stream.write_all(bytes).expect("send");
    let mut reader = FrameReader::new();
    let mut events = Vec::new();
    let mut buf = [0u8; 64 * 1024];
    loop {
        if let Some(event) = events.pop() {
            let FrameEvent::Frame(body) = event else { panic!("oversized response") };
            return Response::parse(&body).expect("parse response");
        }
        let n = stream.read(&mut buf).expect("read");
        assert!(n > 0, "daemon closed the connection");
        reader.push(&buf[..n], &mut events);
    }
}

#[test]
fn every_error_reply_carries_a_documented_class() {
    // Only inverse kinematics is loaded, so blur has no model.
    let registry = Arc::new(Registry::new());
    registry.swap(ServingModel::untrained(ServeApp::InverseK2j, "DRUM16-4").expect("model"));
    let server = serve(registry, ServerConfig::default(), 0).expect("bind ephemeral port");

    let infer = |kernel: u8, id: u64, values: Vec<f64>, deadline_us: Option<u64>| {
        Request::Infer { kernel, id, values, deadline_us }.encode().expect("encode")
    };
    let ik = ServeApp::InverseK2j.code();
    let path = std::env::temp_dir()
        .join(format!("lac-taxonomy-missing-{}.ck.json", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let swap_missing = Request::Swap { id: 5, path }.encode().expect("encode");
    let mut garbage = 3u32.to_le_bytes().to_vec();
    garbage.extend_from_slice(&[0xEE, 1, 2]);
    let cases = [
        ("garbage body", garbage, "malformed request"),
        ("unknown kernel", infer(42, 2, vec![0.0; 4], None), "malformed request"),
        ("bad payload", infer(ik, 3, vec![1.0; 3], None), "malformed request"),
        ("oversized header", (MAX_FRAME_LEN as u32 + 1).to_le_bytes().to_vec(), "overflow"),
        ("swap of a missing file", swap_missing, "swap"),
        ("refused DEBUG_PANIC", Request::DebugPanic { id: 6 }.encode().expect("encode"), "debug"),
        ("zero deadline", infer(ik, 7, vec![0.6, 0.3], Some(0)), "deadline"),
        (
            "kernel with no model",
            infer(ServeApp::Blur.code(), 8, loadgen::payload(ServeApp::Blur, 1, 8), None),
            "unavailable",
        ),
    ];
    for (what, bytes, expected) in cases {
        match answer(server.port(), &bytes) {
            Response::Error { message, .. } => {
                let class = message.split_once(':').map_or("", |(class, _)| class);
                assert!(CLASSES.contains(&class), "{what}: undocumented class in `{message}`");
                assert_eq!(class, expected, "{what}: `{message}`");
            }
            other => panic!("{what}: expected an error frame, got {other:?}"),
        }
    }
    server.shutdown();
    server.join();
}
