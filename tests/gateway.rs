//! End-to-end test of the HTTP/JSON gateway: a real serve backend, a
//! real gateway in front of it, and raw HTTP/1.1 over loopback TCP —
//! the same path a `curl` user takes.

use staq_serve::gateway::{gateway, GatewayConfig};
use staq_serve::presets::CityPreset;
use staq_serve::ServerConfig;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Minimal HTTP/1.1 client: one fresh connection per request,
/// `Connection: close`, returns (status, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect gateway");
    let body = body.unwrap_or("");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).expect("send request");
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("UTF-8 response");
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {text:?}"));
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

#[test]
fn queries_round_trip_through_http_json() {
    let engine = CityPreset::Test.engine(0.05, 42);
    let mut server = staq_serve::serve(
        engine,
        &ServerConfig { addr: "127.0.0.1:0".into(), workers: 4, ..Default::default() },
    )
    .expect("bind backend");
    let gw = gateway(server.addr(), &GatewayConfig::default()).expect("bind gateway");
    let addr = gw.addr();

    // Liveness never touches the backend.
    let (status, body) = http(addr, "GET", "/healthz", None);
    assert_eq!((status, body.trim()), (200, r#"{"ok":true}"#));

    // A mean-access query comes back as tagged JSON with real numbers.
    let (status, body) = http(
        addr,
        "POST",
        "/v1/query",
        Some(r#"{"category":"school","query":{"kind":"mean_access"}}"#),
    );
    assert_eq!(status, 200, "query failed: {body}");
    assert!(body.contains(r#""kind":"mean_access""#), "tagged answer: {body}");
    assert!(body.contains(r#""mean_mac":"#) && body.contains(r#""n_zones":"#), "{body}");

    // Worst-zones with a parameter.
    let (status, body) = http(
        addr,
        "POST",
        "/v1/query",
        Some(r#"{"category":"school","query":{"kind":"worst_zones","k":3},"approx":false}"#),
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#""kind":"worst_zones""#), "{body}");

    // Measures as a GET (also exercises query-param parsing).
    let (status, body) = http(addr, "GET", "/v1/measures?category=school", None);
    assert_eq!(status, 200, "{body}");
    assert!(body.starts_with('[') && body.contains(r#""mac":"#), "{body}");

    // Stats reflect the traffic the gateway itself generated.
    let (status, body) = http(addr, "GET", "/v1/stats", None);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#""pipeline_runs":1"#), "one cold category: {body}");
    assert!(body.contains(r#""cached":["school"]"#), "{body}");

    // A trip plan over HTTP.
    let (status, body) = http(
        addr,
        "POST",
        "/v1/plan",
        Some(
            r#"{"origin":{"x":1000,"y":1000},"dest":{"x":4000,"y":4000},
               "depart":28800,"day":"monday"}"#,
        ),
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#""journeys":["#), "{body}");

    // Bad inputs are rejected by the gateway with 400s, not forwarded.
    let (status, body) = http(addr, "POST", "/v1/query", Some(r#"{"category":"temple"}"#));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains(r#""error":"#), "{body}");
    let (status, _) = http(addr, "POST", "/v1/query", Some("{not json"));
    assert_eq!(status, 400);
    let (status, _) = http(
        addr,
        "POST",
        "/v1/query",
        Some(r#"{"category":"school","query":{"kind":"telepathy"}}"#),
    );
    assert_eq!(status, 400);

    // Unknown routes and wrong methods.
    assert_eq!(http(addr, "GET", "/v2/query", None).0, 404);
    assert_eq!(http(addr, "GET", "/v1/query", None).0, 405);

    // An edit through the gateway invalidates the cache like a native one.
    let (status, body) =
        http(addr, "POST", "/v1/poi", Some(r#"{"category":"school","x":2000,"y":2000}"#));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#""poi_id":"#), "{body}");
    let (_, body) = http(addr, "GET", "/v1/stats", None);
    assert!(body.contains(r#""cached":[]"#), "edit must drop the cache: {body}");

    server.shutdown();

    // With the backend gone, the gateway answers 5xx instead of hanging.
    let (status, body) = http(
        addr,
        "POST",
        "/v1/query",
        Some(r#"{"category":"school","query":{"kind":"mean_access"},"deadline_ms":2000}"#),
    );
    assert!(
        (500..=599).contains(&status),
        "dead backend must surface as a 5xx, got {status}: {body}"
    );
}

#[test]
fn hostile_bodies_are_400s_and_approx_changes_no_answer() {
    let engine = CityPreset::Test.engine(0.05, 42);
    let mut server = staq_serve::serve(
        engine,
        &ServerConfig { addr: "127.0.0.1:0".into(), workers: 2, ..Default::default() },
    )
    .expect("bind backend");
    let gw = gateway(server.addr(), &GatewayConfig::default()).expect("bind gateway");
    let addr = gw.addr();

    // 100 000 nested arrays: one parser frame per level would overflow
    // the HTTP worker's stack and abort every thread in this process.
    let (status, body) = http(addr, "POST", "/v1/query", Some(&"[".repeat(100_000)));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nesting too deep"), "{body}");
    assert_eq!(http(addr, "GET", "/healthz", None).0, 200, "the gateway outlives the body");

    // `1e999` parses to infinity, and no zone is nearest to it.
    let (status, body) = http(
        addr,
        "POST",
        "/v1/query",
        Some(r#"{"category":"school","query":{"kind":"point_access","x":1e999,"y":300}}"#),
    );
    assert_eq!(status, 400, "{body}");

    // A number outside its wire field is refused by name, not cast: -60
    // would plan from 00:00, 300 transfers would become 255, a -5 ms
    // deadline would become a zero budget (504), and k = 2^32 would
    // truncate to 0 zones.
    let plan = r#""origin":{"x":1000,"y":1000},"dest":{"x":4000,"y":4000}"#;
    let mean = r#""category":"school","query":{"kind":"mean_access"}"#;
    for (path, body, field) in [
        ("/v1/plan", format!(r#"{{{plan},"depart":-60}}"#), "depart"),
        ("/v1/plan", format!(r#"{{{plan},"depart":28800,"max_transfers":300}}"#), "max_transfers"),
        ("/v1/query", format!(r#"{{{mean},"deadline_ms":-5}}"#), "deadline_ms"),
        (
            "/v1/query",
            r#"{"category":"school","query":{"kind":"worst_zones","k":4294967296}}"#.to_string(),
            "k",
        ),
    ] {
        let (status, reply) = http(addr, "POST", path, Some(&body));
        assert_eq!(status, 400, "{body}: {reply}");
        assert!(reply.contains(&format!("{field} must be")), "{body}: {reply}");
    }

    // The approx key is accepted and changes no byte of the answer.
    let point = r#""query":{"kind":"point_access","x":1234.5,"y":2345.5}"#;
    let plain =
        http(addr, "POST", "/v1/query", Some(&format!(r#"{{"category":"school",{point}}}"#)));
    let flagged = http(
        addr,
        "POST",
        "/v1/query",
        Some(&format!(r#"{{"category":"school",{point},"approx":true}}"#)),
    );
    assert_eq!(plain.0, 200, "{}", plain.1);
    assert_eq!(flagged, plain);
    server.shutdown();
}
