//! The full serving loop against a live `qpinn-serve` instance: submit
//! a train job over HTTP, poll its progress, list the registry, and run
//! a batched evaluation — the same sequence the README's curl
//! walkthrough shows, as a self-contained program.
//!
//! ```sh
//! cargo run --release --example serve_model
//! # in another terminal, while it runs (using the printed port):
//! #   curl http://127.0.0.1:<port>/v1/models
//! ```
//!
//! Binds port 0 (a free port) and prints the chosen port so it can run
//! unattended alongside anything else.

use qpinn::core::report::Json;
use qpinn::serve::{ServeConfig, ServeServer};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    match body {
        Some(b) => write!(
            s,
            "{method} {path} HTTP/1.1\r\nHost: example\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{b}",
            b.len()
        )
        .unwrap(),
        None => write!(s, "{method} {path} HTTP/1.1\r\nHost: example\r\n\r\n").unwrap(),
    }
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    buf.split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or(buf)
}

fn main() {
    // 1. Start the server over a throwaway models directory. Production
    //    setups point this at a persistent models/ tree.
    let models = std::env::temp_dir().join(format!("qpinn-serve-example-{}", std::process::id()));
    let server = ServeServer::start("127.0.0.1:0", ServeConfig::new(&models)).unwrap();
    let addr = server.local_addr();
    println!("bound port {} (picked by the OS via port 0)", addr.port());
    println!("inference server: http://{addr}\n");

    // 2. Submit a small train job.
    let body = r#"{"model_id":"demo","problem":"tdse-harmonic","width":12,"depth":2,
                   "epochs":40,"seed":7,"n_collocation":128}"#;
    let accepted = request(addr, "POST", "/v1/train", Some(body));
    println!("POST /v1/train → {accepted}");
    let job_id = Json::parse(&accepted)
        .ok()
        .and_then(|j| j.get("job_id").and_then(|v| v.as_str()).map(str::to_string))
        .expect("job id in response");

    // 3. Poll progress until the job publishes a model version.
    loop {
        let doc = request(addr, "GET", &format!("/v1/jobs/{job_id}/progress"), None);
        let parsed = Json::parse(&doc).unwrap();
        let state = parsed.get("state").unwrap().as_str().unwrap().to_string();
        println!("GET /v1/jobs/{job_id}/progress → {doc}");
        match state.as_str() {
            "completed" => break,
            "failed" => panic!("train job failed: {doc}"),
            _ => std::thread::sleep(std::time::Duration::from_millis(300)),
        }
    }

    // 4. The registry now lists demo@1.
    println!("\nGET /v1/models → {}", request(addr, "GET", "/v1/models", None));

    // 5. Batched evaluation: one request, many points. Concurrent
    //    requests for the same model would coalesce into shared forward
    //    passes — check the serve_batch_* series on /metrics.
    let eval = r#"{"model":"demo@latest","points":[[-2.0,0.1],[0.0,0.1],[2.0,0.1],[0.0,0.4]]}"#;
    println!("\nPOST /v1/eval → {}", request(addr, "POST", "/v1/eval", Some(eval)));

    let metrics = request(addr, "GET", "/metrics", None);
    println!("\nserve.* metrics after one round:");
    for line in metrics
        .lines()
        .filter(|l| l.starts_with("qpinn_serve_") && !l.starts_with('#'))
        .take(8)
    {
        println!("  {line}");
    }

    server.stop();
    let _ = std::fs::remove_dir_all(&models);
}
