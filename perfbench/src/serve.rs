//! The `serve-mixed` workload: a closed loop against an in-process
//! `ServeServer` over loopback.
//!
//! Two client threads, one connection in flight each: the point client
//! sends 1-point `POST /v1/eval` queries, the slice client 512-point
//! slices. Each client walks its own seeded request sequence. Sampled
//! responses must equal in-process `FieldNet::predict_batch` bit for bit.
//!
//! The traced run serves half its time with request tracing off and
//! half with it on, and decomposes traced latency from `GET /v1/traces`.

use crate::probes::time_ms;
use crate::report::{Check, Metrics, Outcome};
use crate::stats::median;
use qpinn_core::report::Json;
use qpinn_core::task::net_config_for;
use qpinn_core::{TrainConfig, Trainer, ZooTask, ZooTaskConfig};
use qpinn_nn::ParamSet;
use qpinn_serve::{ServeConfig, ServeServer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Registry key of the served problem.
const PROBLEM: &str = "tdse2d-free";
/// Model id the surrogate is published under.
const MODEL_ID: &str = "field";
/// Points per slice request.
const SLICE_POINTS: usize = 512;
/// Epochs the served model is trained for during setup. Fewer leave its
/// error too dependent on the seed to gate accuracy.
const TRAIN_EPOCHS: usize = 20;
/// Distinct request bodies per class; client `c` sends body `i % len`.
const POINT_BODIES: usize = 256;
const SLICE_BODIES: usize = 32;
/// Every n-th response of a class is kept and checked bit for bit.
const POINT_CHECK_EVERY: usize = 97;
const SLICE_CHECK_EVERY: usize = 13;
/// Slices sent (and checked) during setup; their served values score
/// the model's error.
const WARMUP_SLICES: usize = 4;
const WARMUP_POINTS: usize = 16;
/// Access-ring capacity of the traced server (`/v1/traces` returns at
/// most 4096 records).
const TRACE_RING: usize = 4096;
/// Server connection workers.
pub const WORKERS: usize = 2;
/// Client threads (and connections in flight).
pub const CLIENTS: usize = 2;

/// The two request classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    /// 1-point query.
    Point,
    /// 512-point slice.
    Slice,
}

impl Class {
    fn points(self) -> usize {
        match self {
            Class::Point => 1,
            Class::Slice => SLICE_POINTS,
        }
    }
}

/// One request body with the flattened coordinates it carries.
struct Body {
    /// JSON request body.
    json: String,
    /// Row-major coordinates, `points * arity` long.
    coords: Vec<f64>,
}

/// The request sequence of one class: bodies drawn from the seeded RNG
/// inside the model domain.
fn bodies(seed: u64, class: Class, domain: &[(f64, f64)]) -> Vec<Body> {
    let salt = match class {
        Class::Point => 0x9e37_79b9_7f4a_7c15,
        Class::Slice => 0xbf58_476d_1ce4_e5b9,
    };
    let mut rng = StdRng::seed_from_u64(seed ^ salt);
    let count = match class {
        Class::Point => POINT_BODIES,
        Class::Slice => SLICE_BODIES,
    };
    (0..count)
        .map(|_| {
            let coords: Vec<f64> = (0..class.points())
                .flat_map(|_| {
                    domain
                        .iter()
                        .map(|&(lo, hi)| lo + (hi - lo) * rng.gen::<f64>())
                        .collect::<Vec<_>>()
                })
                .collect();
            let rows: Vec<Json> = coords.chunks(domain.len()).map(Json::nums).collect();
            let json = Json::obj(vec![
                ("model", Json::Str(MODEL_ID.into())),
                ("points", Json::Arr(rows)),
            ])
            .to_string();
            Body { json, coords }
        })
        .collect()
}

/// One HTTP exchange: status code, `x-qpinn-trace` header, body.
struct Reply {
    status: u16,
    trace: String,
    body: String,
}

fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(Duration::from_secs(60)))?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes())?;
    let mut raw = String::new();
    s.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("response without header/body split"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| std::io::Error::other("response without a status code"))?;
    let trace = head
        .lines()
        .find_map(|l| l.strip_prefix("x-qpinn-trace: "))
        .unwrap_or_default()
        .to_string();
    Ok(Reply {
        status,
        trace,
        body: body.to_string(),
    })
}

/// The served model and what it is checked against.
struct Model {
    task: ZooTask,
    params: ParamSet,
    spec: qpinn_serve::ModelSpec,
    domain: Vec<(f64, f64)>,
    /// Error of the untrained network on the warm-up slices.
    initial_error: f64,
}

/// Construction seed of the served model. The model is a fixed part of
/// the workload, like a deployed surrogate; the workload seed drives the
/// traffic. Trained for a 20-epoch budget, the error ratio of models built
/// from different seeds spreads by about 20 %, which would swamp the
/// accuracy gate.
const MODEL_SEED: u64 = 7;

/// Build the served `tdse2d-free` surrogate and train it briefly; its
/// initial error is scored on the warm-up slices of request sequence
/// `seed`.
fn build_model(seed: u64) -> Model {
    let cfg = ZooTaskConfig::standard();
    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let mut task = ZooTask::from_key(PROBLEM, &cfg, &mut params, &mut rng)
        .expect("tdse2d-free is a registered problem");
    let spec = qpinn_serve::ModelSpec {
        // ZooTask registers the net under the problem key; a rebuild
        // from the same name and seed replays it bit for bit.
        name: PROBLEM.into(),
        seed: MODEL_SEED,
        net: net_config_for(task.problem(), &cfg),
        problem: PROBLEM.into(),
    };
    let domain: Vec<(f64, f64)> = task
        .problem()
        .coords()
        .iter()
        .map(|c| (c.lo, c.hi))
        .collect();
    let warm = bodies(seed, Class::Slice, &domain);
    let initial_error = rel_l2(&task, &params, &warm[..WARMUP_SLICES], None);
    Trainer::new(TrainConfig {
        epochs: TRAIN_EPOCHS,
        ..TrainConfig::default()
    })
    .train(&mut task, &mut params);
    Model {
        task,
        params,
        spec,
        domain,
        initial_error,
    }
}

/// Relative L2 error against the reference over the points of `bodies`,
/// of `served` values when given, else of in-process predictions.
fn rel_l2(task: &ZooTask, params: &ParamSet, bodies: &[Body], served: Option<&[Vec<f64>]>) -> f64 {
    let arity = task.problem().coords().len();
    let (mut num, mut den) = (0.0, 0.0);
    for (i, b) in bodies.iter().enumerate() {
        let pred = match served {
            Some(s) => s[i].clone(),
            None => task.net().predict_batch(params, &b.coords).data().to_vec(),
        };
        let refs: Vec<f64> = b
            .coords
            .chunks(arity)
            .flat_map(|p| task.reference().sample(p))
            .collect();
        for (p, r) in pred.iter().zip(&refs) {
            num += (p - r) * (p - r);
            den += r * r;
        }
    }
    (num / den).sqrt()
}

/// Served values of an eval response, flattened row-major.
fn served_values(body: &str) -> Result<Vec<f64>, String> {
    let doc = Json::parse(body)?;
    let Some(Json::Arr(rows)) = doc.get("values") else {
        return Err("response without a `values` array".into());
    };
    let mut out = Vec::new();
    for row in rows {
        let Json::Arr(vals) = row else {
            return Err("`values` row is not an array".into());
        };
        for v in vals {
            out.push(v.as_num().ok_or("non-numeric served value")?);
        }
    }
    Ok(out)
}

/// Compare a served response with in-process `predict_batch` bitwise.
fn verify(model: &Model, body: &Body, reply: &str) -> Result<Vec<f64>, String> {
    let served = served_values(reply)?;
    let local = model.task.net().predict_batch(&model.params, &body.coords);
    let same = served.len() == local.data().len()
        && served
            .iter()
            .zip(local.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if same {
        Ok(served)
    } else {
        Err(format!(
            "served values differ from predict_batch for a {}-point request",
            body.coords.len() / model.domain.len()
        ))
    }
}

/// A running server with the model published, cold-loaded and warmed.
struct Live {
    server: ServeServer,
    dir: PathBuf,
    /// Served error over initial error on the warm-up slices.
    error_ratio: f64,
}

/// Where registries live: the build directory of the checkout the
/// benchmark runs from, so it writes nowhere else.
pub fn models_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("perfbench")
}

/// A fresh registry directory under [`models_root`].
fn models_dir(tag: &str) -> PathBuf {
    models_root().join(format!("models-{}-{tag}", std::process::id()))
}

/// Start a server over a fresh registry, publish `model`, and warm it
/// with checked requests. `ring > 0` turns request tracing on.
fn start(model: &Model, points: &[Body], slices: &[Body], ring: usize, check: &mut Check) -> Live {
    let dir = models_dir(if ring > 0 { "traced" } else { "plain" });
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ServeConfig::new(&dir);
    cfg.workers = WORKERS;
    cfg.trace.ring = ring;
    let server = ServeServer::start("127.0.0.1:0", cfg).expect("bind a loopback port");
    publish(&server, model);
    let addr = server.local_addr();
    let mut served = Vec::new();
    for b in slices[..WARMUP_SLICES]
        .iter()
        .chain(&points[..WARMUP_POINTS])
    {
        match http(addr, "POST", "/v1/eval", &b.json) {
            Ok(r) if r.status == 200 => match verify(model, b, &r.body) {
                Ok(v) => served.push(v),
                Err(e) => check.fail(format!("warm-up: {e}")),
            },
            Ok(r) => check.fail(format!("warm-up request answered {}", r.status)),
            Err(e) => check.fail(format!("warm-up request failed: {e}")),
        }
    }
    let error_ratio = if served.len() >= WARMUP_SLICES {
        rel_l2(
            &model.task,
            &model.params,
            &slices[..WARMUP_SLICES],
            Some(&served),
        ) / model.initial_error
    } else {
        f64::NAN
    };
    Live {
        server,
        dir,
        error_ratio,
    }
}

/// Publish `model` as the next version of [`MODEL_ID`].
fn publish(server: &ServeServer, model: &Model) {
    server
        .registry()
        .publish(
            MODEL_ID,
            &model.spec,
            &model.params,
            Default::default(),
            1,
            0.0,
        )
        .expect("publish into the benchmark's own registry");
}

impl Live {
    /// Stop the server and remove its registry.
    fn stop(self) {
        self.server.stop();
        // The server installed a progress-tracker sink that outlives it;
        // remove it so the next set-up starts with telemetry dormant, as a
        // fresh process would.
        qpinn_telemetry::shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    /// Loopback address.
    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }
}

/// One completed exchange as the client saw it.
struct Sample {
    /// Request class.
    class: Class,
    /// Client-side latency, connect to last byte.
    ms: f64,
    /// HTTP status (0 when the exchange failed).
    status: u16,
    /// Echoed trace id (empty untraced).
    trace: String,
}

/// What a closed-loop phase produced.
struct Phase {
    /// Every exchange.
    samples: Vec<Sample>,
    /// Wall time of the phase.
    seconds: f64,
}

impl Phase {
    /// Latencies of successful requests of `class`.
    fn latencies(&self, class: Class) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.class == class && s.status == 200)
            .map(|s| s.ms)
            .collect()
    }

    /// Non-200 exchanges.
    fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| s.status != 200).count() as u64
    }
}

/// Run one client per class against `live` until `seconds` pass.
fn closed_loop(
    live: &Live,
    model: &Model,
    points: &[Body],
    slices: &[Body],
    seconds: f64,
    check: &mut Check,
) -> Phase {
    let addr = live.addr();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let client = |class: Class, set: &[Body], every: usize| {
        let mut samples = Vec::new();
        let mut kept = Vec::new();
        let mut i = 0usize;
        while Instant::now() < deadline {
            let body = &set[i % set.len()];
            let t = Instant::now();
            let reply = http(addr, "POST", "/v1/eval", &body.json);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let (status, trace) = match &reply {
                Ok(r) => (r.status, r.trace.clone()),
                Err(_) => (0, String::new()),
            };
            if status == 200 && i.is_multiple_of(every) {
                kept.push((
                    i % set.len(),
                    reply.expect("status 200 came from a reply").body,
                ));
            }
            samples.push(Sample {
                class,
                ms,
                status,
                trace,
            });
            i += 1;
        }
        (samples, kept)
    };
    let ((mut samples, kept_points), (slice_samples, kept_slices)) = std::thread::scope(|s| {
        let p = s.spawn(|| client(Class::Point, points, POINT_CHECK_EVERY));
        let q = s.spawn(|| client(Class::Slice, slices, SLICE_CHECK_EVERY));
        (
            p.join().expect("point client panicked"),
            q.join().expect("slice client panicked"),
        )
    });
    let seconds = t0.elapsed().as_secs_f64();
    samples.extend(slice_samples);
    for (idx, body) in &kept_points {
        if let Err(e) = verify(model, &points[*idx], body) {
            check.fail(e);
        }
    }
    for (idx, body) in &kept_slices {
        if let Err(e) = verify(model, &slices[*idx], body) {
            check.fail(e);
        }
    }
    Phase { samples, seconds }
}

/// Decompose the traced phase: server stages per class from the access
/// ring (`GET /v1/traces`), transport as client latency minus server
/// total.
fn decompose(m: &mut Metrics, live: &Live, phase: &Phase, check: &mut Check) {
    let reply = http(
        live.addr(),
        "GET",
        &format!("/v1/traces?n={TRACE_RING}"),
        "",
    );
    let doc = match reply
        .map_err(|e| e.to_string())
        .and_then(|r| Json::parse(&r.body))
    {
        Ok(d) => d,
        Err(e) => {
            check.fail(format!("GET /v1/traces: {e}"));
            return;
        }
    };
    let client_ms: std::collections::HashMap<&str, f64> = phase
        .samples
        .iter()
        .filter(|s| !s.trace.is_empty())
        .map(|s| (s.trace.as_str(), s.ms))
        .collect();
    let mut stages: [[Vec<f64>; 4]; 2] = Default::default();
    let mut transport = Vec::new();
    let records = match doc.get("traces") {
        Some(Json::Arr(r)) => r.as_slice(),
        _ => &[],
    };
    for r in records {
        let num = |k: &str| r.get(k).and_then(Json::as_num).unwrap_or(0.0);
        let trace = r.get("trace").and_then(Json::as_str).unwrap_or_default();
        let Some(&cms) = client_ms.get(trace) else {
            continue;
        };
        if num("status") != 200.0 {
            continue;
        }
        let class = usize::from(num("points") as usize == SLICE_POINTS);
        for (k, key) in ["queue_ns", "batch_ns", "compute_ns", "serialize_ns"]
            .iter()
            .enumerate()
        {
            stages[class][k].push(num(key) / 1e6);
        }
        transport.push(cms - num("total_ns") / 1e6);
    }
    for (class, cname) in ["point", "slice"].iter().enumerate() {
        for (k, stage) in ["queue", "batch", "compute", "serialize"]
            .iter()
            .enumerate()
        {
            let v = &stages[class][k];
            if v.is_empty() {
                check.fail(format!("no traced {cname} requests in /v1/traces"));
                break;
            }
            m.push(&format!("serve.{stage}_ms.{cname}.p50"), median(v), "ms");
        }
    }
    if !transport.is_empty() {
        m.push("serve.transport_ms.p50", median(&transport), "ms");
    }
}

/// Flush shape over a window: mean requests and points per forward pass.
struct FlushCounter {
    size: qpinn_telemetry::HistogramSnapshot,
    points: qpinn_telemetry::HistogramSnapshot,
}

impl FlushCounter {
    /// Snapshot the batch histograms now.
    fn start() -> Self {
        FlushCounter {
            size: qpinn_telemetry::histogram(qpinn_telemetry::names::SERVE_BATCH_SIZE).snapshot(),
            points: qpinn_telemetry::histogram(qpinn_telemetry::names::SERVE_BATCH_POINTS)
                .snapshot(),
        }
    }

    /// `(requests_per_flush, points_per_flush)` since [`FlushCounter::start`].
    fn finish(&self) -> (f64, f64) {
        let size = qpinn_telemetry::histogram(qpinn_telemetry::names::SERVE_BATCH_SIZE).snapshot();
        let points =
            qpinn_telemetry::histogram(qpinn_telemetry::names::SERVE_BATCH_POINTS).snapshot();
        let flushes = size.count.saturating_sub(self.size.count).max(1) as f64;
        (
            size.sum.saturating_sub(self.size.sum) as f64 / flushes,
            points.sum.saturating_sub(self.points.sum) as f64 / flushes,
        )
    }
}

/// Set-ups per run; `setup_s` is their median. Each trains its own model
/// (2–3 s), which bounds how many a run can afford.
const SETUPS: usize = 3;
/// Registry round trips timed per traced run.
const REGISTRY_REPS: usize = 5;

/// The `serve-mixed` workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut check = Check::default();
    let mut setup_s = Vec::new();
    let mut ready = None;
    for k in 0..SETUPS {
        let t0 = Instant::now();
        let model = build_model(seed);
        let points = bodies(seed, Class::Point, &model.domain);
        let slices = bodies(seed, Class::Slice, &model.domain);
        let live = start(&model, &points, &slices, 0, &mut check);
        setup_s.push(t0.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            live.stop();
        } else {
            ready = Some((model, points, slices, live));
        }
    }
    let (mut model, points, slices, live) = ready.expect("at least one setup ran");
    let error_ratio = live.error_ratio;

    let mut m = Metrics::default();
    if !trace {
        let phase = closed_loop(&live, &model, &points, &slices, seconds, &mut check);
        live.stop();
        let point = phase.latencies(Class::Point);
        let slice = phase.latencies(Class::Slice);
        m.push("setup_s", median(&setup_s), "s");
        if point.is_empty() || slice.is_empty() {
            check.fail("a request class completed no requests".into());
        } else {
            m.push("op_ms.p50", median(&point), "ms");
            m.push("bulk_ms.p50", median(&slice), "ms");
        }
        let completed = phase.samples.len() as u64 - phase.failed();
        m.push("ops_per_s", completed as f64 / phase.seconds, "1/s");
        m.push("error_ratio", error_ratio, "1");
        let mut info = Metrics::default();
        info.push_tail("op_ms", &point, "ms");
        info.push_tail("bulk_ms", &slice, "ms");
        return Outcome {
            attempted: phase.samples.len() as u64,
            failed: phase.failed(),
            check,
            metrics: m,
            info,
        };
    }

    // Traced run: half the time untraced, half traced on a fresh server.
    let plain = closed_loop(&live, &model, &points, &slices, seconds / 2.0, &mut check);
    live.stop();
    let traced = traced_layers(&mut m, &model, &points, &slices, seconds / 2.0, &mut check);
    m.push(
        "telemetry.trace_overhead_pct",
        (median(&traced.latencies(Class::Point)) / median(&plain.latencies(Class::Point)) - 1.0)
            * 100.0,
        "%",
    );
    crate::train::loop_probe(&mut m, &mut model.task, &model.params, LOOP_PROBE_EPOCHS);
    Outcome {
        attempted: (plain.samples.len() + traced.samples.len()) as u64,
        failed: plain.failed() + traced.failed(),
        check,
        metrics: m,
        info: Metrics::default(),
    }
}

/// Traced epochs a `serve-mixed` traced run adds to report the training
/// loop of the model it serves.
const LOOP_PROBE_EPOCHS: usize = 5;

/// Serve `model` with tracing on for `seconds` and push the serve-path
/// layer metrics.
fn traced_layers(
    m: &mut Metrics,
    model: &Model,
    points: &[Body],
    slices: &[Body],
    seconds: f64,
    check: &mut Check,
) -> Phase {
    let live = start(model, points, slices, TRACE_RING, check);
    let flushes = FlushCounter::start();
    let traced = closed_loop(&live, model, points, slices, seconds, check);
    let (per_flush, points_per_flush) = flushes.finish();
    decompose(m, &live, &traced, check);
    m.push("serve.requests_per_flush", per_flush, "count");
    m.push("serve.points_per_flush", points_per_flush, "count");
    let registry = live.server.registry();
    // `evict` only drops a map entry; the time is the snapshot load.
    let cold = time_ms(REGISTRY_REPS, || {
        registry.evict(MODEL_ID).expect("the model id is valid");
        registry
            .resolve(MODEL_ID)
            .expect("the published model resolves");
    });
    m.push("serve.cold_load_ms", cold, "ms");
    let publish_ms = time_ms(REGISTRY_REPS, || publish(&live.server, model));
    m.push("persist.publish_ms", publish_ms, "ms");
    live.stop();
    probe_model(m, model, slices);
    traced
}

/// The serve-path layer metrics for a workload that does not serve:
/// build and publish the `serve-mixed` model from `seed`, then serve it
/// traced for `seconds`. Its traffic counts toward neither `attempted`
/// nor `failed`; its correctness checks still apply.
pub fn probe(m: &mut Metrics, seed: u64, seconds: f64, check: &mut Check) {
    let model = build_model(seed);
    let points = bodies(seed, Class::Point, &model.domain);
    let slices = bodies(seed, Class::Slice, &model.domain);
    let traced = traced_layers(m, &model, &points, &slices, seconds, check);
    check.expect(
        traced.failed() == 0,
        format!("{} serve probe requests failed", traced.failed()),
    );
}

/// In-process costs of the layers a request crosses: `predict_batch` at
/// 1 and 512 points, and `Json::parse` of a 512-point body.
fn probe_model(m: &mut Metrics, model: &Model, slices: &[Body]) {
    let net = model.task.net();
    let one = &slices[0].coords[..model.domain.len()];
    let ms = time_ms(200, || {
        black_box(net.predict_batch(&model.params, one));
    });
    m.push("core.predict_batch_ms.1", ms, "ms");
    let ms = time_ms(30, || {
        black_box(net.predict_batch(&model.params, &slices[0].coords));
    });
    m.push("core.predict_batch_ms.512", ms, "ms");
    let ms = time_ms(30, || {
        black_box(Json::parse(&slices[0].json).expect("benchmark bodies parse"));
    });
    m.push("report.json_parse_ms", ms, "ms");
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOMAIN: [(f64, f64); 3] = [(-1.0, 1.0), (-2.0, 2.0), (0.0, 0.5)];

    #[test]
    fn same_seed_gives_the_same_request_sequence() {
        for class in [Class::Point, Class::Slice] {
            let a = bodies(11, class, &DOMAIN);
            let b = bodies(11, class, &DOMAIN);
            let c = bodies(12, class, &DOMAIN);
            assert!(a
                .iter()
                .zip(&b)
                .all(|(x, y)| x.json == y.json && x.coords == y.coords));
            assert!(a.iter().zip(&c).any(|(x, y)| x.json != y.json));
        }
    }

    #[test]
    fn requests_stay_inside_the_domain_and_carry_their_coordinates() {
        for b in bodies(3, Class::Slice, &DOMAIN) {
            assert_eq!(b.coords.len(), SLICE_POINTS * DOMAIN.len());
            for p in b.coords.chunks(DOMAIN.len()) {
                assert!(p.iter().zip(&DOMAIN).all(|(v, (lo, hi))| v >= lo && v < hi));
            }
            let doc = Json::parse(&b.json).unwrap();
            let Some(Json::Arr(rows)) = doc.get("points") else {
                panic!("no points")
            };
            let flat: Vec<f64> = rows
                .iter()
                .flat_map(|r| match r {
                    Json::Arr(v) => v.clone(),
                    _ => panic!("row"),
                })
                .map(|x| x.as_num().unwrap())
                .collect();
            assert_eq!(flat, b.coords, "JSON numbers must round-trip bit for bit");
        }
    }
}
