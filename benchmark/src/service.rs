//! `service`: the sweep service over loopback.
//!
//! Set-up starts a `Server` with one executor worker on a fresh
//! directory and fills a warm set of 1 mm cells through the service.
//! The timed phase is an open-loop generator on two threads and two
//! connections sending at a fixed rate, well below saturation, on a
//! schedule drawn from the seed: mostly warm 4-cell sweeps of cached
//! cells, the rest single cold 2 mm cells with fresh seeds, some of
//! them submitted on both connections at once. Latency runs from a
//! request's scheduled send time to its `Done`.

use std::collections::BTreeMap;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use vfc_runner::{Executor, ResultCache, SweepRunner};
use vfc_serve::protocol::{read_response, write_request};
use vfc_serve::{Request, Response, ServeConfig, Server, WireSpec, WireStats};
use vfc_sim::{SimConfig, SimReport};
use vfc_workload::Benchmark;

use crate::report::Outcome;
use crate::{figures, layers, median, quantile, Ctx};

/// Requests per second offered by the timed phase. From 25/s up every
/// response stalls ~40 ms on Nagle + delayed ACK (README); 30/s sits
/// well inside that steady regime at ~2/3 of its two-connection
/// capacity, while 15–20/s flips between regimes and its tail with it.
const RATE_PER_S: f64 = 30.0;
/// The tail percentile: at 30/s for 30 s it leaves 13 requests beyond.
const TAIL_QUANTILE: f64 = 0.985;
/// Share of requests that are cold cells (p99 lands among them).
const COLD_SHARE: f64 = 0.05;
/// Share of cold cells submitted on both connections at once.
const DUAL_SHARE: f64 = 0.3;
/// Cells per warm sweep.
const WARM_CELLS: usize = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The load a session offers.
#[derive(Debug, Clone)]
struct Shape {
    warm_coolings: &'static [&'static str],
    warm_policies: &'static [&'static str],
    seconds: f64,
    rate_per_s: f64,
}

/// One scheduled request.
#[derive(Debug, Clone)]
struct Planned {
    id: u64,
    due: Duration,
    spec: WireSpec,
    cold: bool,
}

/// What the client saw of one request.
#[derive(Debug, Clone)]
struct Seen {
    id: u64,
    cold: bool,
    due: Instant,
    sent: Instant,
    accepted: Option<Instant>,
    first_cell: Option<Instant>,
    done: Option<Instant>,
    ok: bool,
    cells: Vec<(u64, bool, SimReport)>,
}

/// xorshift64*: the schedule's only source of randomness.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
    fn below(&mut self, n: usize) -> usize {
        ((self.next_f64() * n as f64) as usize).min(n - 1)
    }
}

fn names() -> Vec<String> {
    Benchmark::table_ii()
        .iter()
        .map(|b| b.name.to_string())
        .collect()
}

fn warm_set(shape: &Shape, seed: u64) -> WireSpec {
    WireSpec {
        systems: vec!["2".into()],
        coolings: shape.warm_coolings.iter().map(|s| s.to_string()).collect(),
        policies: shape.warm_policies.iter().map(|s| s.to_string()).collect(),
        workloads: names(),
        seeds: vec![seed],
        grid_mm: vec![1.0],
        duration_s: 2.0,
        dpm: false,
    }
}

/// The request schedule of one session, drawn from `seed`. Cold cells
/// get seeds no other request of any run at this seed uses.
fn schedule(shape: &Shape, seed: u64) -> Vec<Planned> {
    let mut rng = Rng::new(seed ^ 0x5E41_CE00);
    let names = names();
    let warm = warm_set(shape, seed);
    let n = (shape.rate_per_s * shape.seconds).round() as usize;
    let mut plan: Vec<Planned> = Vec::with_capacity(n + n / 10);
    let mut slot = 0u64;
    while plan.len() < n {
        let due = Duration::from_secs_f64(slot as f64 / shape.rate_per_s);
        let id = plan.len() as u64;
        if rng.next_f64() < COLD_SHARE {
            let spec = WireSpec {
                coolings: vec!["var".into()],
                policies: vec!["talb".into()],
                workloads: vec!["gzip".into()],
                seeds: vec![seed.wrapping_mul(1_000_003).wrapping_add(1_000_000 + slot)],
                grid_mm: vec![2.0],
                ..warm.clone()
            };
            let dual = rng.next_f64() < DUAL_SHARE;
            for k in 0..if dual { 2 } else { 1 } {
                plan.push(Planned {
                    id: id + k,
                    due,
                    spec: spec.clone(),
                    cold: true,
                });
            }
        } else {
            let start = rng.below(names.len() - WARM_CELLS + 1);
            let spec = WireSpec {
                coolings: vec![warm.coolings[rng.below(warm.coolings.len())].clone()],
                policies: vec![warm.policies[rng.below(warm.policies.len())].clone()],
                workloads: names[start..start + WARM_CELLS].to_vec(),
                ..warm.clone()
            };
            plan.push(Planned {
                id,
                due,
                spec,
                cold: false,
            });
        }
        slot += 1;
    }
    plan
}

/// Counts the bytes that cross a stream.
struct Counting<T> {
    inner: T,
    bytes: u64,
}

impl<T: Read> Read for Counting<T> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

impl<T: Write> Write for Counting<T> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// One client connection.
struct Client {
    reader: Counting<BufReader<TcpStream>>,
    writer: Counting<TcpStream>,
}

impl Client {
    fn connect(server: &Server) -> std::io::Result<Self> {
        let stream = TcpStream::connect(server.addr())?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Self {
            reader: Counting {
                inner: BufReader::new(stream.try_clone()?),
                bytes: 0,
            },
            writer: Counting {
                inner: stream,
                bytes: 0,
            },
        })
    }

    fn bytes(&self) -> u64 {
        self.reader.bytes + self.writer.bytes
    }

    /// Submits `spec` and reads until `Done` (or a refusal).
    fn submit(&mut self, spec: &WireSpec, seen: &mut Seen) {
        seen.sent = Instant::now();
        if let Err(e) = write_request(&mut self.writer, &Request::Submit { spec: spec.clone() }) {
            eprintln!("request {}: send failed: {e}", seen.id);
            return;
        }
        loop {
            match read_response(&mut self.reader) {
                Ok(Response::Accepted { .. }) => seen.accepted = Some(Instant::now()),
                Ok(Response::Cell {
                    key,
                    cached,
                    report,
                    ..
                }) => {
                    seen.first_cell.get_or_insert_with(Instant::now);
                    seen.cells.push((key, cached, report));
                }
                Ok(Response::Done { completed, failed }) => {
                    seen.done = Some(Instant::now());
                    seen.ok = failed == 0 && completed as usize == seen.cells.len();
                    return;
                }
                Ok(other) => {
                    eprintln!("request {}: unexpected response {other:?}", seen.id);
                    return;
                }
                Err(e) => {
                    eprintln!("request {}: receive failed: {e}", seen.id);
                    return;
                }
            }
        }
    }
}

/// Starts a server on a fresh directory and fills the warm set through
/// it. Returns the server and the set-up time.
fn setup(ctx: &Ctx, name: &str, shape: &Shape, out: &mut Outcome) -> Option<(Server, f64)> {
    let dir = ctx.fresh_dir(name);
    let span = ctx.tracer.open("service.setup", None);
    let cfg = ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    }
    .with_cache_dir(dir);
    let server = match Server::start(cfg) {
        Ok(server) => server,
        Err(e) => {
            out.problem(format!("Server::start failed: {e}"));
            return None;
        }
    };
    let warm = warm_set(shape, ctx.args.seed);
    let mut seen = blank_seen(0, false, Instant::now());
    match Client::connect(&server) {
        Ok(mut client) => client.submit(&warm, &mut seen),
        Err(e) => out.problem(format!("connect failed: {e}")),
    }
    let secs = ctx.tracer.close(span);
    if !seen.ok || seen.cells.len() != warm.cell_count() {
        out.problem(format!(
            "warm fill: {} of {} cells",
            seen.cells.len(),
            warm.cell_count()
        ));
    }
    Some((server, secs))
}

fn blank_seen(id: u64, cold: bool, due: Instant) -> Seen {
    Seen {
        id,
        cold,
        due,
        sent: due,
        accepted: None,
        first_cell: None,
        done: None,
        ok: false,
        cells: Vec::new(),
    }
}

/// Plays `plan` open-loop against `server` on two connections, one per
/// thread. Returns what each request saw and the bytes that crossed.
fn play(server: &Server, plan: &[Planned]) -> std::io::Result<(Vec<Seen>, u64)> {
    let mut clients = [Client::connect(server)?, Client::connect(server)?];
    let seen = Mutex::new(Vec::with_capacity(plan.len()));
    let start = Instant::now() + Duration::from_millis(20);
    // Request i goes out on connection i % 2, so the two halves of a
    // dual submission (consecutive ids) always use both connections.
    let drive = |client: &mut Client, lane: usize| {
        for p in plan.iter().skip(lane).step_by(2) {
            let due = start + p.due;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let mut s = blank_seen(p.id, p.cold, due);
            client.submit(&p.spec, &mut s);
            seen.lock().expect("seen lock").push(s);
        }
    };
    let [a, b] = &mut clients;
    std::thread::scope(|scope| {
        let helper = scope.spawn(|| drive(b, 1));
        drive(a, 0);
        helper.join().expect("load generator thread panicked");
    });
    let mut seen = seen.into_inner().expect("seen lock");
    seen.sort_by_key(|s| s.id);
    Ok((seen, clients[0].bytes() + clients[1].bytes()))
}

fn ms(a: Instant, b: Option<Instant>) -> Option<f64> {
    b.map(|b| (b - a).as_secs_f64() * 1e3)
}

/// Request latencies (failed requests are +inf).
fn latencies(seen: &[Seen]) -> Vec<f64> {
    seen.iter()
        .map(|s| match (s.ok, ms(s.due, s.done)) {
            (true, Some(v)) => v,
            _ => f64::INFINITY,
        })
        .collect()
}

/// Checks every answer: warm cells cached, each cold cell simulated
/// once, every report equal to a local `SweepRunner`'s. Returns the
/// number of requests that failed.
fn verify(seen: &[Seen], plan: &[Planned], warm: &WireSpec, out: &mut Outcome) -> u64 {
    let mut configs = warm.expand().unwrap_or_default();
    for p in plan.iter().filter(|p| p.cold) {
        configs.extend(p.spec.expand().unwrap_or_default());
    }
    let mut keys = std::collections::HashSet::new();
    configs.retain(|c| keys.insert(c.cache_key()));
    let local = SweepRunner::with_parts(Executor::with_threads(1), ResultCache::in_memory());
    let local: BTreeMap<u64, SimReport> = configs
        .iter()
        .map(SimConfig::cache_key)
        .zip(local.try_run(configs.clone()))
        .filter_map(|(k, r)| r.ok().map(|r| (k, r)))
        .collect();
    if local.len() != configs.len() {
        out.problem("a local SweepRunner failed a cell the service was sent");
    }
    let mut executed_by: BTreeMap<u64, usize> = BTreeMap::new();
    let mut failed = 0;
    for (s, p) in seen.iter().zip(plan) {
        let want = p.spec.cell_count();
        let mut ok = s.ok && s.cells.len() == want;
        for (key, cached, report) in &s.cells {
            if local.get(key) != Some(report) {
                out.problem(format!(
                    "request {}: report for key {key:x} differs from a local run",
                    s.id
                ));
                ok = false;
            }
            if !cached {
                *executed_by.entry(*key).or_default() += 1;
            }
            if !s.cold && !cached {
                out.problem(format!(
                    "request {}: warm cell {key:x} came back uncached",
                    s.id
                ));
                ok = false;
            }
        }
        if !ok {
            if !s.ok {
                out.problem(format!("request {} did not complete", s.id));
            }
            failed += 1;
        }
    }
    let cold_cells: std::collections::HashSet<u64> = seen
        .iter()
        .filter(|s| s.cold)
        .flat_map(|s| s.cells.iter().map(|c| c.0))
        .collect();
    for key in cold_cells {
        if executed_by.get(&key) != Some(&1) {
            out.problem(format!(
                "cold cell {key:x} was simulated {} times for its requests, want once",
                executed_by.get(&key).copied().unwrap_or(0)
            ));
        }
    }
    failed
}

fn stats_delta(a: WireStats, b: WireStats) -> WireStats {
    WireStats {
        connections: b.connections - a.connections,
        sheds: b.sheds - a.sheds,
        deadline_aborts: b.deadline_aborts - a.deadline_aborts,
        journal_replays: b.journal_replays - a.journal_replays,
        dedup_joins: b.dedup_joins - a.dedup_joins,
        executed: b.executed - a.executed,
        cache_hits: b.cache_hits - a.cache_hits,
        jobs: b.jobs - a.jobs,
    }
}

/// Per-layer service metrics of one played phase.
fn serve_metrics(seen: &[Seen], bytes: u64, stats: WireStats, out: &mut Outcome) {
    let accept: Vec<f64> = seen.iter().filter_map(|s| ms(s.sent, s.accepted)).collect();
    let warm: Vec<f64> = seen
        .iter()
        .filter(|s| !s.cold)
        .filter_map(|s| s.accepted.and_then(|a| ms(a, s.done)))
        .collect();
    let cold: Vec<f64> = seen
        .iter()
        .filter(|s| s.cold && s.cells.iter().any(|c| !c.1))
        .filter_map(|s| s.accepted.and_then(|a| ms(a, s.first_cell)))
        .collect();
    let late: Vec<f64> = seen
        .iter()
        .filter_map(|s| ms(s.due, Some(s.sent)))
        .collect();
    out.push("serve.accept_ms", "ms", median(&accept));
    out.push("serve.warm_stream_ms", "ms", median(&warm));
    out.push("serve.cold_cell_ms", "ms", median(&cold));
    out.push("serve.frame_bytes", "B", bytes as f64);
    out.push("serve.executed", "count", stats.executed as f64);
    out.push("serve.jobs", "count", stats.jobs as f64);
    out.push("serve.cache_hits", "count", stats.cache_hits as f64);
    out.push("serve.connections", "count", stats.connections as f64);
    out.push("serve.sheds", "count", stats.sheds as f64);
    out.push(
        "serve.deadline_aborts",
        "count",
        stats.deadline_aborts as f64,
    );
    out.push(
        "serve.hit_ratio",
        "fraction",
        stats.cache_hits as f64 / stats.jobs.max(1) as f64,
    );
    out.push("loadgen.late_ms_p99", "ms", quantile(&late, 0.99));
}

/// Records per-request spans: the request, and inside it the send →
/// `Accepted` and `Accepted` → `Done` legs.
fn trace_requests(ctx: &Ctx, seen: &[Seen]) {
    for s in seen {
        let Some(done) = s.done else { continue };
        let root = ctx
            .tracer
            .record_request("request", None, s.id, s.due, done);
        if let Some(acc) = s.accepted {
            ctx.tracer
                .record_request("serve.accept", Some(root), s.id, s.sent, acc);
            let leg = if s.cold {
                "serve.cold"
            } else {
                "serve.warm_stream"
            };
            ctx.tracer.record_request(leg, Some(root), s.id, acc, done);
        }
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let shape = Shape {
        warm_coolings: &["max", "var"],
        warm_policies: &["lb", "talb"],
        seconds: ctx.args.seconds as f64,
        rate_per_s: RATE_PER_S,
    };
    let seed = ctx.args.seed;
    let plan = schedule(&shape, seed);

    // Set-up on a fresh directory each time (a reused journal would make
    // each start slower); the last server serves the timed phase.
    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..SETUPS {
        let Some((s, secs)) = setup(ctx, &format!("service-{i}"), &shape, &mut out) else {
            return out;
        };
        setups.push(secs);
        if let Some(old) = server.replace(s) {
            old.shutdown();
        }
    }
    let server = server.expect("set-up ran");

    // Traced runs split the schedule in two halves: the first untraced,
    // the second at `spans`, for the overhead ratio.
    let half = Duration::from_secs_f64(shape.seconds / 2.0);
    let (first, second): (Vec<Planned>, Vec<Planned>) = if ctx.args.trace {
        let (a, b): (Vec<_>, Vec<_>) = plan.iter().cloned().partition(|p| p.due < half);
        let b = b
            .into_iter()
            .map(|p| Planned {
                due: p.due - half,
                ..p
            })
            .collect();
        (a, b)
    } else {
        (plan.clone(), Vec::new())
    };

    let mut seen = Vec::new();
    let span = ctx.tracer.open("service.timed", None);
    let result = play(&server, &first);
    let first_wall = ctx.tracer.close(span);
    let mut traced = None;
    match result {
        Ok((s, bytes)) => {
            let name = if ctx.args.trace {
                "serve.frame_bytes.first_half"
            } else {
                "serve.frame_bytes"
            };
            out.count(name, bytes);
            seen.extend(s);
        }
        Err(e) => out.problem(format!("load generator could not connect: {e}")),
    }
    if ctx.args.trace {
        vfc_obs::reset();
        vfc_obs::set_level(vfc_obs::TelemetryLevel::Spans);
        let before = server.stats();
        let result = play(&server, &second);
        let stats = stats_delta(before, server.stats());
        vfc_obs::set_level(vfc_obs::TelemetryLevel::Off);
        let snap = vfc_obs::snapshot();
        ctx.tracer.set_obs(snap.clone());
        match result {
            Ok((s, bytes)) => {
                out.count("serve.frame_bytes.second_half", bytes);
                out.count("serve.executed.second_half", stats.executed);
                seen.extend(s.iter().cloned());
                traced = Some((s, bytes, stats, snap));
            }
            Err(e) => out.problem(format!("load generator could not connect: {e}")),
        }
    }
    let stats = server.stats();
    server.shutdown();

    let all_plan: Vec<Planned> = first.iter().chain(&second).cloned().collect();
    out.attempted = all_plan.len() as u64;
    if seen.len() != all_plan.len() {
        out.problem(format!(
            "{} of {} requests answered",
            seen.len(),
            all_plan.len()
        ));
        out.failed = out.attempted;
    } else {
        out.failed = verify(&seen, &all_plan, &warm_set(&shape, seed), &mut out);
    }
    let cold_cells = all_plan
        .iter()
        .filter(|p| p.cold)
        .map(|p| p.spec.seeds[0])
        .collect::<std::collections::BTreeSet<_>>()
        .len() as u64;
    out.count("serve.cold_cells", cold_cells);
    if stats.sheds != 0 || stats.deadline_aborts != 0 {
        out.problem(format!(
            "the service shed {} requests and aborted {} connections below saturation",
            stats.sheds, stats.deadline_aborts
        ));
    }

    let lat = latencies(&seen);
    if let Some((s2, bytes, stats2, snap)) = traced {
        trace_requests(ctx, &s2);
        let lat1 = latencies(&seen[..seen.len() - s2.len()]);
        let lat2 = latencies(&s2);
        out.push(
            "obs.overhead_pct",
            "%",
            (median(&lat2) / median(&lat1) - 1.0) * 100.0,
        );
        layers::from_snapshot(&snap, &mut out);
        serve_metrics(&s2, bytes, stats2, &mut out);
        replay_new(ctx, &all_plan, &mut out);
        let template = all_plan
            .iter()
            .find(|p| p.cold)
            .and_then(|p| p.spec.expand().ok())
            .and_then(|c| c.into_iter().next());
        match template {
            Some(cfg) => layers::replay_setup(ctx, &cfg, &mut out),
            None => out.problem("the schedule has no cold cell"),
        }
        figures::runner_probe(ctx, &mut out);
    } else {
        out.push("setup_s", "s", median(&setups));
        out.push(
            "throughput_per_s",
            "1/s",
            seen.iter().filter(|s| s.ok).count() as f64 / first_wall,
        );
        out.push("latency_p50_ms", "ms", median(&lat));
        out.push("latency_tail_ms", "ms", quantile(&lat, TAIL_QUANTILE));
    }
    let late: Vec<f64> = seen
        .iter()
        .filter_map(|s| ms(s.due, Some(s.sent)))
        .collect();
    let part = |cold: bool| -> Vec<f64> {
        seen.iter()
            .zip(&lat)
            .filter(|(s, _)| s.cold == cold)
            .map(|(_, &l)| l)
            .collect()
    };
    let (warm_lat, cold_lat) = (part(false), part(true));
    out.note(format!(
        "service latency ms: warm p50 {:.3} p90 {:.3} p99 {:.3}; cold p50 {:.3} p90 {:.3}",
        median(&warm_lat),
        quantile(&warm_lat, 0.9),
        quantile(&warm_lat, 0.99),
        median(&cold_lat),
        quantile(&cold_lat, 0.9),
    ));
    out.note(format!(
        "service: {} requests at {RATE_PER_S}/s over {:.1} s, {} cold ({cold_cells} cells); \
         throughput_per_s is requests_per_s, latency_p50_ms/latency_tail_ms are request \
         latency p50/p98.5 over {} requests; generator late p99 {:.3} ms; set-ups {:?} s",
        seen.len(),
        first_wall,
        seen.iter().filter(|s| s.cold).count(),
        lat.len(),
        quantile(&late, 0.99),
        setups
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
    ));
    out
}

/// `Simulation::new` on the cold cells' configs, timed by the benchmark.
fn replay_new(ctx: &Ctx, plan: &[Planned], out: &mut Outcome) {
    let configs: Vec<SimConfig> = plan
        .iter()
        .filter(|p| p.cold)
        .filter_map(|p| p.spec.expand().ok())
        .flatten()
        .take(20)
        .collect();
    let span = ctx.tracer.open("sim.new", None);
    let mut total = 0.0;
    for cfg in &configs {
        let (sim, s) = ctx.tracer.time("sim.new.cell", Some(span.id), || {
            vfc_sim::Simulation::new(cfg.clone())
        });
        if let Err(e) = sim {
            out.problem(format!("Simulation::new failed on replay: {e}"));
        }
        total += s;
    }
    ctx.tracer.close(span);
    out.push(
        "sim.new_ms",
        "ms",
        total * 1e3 / configs.len().max(1) as f64,
    );
}

/// A two-second service session with a small warm set, for the service
/// metrics of workloads that do not drive the service themselves.
pub fn probe(ctx: &Ctx, out: &mut Outcome) {
    let shape = Shape {
        warm_coolings: &["max"],
        warm_policies: &["lb"],
        seconds: 2.0,
        rate_per_s: RATE_PER_S,
    };
    let Some((server, _)) = setup(ctx, "service-probe", &shape, out) else {
        return;
    };
    let plan = schedule(&shape, ctx.args.seed);
    let before = server.stats();
    let result = play(&server, &plan);
    let stats = stats_delta(before, server.stats());
    server.shutdown();
    match result {
        Ok((seen, bytes)) => {
            if verify(&seen, &plan, &warm_set(&shape, ctx.args.seed), out) != 0 {
                out.problem("service probe: a request failed its check");
            }
            trace_requests(ctx, &seen);
            serve_metrics(&seen, bytes, stats, out);
        }
        Err(e) => out.problem(format!("service probe could not connect: {e}")),
    }
}
