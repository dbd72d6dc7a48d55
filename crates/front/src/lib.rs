//! # rtx-front
//!
//! A wire-protocol front-end for the sharded session runtime
//! ([`rtx_core::ShardedRuntime`]), plus the pieces a load generator needs to
//! drive it: a combined catalog covering every bundled business model, a
//! model registry, and a line-protocol client.
//!
//! The paper's setting is many customers interacting with one electronic
//! commerce service over a network; this crate is that network boundary.
//! Deliberately **no external async runtime** is used (the workspace is
//! offline and dependency-free): concurrency is plain threads plus bounded
//! queues, which makes the backpressure story explicit rather than hidden in
//! an executor —
//!
//! * one accept loop, one thread per connection, parsing line-delimited
//!   commands;
//! * one worker thread per shard **owning** that shard's sessions (sessions
//!   never migrate, so no session-level locking exists anywhere);
//! * a bounded [`mpsc::sync_channel`] in front of every shard worker: a
//!   command for a full queue is answered `BUSY` immediately — callers see
//!   overload as a typed reply, never as an unbounded queue or a stalled
//!   socket;
//! * batched ingestion: a `BATCH` submits many steps as **one** queue entry,
//!   so a high-rate client amortizes queue traffic without starving
//!   interactive sessions (per-shard FIFO order is preserved).
//!
//! # Protocol
//!
//! Requests are single lines, replies are single lines (except `BATCH`,
//! which replies one `OUT` line per step followed by `OK`):
//!
//! | request | reply |
//! |---|---|
//! | `OPEN <session> <model> [demand]` | `OK open <session> shard=<k>` |
//! | `STEP <session> <facts>` | `OUT <facts>` |
//! | `BATCH <session> <n>` + n fact lines | n× `OUT <facts>`, then `OK batch <n>` |
//! | `CLOSE <session>` | `OK close <session>` |
//! | `HEALTH` | `OK health active=… quarantined=… violations=… rejections=…` |
//! | `SHUTDOWN` | `OK bye` |
//!
//! plus `ERR <detail>` for any failure and `BUSY <detail>` for backpressure.
//! `<facts>` is `-` (empty instance) or `rel(v,…);rel(v,…)` with integer or
//! bare-string values — see [`parse_facts`]/[`render_instance`], which
//! round-trip.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rtx_core::{models, SessionDemand, ShardedRuntime, ShardedSession, SpocusTransducer};
use rtx_datalog::{Parallelism, ResidentDb};
use rtx_relational::{Instance, Schema, Tuple, Value};
use rtx_workloads::scenarios::Scenario;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

/// A named business model servable by the front-end: the transducer plus,
/// when the model supports it, the demand a `OPEN … demand` session is
/// opened with.
pub struct FrontModel {
    /// Model name, as used in `OPEN` commands.
    pub name: &'static str,
    /// The Spocus business model.
    pub transducer: Arc<SpocusTransducer>,
    /// The demand of an `OPEN … demand` session, for models that define one.
    pub demand: Option<SessionDemand>,
}

/// Looks up a servable model by name: the paper's `short` model, the
/// workload `category`/`storefront` models (the latter with its
/// per-session demand), and the four guardrail scenarios.
pub fn lookup_model(name: &str) -> Option<FrontModel> {
    match name {
        "short" => Some(FrontModel {
            name: "short",
            transducer: Arc::new(models::short()),
            demand: None,
        }),
        "category" => Some(FrontModel {
            name: "category",
            transducer: Arc::new(rtx_workloads::category_model()),
            demand: None,
        }),
        "storefront" => Some(FrontModel {
            name: "storefront",
            transducer: Arc::new(rtx_workloads::storefront_model()),
            demand: Some(rtx_workloads::storefront_demand()),
        }),
        _ => Scenario::all()
            .into_iter()
            .find(|s| s.name == name)
            .map(|s| FrontModel {
                name: s.name,
                transducer: s.transducer,
                demand: None,
            }),
    }
}

/// The model names [`lookup_model`] serves.
pub const MODEL_NAMES: &[&str] = &[
    "short",
    "category",
    "storefront",
    "auction",
    "inventory",
    "escrow",
    "fraud",
];

/// One catalog covering **every** servable model's `db` schema: the paper's
/// Figure 1 rows, a generated category catalog (products `p0`–`p199` with
/// prices and categories), and the guardrail scenarios' fixtures.  The
/// front-end makes this resident once and shares it across all shards.
pub fn combined_catalog() -> Instance {
    let mut sources = vec![
        models::figure1_database(),
        rtx_workloads::category_catalog(200, 8, 1),
    ];
    sources.extend(Scenario::all().into_iter().map(|s| s.database));

    let mut arities: BTreeMap<String, usize> = BTreeMap::new();
    for source in &sources {
        for (name, relation) in source.iter() {
            let prior = arities.insert(name.as_str().to_string(), relation.arity());
            assert!(
                prior.is_none_or(|a| a == relation.arity()),
                "model catalogs disagree on the arity of `{name}`"
            );
        }
    }
    let schema = Schema::from_pairs(arities).expect("catalog relation names are distinct");
    let mut combined = Instance::empty(&schema);
    for source in &sources {
        for (name, relation) in source.iter() {
            combined
                .absorb_relation(name.clone(), relation)
                .expect("arities were checked above");
        }
    }
    combined
}

/// Parses a `<facts>` spec (`-`, or `rel(v,…);rel(v,…)`) into an instance
/// of `schema`.  Values parsing as `i64` become integers, everything else a
/// string symbol — the inverse of [`render_instance`] for the value shapes
/// the bundled workloads use.
pub fn parse_facts(spec: &str, schema: &Schema) -> Result<Instance, String> {
    let mut instance = Instance::empty(schema);
    let spec = spec.trim();
    if spec == "-" || spec.is_empty() {
        return Ok(instance);
    }
    for fact in spec.split(';').filter(|f| !f.is_empty()) {
        let (relation, args) = fact
            .strip_suffix(')')
            .and_then(|f| f.split_once('('))
            .ok_or_else(|| format!("malformed fact `{fact}`: expected rel(v,...)"))?;
        let values: Vec<Value> = if args.is_empty() {
            Vec::new()
        } else {
            args.split(',').map(|tok| parse_value(tok.trim())).collect()
        };
        instance
            .insert(relation, Tuple::new(values))
            .map_err(|e| e.to_string())?;
    }
    Ok(instance)
}

fn parse_value(token: &str) -> Value {
    token
        .parse::<i64>()
        .map(Value::int)
        .unwrap_or_else(|_| Value::str(token))
}

/// Renders an instance as a sorted `rel(v,…);rel(v,…)` facts spec (`-` when
/// empty) — the reply format of `STEP`, and valid [`parse_facts`] input.
pub fn render_instance(instance: &Instance) -> String {
    let mut facts: Vec<String> = Vec::new();
    for (name, relation) in instance.iter() {
        for tuple in relation.iter() {
            let values: Vec<String> = (0..relation.arity())
                .map(|i| render_value(tuple.get(i).expect("arity-checked tuple")))
                .collect();
            facts.push(format!("{}({})", name.as_str(), values.join(",")));
        }
    }
    if facts.is_empty() {
        return "-".to_string();
    }
    facts.sort();
    facts.join(";")
}

fn render_value(value: &Value) -> String {
    match value.as_int() {
        Some(i) => i.to_string(),
        None => value.as_str().unwrap_or_default().to_string(),
    }
}

/// Front-end server configuration.
#[derive(Debug, Clone, Copy)]
pub struct FrontConfig {
    /// Number of shard workers (session shards).
    pub shards: usize,
    /// Per-shard bounded queue depth: commands beyond this are answered
    /// `BUSY` instead of queueing without bound.
    pub queue_depth: usize,
    /// Total evaluation worker budget, divided among the shards.
    pub parallelism: Parallelism,
}

impl Default for FrontConfig {
    fn default() -> Self {
        FrontConfig {
            shards: 2,
            queue_depth: 64,
            parallelism: Parallelism::default(),
        }
    }
}

/// A shard-worker command, carried over the bounded per-shard queue.
enum Request {
    Open {
        session: String,
        model: String,
        demanded: bool,
    },
    /// One or more steps for one session — a `STEP` is a batch of one.
    Steps {
        session: String,
        facts: Vec<String>,
        batch: bool,
    },
    Close {
        session: String,
    },
}

struct Job {
    request: Request,
    reply: mpsc::Sender<Vec<String>>,
}

/// The line-protocol server: a [`ShardedRuntime`] fronted by one bounded
/// queue + worker thread per shard.  See the [crate docs](self) for the
/// protocol and threading model.
pub struct FrontServer {
    listener: TcpListener,
    fleet: ShardedRuntime,
    queues: Vec<mpsc::SyncSender<Job>>,
    workers: Vec<thread::JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
}

impl FrontServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and spawns
    /// the shard workers over a freshly resident [`combined_catalog`].
    pub fn bind(addr: &str, config: FrontConfig) -> io::Result<FrontServer> {
        let listener = TcpListener::bind(addr)?;
        let fleet = ShardedRuntime::shared_with(
            Arc::new(ResidentDb::new(combined_catalog())),
            config.shards,
            config.parallelism,
        );
        let mut queues = Vec::with_capacity(fleet.shard_count());
        let mut workers = Vec::with_capacity(fleet.shard_count());
        for shard in 0..fleet.shard_count() {
            let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_depth.max(1));
            let fleet = fleet.clone();
            workers.push(
                thread::Builder::new()
                    .name(format!("rtx-front-shard-{shard}"))
                    .spawn(move || shard_worker(fleet, rx))
                    .expect("spawn shard worker"),
            );
            queues.push(tx);
        }
        Ok(FrontServer {
            listener,
            fleet,
            queues,
            workers,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves connections until a client sends `SHUTDOWN`, then drains:
    /// joins every connection thread, closes the shard queues and joins the
    /// workers.
    pub fn serve(self) -> io::Result<()> {
        let addr = self.listener.local_addr()?;
        let mut connections = Vec::new();
        loop {
            let (stream, _) = self.listener.accept()?;
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let fleet = self.fleet.clone();
            let queues = self.queues.clone();
            let shutdown = Arc::clone(&self.shutdown);
            connections.push(
                thread::Builder::new()
                    .name("rtx-front-conn".to_string())
                    .spawn(move || {
                        let _ = serve_connection(stream, fleet, queues, shutdown, addr);
                    })
                    .expect("spawn connection handler"),
            );
        }
        for conn in connections {
            let _ = conn.join();
        }
        drop(self.queues);
        for worker in self.workers {
            let _ = worker.join();
        }
        Ok(())
    }
}

/// Handles one client connection: parse a command line, route it to the
/// owning shard's queue (or answer directly for `HEALTH`/`SHUTDOWN`), relay
/// the worker's reply lines.
fn serve_connection(
    stream: TcpStream,
    fleet: ShardedRuntime,
    queues: Vec<mpsc::SyncSender<Job>>,
    shutdown: Arc<AtomicBool>,
    server_addr: SocketAddr,
) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(());
        }
        let command = line.trim();
        if command.is_empty() {
            continue;
        }
        let mut parts = command.splitn(3, ' ');
        let verb = parts.next().unwrap_or_default().to_ascii_uppercase();
        match verb.as_str() {
            "HEALTH" => {
                let health = fleet.health();
                writeln!(
                    writer,
                    "OK health active={} quarantined={} violations={} rejections={}",
                    health.active_sessions,
                    health.quarantined_sessions.len(),
                    health.violations,
                    health.rejections
                )?;
            }
            "SHUTDOWN" => {
                shutdown.store(true, Ordering::SeqCst);
                writeln!(writer, "OK bye")?;
                // Wake the accept loop so it observes the flag.
                let _ = TcpStream::connect(server_addr);
                return Ok(());
            }
            "OPEN" => {
                let session = parts.next().unwrap_or_default().to_string();
                let rest = parts.next().unwrap_or_default();
                let mut rest = rest.split_whitespace();
                let model = rest.next().unwrap_or_default().to_string();
                let demanded = rest.next() == Some("demand");
                if session.is_empty() || model.is_empty() {
                    writeln!(writer, "ERR usage: OPEN <session> <model> [demand]")?;
                    continue;
                }
                let request = Request::Open {
                    session,
                    model,
                    demanded,
                };
                dispatch(&fleet, &queues, request, &mut writer)?;
            }
            "STEP" => {
                let session = parts.next().unwrap_or_default().to_string();
                let facts = parts.next().unwrap_or("-").trim().to_string();
                if session.is_empty() {
                    writeln!(writer, "ERR usage: STEP <session> <facts>")?;
                    continue;
                }
                let request = Request::Steps {
                    session,
                    facts: vec![facts],
                    batch: false,
                };
                dispatch(&fleet, &queues, request, &mut writer)?;
            }
            "BATCH" => {
                let session = parts.next().unwrap_or_default().to_string();
                let count: usize = match parts.next().unwrap_or_default().trim().parse() {
                    Ok(n) => n,
                    Err(_) => {
                        writeln!(writer, "ERR usage: BATCH <session> <count>")?;
                        continue;
                    }
                };
                let mut facts = Vec::with_capacity(count);
                for _ in 0..count {
                    let mut step_line = String::new();
                    if reader.read_line(&mut step_line)? == 0 {
                        return Ok(());
                    }
                    facts.push(step_line.trim().to_string());
                }
                if session.is_empty() {
                    writeln!(writer, "ERR usage: BATCH <session> <count>")?;
                    continue;
                }
                let request = Request::Steps {
                    session,
                    facts,
                    batch: true,
                };
                dispatch(&fleet, &queues, request, &mut writer)?;
            }
            "CLOSE" => {
                let session = parts.next().unwrap_or_default().to_string();
                if session.is_empty() {
                    writeln!(writer, "ERR usage: CLOSE <session>")?;
                    continue;
                }
                dispatch(&fleet, &queues, Request::Close { session }, &mut writer)?;
            }
            _ => {
                writeln!(writer, "ERR unknown command `{verb}`")?;
            }
        }
    }
}

/// Routes a request to its session's home shard with **explicit
/// backpressure**: a full shard queue answers `BUSY` right away instead of
/// blocking the connection or queueing without bound.
fn dispatch(
    fleet: &ShardedRuntime,
    queues: &[mpsc::SyncSender<Job>],
    request: Request,
    writer: &mut TcpStream,
) -> io::Result<()> {
    let session = match &request {
        Request::Open { session, .. } => session,
        Request::Steps { session, .. } => session,
        Request::Close { session } => session,
    };
    let shard = fleet.shard_of(session);
    let (reply_tx, reply_rx) = mpsc::channel();
    let job = Job {
        request,
        reply: reply_tx,
    };
    match queues[shard].try_send(job) {
        Ok(()) => match reply_rx.recv() {
            Ok(lines) => {
                for reply in lines {
                    writeln!(writer, "{reply}")?;
                }
                Ok(())
            }
            Err(_) => {
                writeln!(writer, "ERR shard {shard} worker is gone")
            }
        },
        Err(mpsc::TrySendError::Full(_)) => {
            writeln!(writer, "BUSY shard {shard} queue is full, retry")
        }
        Err(mpsc::TrySendError::Disconnected(_)) => {
            writeln!(writer, "ERR shard {shard} worker is gone")
        }
    }
}

/// One shard's worker loop: owns every session routed to this shard, and is
/// the only thread that ever steps them.
fn shard_worker(fleet: ShardedRuntime, jobs: mpsc::Receiver<Job>) {
    let mut sessions: HashMap<String, ShardedSession> = HashMap::new();
    while let Ok(job) = jobs.recv() {
        let reply = execute(&fleet, &mut sessions, job.request);
        let _ = job.reply.send(reply);
    }
}

fn execute(
    fleet: &ShardedRuntime,
    sessions: &mut HashMap<String, ShardedSession>,
    request: Request,
) -> Vec<String> {
    match request {
        Request::Open {
            session,
            model,
            demanded,
        } => {
            let Some(front_model) = lookup_model(&model) else {
                return vec![format!(
                    "ERR unknown model `{model}` (known: {})",
                    MODEL_NAMES.join(", ")
                )];
            };
            let opened = if demanded {
                let Some(demand) = front_model.demand else {
                    return vec![format!("ERR model `{model}` defines no demand")];
                };
                fleet.open_session_with_demand(session.clone(), front_model.transducer, demand)
            } else {
                fleet.open_session(session.clone(), front_model.transducer)
            };
            match opened {
                Ok(opened) => {
                    let shard = opened.shard();
                    sessions.insert(session.clone(), opened);
                    vec![format!("OK open {session} shard={shard}")]
                }
                Err(e) => vec![format!("ERR {e}")],
            }
        }
        Request::Steps {
            session,
            facts,
            batch,
        } => {
            let Some(open) = sessions.get_mut(&session) else {
                return vec![format!("ERR no open session `{session}` on this shard")];
            };
            let total = facts.len();
            let mut lines = Vec::with_capacity(total + usize::from(batch));
            for spec in facts {
                let input = match parse_facts(&spec, open.transducer().schema().input()) {
                    Ok(input) => input,
                    Err(detail) => {
                        lines.push(format!("ERR {detail}"));
                        continue;
                    }
                };
                match open.step(&input) {
                    Ok(output) => lines.push(format!("OUT {}", render_instance(&output))),
                    Err(e) => lines.push(format!("ERR {e}")),
                }
            }
            if batch {
                lines.push(format!("OK batch {total}"));
            }
            lines
        }
        Request::Close { session } => match sessions.remove(&session) {
            Some(_) => vec![format!("OK close {session}")],
            None => vec![format!("ERR no open session `{session}` on this shard")],
        },
    }
}

/// Strictly parses the value of a command-line flag for `rtx-frontd` and
/// `rtx-loadgen`.  `value` is the argument after the flag (`None` when the
/// flag ended the command line).  A missing value, or one `T` does not
/// parse, is an error naming the flag and the offending text; the binaries
/// print it with their usage line and exit non-zero.  Counts parse as
/// [`NonZeroUsize`](std::num::NonZeroUsize), so `0` is refused rather than
/// clamped.
pub fn flag_value<T>(flag: &str, value: Option<String>) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let value = value.ok_or_else(|| format!("{flag} requires a value"))?;
    value
        .parse()
        .map_err(|e| format!("{flag}: invalid value `{value}`: {e}"))
}

/// A blocking line-protocol client for [`FrontServer`].
pub struct FrontClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl FrontClient {
    /// Connects to a front-end server.
    pub fn connect(addr: SocketAddr) -> io::Result<FrontClient> {
        let stream = TcpStream::connect(addr)?;
        Ok(FrontClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one command line and reads one reply line.
    pub fn request(&mut self, command: &str) -> io::Result<String> {
        writeln!(self.writer, "{command}")?;
        self.read_reply()
    }

    /// Sends one command and retries for as long as the server answers
    /// `BUSY` — the client-side half of the explicit backpressure contract.
    pub fn request_retrying(&mut self, command: &str) -> io::Result<String> {
        loop {
            let reply = self.request(command)?;
            if !reply.starts_with("BUSY") {
                return Ok(reply);
            }
            thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Sends a `BATCH` header plus its step lines, returning every reply
    /// line up to and including the terminating `OK`/`ERR`/`BUSY`.
    pub fn batch(&mut self, session: &str, steps: &[String]) -> io::Result<Vec<String>> {
        writeln!(self.writer, "BATCH {session} {}", steps.len())?;
        for step in steps {
            writeln!(self.writer, "{step}")?;
        }
        let mut replies = Vec::new();
        loop {
            let reply = self.read_reply()?;
            let done = !reply.starts_with("OUT");
            replies.push(reply);
            if done {
                return Ok(replies);
            }
        }
    }

    fn read_reply(&mut self) -> io::Result<String> {
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(reply.trim_end().to_string())
    }
}

/// The end-to-end smoke exchange `rtx-frontd --smoke` (and CI) runs against
/// a live server: open plain and demanded sessions, step them, batch-step,
/// read health, shut the server down.  Returns the first mismatch as an
/// error.
pub fn run_smoke(addr: SocketAddr) -> Result<(), String> {
    let fail = |detail: String| -> Result<(), String> { Err(detail) };
    let mut client = FrontClient::connect(addr).map_err(|e| e.to_string())?;
    let expect = |got: String, want_prefix: &str| -> Result<String, String> {
        if got.starts_with(want_prefix) {
            Ok(got)
        } else {
            Err(format!("expected `{want_prefix}…`, got `{got}`"))
        }
    };

    let mut req = |cmd: &str| client.request_retrying(cmd).map_err(|e| e.to_string());
    expect(req("OPEN smoke-1 short")?, "OK open smoke-1 shard=")?;
    let out = expect(req("STEP smoke-1 order(time)")?, "OUT ")?;
    if !out.contains("sendbill(time,855)") {
        return fail(format!("ordering time must bill 855, got `{out}`"));
    }
    expect(req("OPEN probe storefront demand")?, "OK open probe")?;
    let out = expect(req("STEP probe browse(p1);refresh(t0)")?, "OUT ")?;
    if !out.contains("detail(p1,") {
        return fail(format!("browsing p1 must return its detail, got `{out}`"));
    }
    // A malformed model name and a duplicate open are typed errors.
    expect(req("OPEN smoke-1 short")?, "ERR ")?;
    expect(req("OPEN x no-such-model")?, "ERR ")?;

    let batch = client
        .batch(
            "smoke-1",
            &["pay(time,855)".to_string(), "order(newsweek)".to_string()],
        )
        .map_err(|e| e.to_string())?;
    if batch.len() != 3
        || !batch[0].contains("deliver(time)")
        || !batch[1].contains("sendbill(newsweek,845)")
        || batch[2] != "OK batch 2"
    {
        return fail(format!("unexpected batch replies: {batch:?}"));
    }

    let mut req = |cmd: &str| client.request_retrying(cmd).map_err(|e| e.to_string());
    let health = expect(req("HEALTH")?, "OK health ")?;
    if !health.contains("active=2") {
        return fail(format!("two sessions must be active, got `{health}`"));
    }
    expect(req("CLOSE probe")?, "OK close probe")?;
    expect(req("SHUTDOWN")?, "OK bye")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facts_round_trip_through_render_and_parse() {
        let schema = models::short_input_schema();
        let mut inst = Instance::empty(&schema);
        inst.insert("order", Tuple::from_iter(["time"])).unwrap();
        inst.insert("pay", Tuple::new(vec![Value::str("time"), Value::int(855)]))
            .unwrap();
        let rendered = render_instance(&inst);
        assert_eq!(rendered, "order(time);pay(time,855)");
        assert_eq!(parse_facts(&rendered, &schema).unwrap(), inst);

        let empty = Instance::empty(&schema);
        assert_eq!(render_instance(&empty), "-");
        assert_eq!(parse_facts("-", &schema).unwrap(), empty);
        assert_eq!(parse_facts("", &schema).unwrap(), empty);

        // Malformed facts and schema violations are typed errors.
        assert!(parse_facts("order(", &schema).is_err());
        assert!(parse_facts("nope(x)", &schema).is_err());
        assert!(parse_facts("order(x,y,z)", &schema).is_err());
    }

    fn shards_flag(value: Option<&str>) -> Result<usize, String> {
        flag_value::<std::num::NonZeroUsize>("--shards", value.map(str::to_string)).map(|n| n.get())
    }

    #[test]
    fn flag_value_rejects_a_missing_value() {
        let err = shards_flag(None).unwrap_err();
        assert_eq!(err, "--shards requires a value");
        assert_eq!(shards_flag(Some("4")), Ok(4));
    }

    #[test]
    fn flag_value_rejects_a_zero_count() {
        let err = shards_flag(Some("0")).unwrap_err();
        assert!(err.starts_with("--shards: invalid value `0`"), "{err}");
    }

    #[test]
    fn flag_value_rejects_a_negative_count() {
        let err = shards_flag(Some("-2")).unwrap_err();
        assert!(err.starts_with("--shards: invalid value `-2`"), "{err}");
    }

    #[test]
    fn flag_value_rejects_a_word() {
        let err = shards_flag(Some("two")).unwrap_err();
        assert!(err.starts_with("--shards: invalid value `two`"), "{err}");
    }

    #[test]
    fn flag_value_rejects_a_fraction() {
        let err = shards_flag(Some("2.5")).unwrap_err();
        assert!(err.starts_with("--shards: invalid value `2.5`"), "{err}");
    }

    #[test]
    fn combined_catalog_covers_every_model() {
        let db = Arc::new(ResidentDb::new(combined_catalog()));
        let fleet = ShardedRuntime::shared(Arc::clone(&db), 2);
        for name in MODEL_NAMES {
            let model = lookup_model(name).unwrap();
            let _session = fleet
                .open_session(format!("cover-{name}"), model.transducer)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        assert!(lookup_model("no-such-model").is_none());
    }

    #[test]
    fn the_smoke_exchange_passes_against_a_live_server() {
        let server = FrontServer::bind(
            "127.0.0.1:0",
            FrontConfig {
                shards: 2,
                queue_depth: 8,
                parallelism: Parallelism::sequential(),
            },
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let serving = thread::spawn(move || server.serve());
        run_smoke(addr).unwrap();
        serving.join().unwrap().unwrap();
    }

    #[test]
    fn wire_steps_match_the_in_process_session() {
        // The front-end is a transport, not a semantics layer: a session
        // driven over the wire must produce byte-identical rendered outputs
        // to the same session stepped in process.
        let db = Arc::new(ResidentDb::new(combined_catalog()));
        let reference_rt = ShardedRuntime::shared(db, 1);
        let mut reference = reference_rt
            .open_session("w", Arc::new(models::short()))
            .unwrap();
        let inputs = rtx_workloads::customer_session(&combined_catalog(), 5, 200, 0.9, 11);

        let server = FrontServer::bind("127.0.0.1:0", FrontConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let serving = thread::spawn(move || server.serve());
        let mut client = FrontClient::connect(addr).unwrap();
        client.request_retrying("OPEN w short").unwrap();
        for input in inputs.iter() {
            let expected = render_instance(&reference.step(input).unwrap());
            let got = client
                .request_retrying(&format!("STEP w {}", render_instance(input)))
                .unwrap();
            assert_eq!(got, format!("OUT {expected}"));
        }
        client.request_retrying("SHUTDOWN").unwrap();
        serving.join().unwrap().unwrap();
    }
}
