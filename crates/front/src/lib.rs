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
//! # Transport
//!
//! A wire `STEP` costs what its work costs — parse, step, render — plus one
//! queue hop each way:
//!
//! * every accepted stream, and every [`FrontClient`], sets `TCP_NODELAY`,
//!   and every reply leaves in exactly **one** `write_all` (a `BATCH`'s n+1
//!   lines included), so no line waits for the peer's delayed ACK;
//! * each connection owns **one reusable job**: the request, a batch's step
//!   lines and the reply buffer travel to the shard worker and come back
//!   over the connection's own `sync_channel(1)`, and the worker renders
//!   the reply straight into that buffer.  A warm connection allocates no
//!   buffers per request;
//! * the servable models ([`MODEL_NAMES`]) are built once, at
//!   [`FrontServer::bind`], and every `OPEN` shares them;
//! * input is bounded before anything is allocated for it: a line (request
//!   or batch step) longer than 64 KiB, or a `BATCH` of more than 4,096
//!   steps, is answered with an `ERR` and closes **that** connection only,
//!   since its stream is out of sync.  Every other connection and session is
//!   unaffected.
//!
//! # Protocol
//!
//! Requests are single lines, replies are single lines (except `BATCH`,
//! which replies one line per step followed by `OK`):
//!
//! | request | reply |
//! |---|---|
//! | `OPEN <session> <model> [demand]` | `OK open <session> shard=<k>` |
//! | `STEP <session> <facts>` | `OUT <facts>` |
//! | `BATCH <session> <n>` + n fact lines | per step `OUT <facts>` or `ERR step <i>: <detail>`, then `OK batch <n>` |
//! | `CLOSE <session>` | `OK close <session>` |
//! | `HEALTH` | `OK health active=… quarantined=… violations=… rejections=…` |
//! | `SHUTDOWN` | `OK bye` |
//!
//! plus `ERR <detail>` for any failure and `BUSY <detail>` for backpressure.
//! Inside a batch a failing step answers `ERR step <i>: <detail>` (`<i>`
//! counts the batch's steps from 0) and the batch goes on; any other `ERR`,
//! or `BUSY`, is the whole reply.  `<facts>` is `-` (empty instance) or
//! `rel(v,…);rel(v,…)` with integer or bare-string values — see
//! [`parse_facts`]/[`render_instance`], which round-trip.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rtx_core::{models, SessionDemand, ShardedRuntime, ShardedSession, SpocusTransducer};
use rtx_datalog::{Parallelism, ResidentDb};
use rtx_relational::{Instance, RelationalError, Schema, Tuple, Value};
use rtx_workloads::scenarios::{self, Scenario};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

/// The longest line the server reads, request or batch step, without its
/// line end.
const MAX_LINE_BYTES: usize = 64 * 1024;
/// The most steps one `BATCH` may carry.
const MAX_BATCH_STEPS: usize = 4096;

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

/// Builds a servable model by name: the paper's `short` model, the
/// workload `category`/`storefront` models (the latter with its
/// per-session demand), and the four guardrail scenarios.  Each call parses
/// and compiles a fresh transducer; [`FrontServer::bind`] calls it once per
/// [`MODEL_NAMES`] entry.
pub fn lookup_model(name: &str) -> Option<FrontModel> {
    let (name, transducer, demand) = match name {
        "short" => ("short", Arc::new(models::short()), None),
        "category" => ("category", Arc::new(rtx_workloads::category_model()), None),
        "storefront" => (
            "storefront",
            Arc::new(rtx_workloads::storefront_model()),
            Some(rtx_workloads::storefront_demand()),
        ),
        "auction" => ("auction", scenarios::auction_scenario().transducer, None),
        "inventory" => (
            "inventory",
            scenarios::inventory_scenario().transducer,
            None,
        ),
        "escrow" => ("escrow", scenarios::escrow_scenario().transducer, None),
        "fraud" => ("fraud", scenarios::fraud_scenario().transducer, None),
        _ => return None,
    };
    Some(FrontModel {
        name,
        transducer,
        demand,
    })
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
///
/// Every fact is checked against `schema` before any value is built: a
/// string value is interned into the process-wide symbol table for good,
/// so a rejected spec interns nothing.
pub fn parse_facts(spec: &str, schema: &Schema) -> Result<Instance, String> {
    let mut instance = Instance::empty(schema);
    let spec = spec.trim();
    if spec == "-" || spec.is_empty() {
        return Ok(instance);
    }
    for fact in split_facts(spec) {
        let (relation, args) = fact?;
        let expected = schema
            .iter()
            .find_map(|(name, arity)| (name.as_str() == relation).then_some(arity))
            .ok_or_else(|| {
                RelationalError::UnknownRelation {
                    name: relation.to_string(),
                }
                .to_string()
            })?;
        let actual = if args.is_empty() {
            0
        } else {
            args.split(',').count()
        };
        if actual != expected {
            return Err(RelationalError::ArityMismatch {
                relation: relation.to_string(),
                expected,
                actual,
            }
            .to_string());
        }
    }
    for fact in split_facts(spec) {
        let (relation, args) = fact?;
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

/// The `(relation, arguments)` text of each fact of a non-empty spec.
fn split_facts(spec: &str) -> impl Iterator<Item = Result<(&str, &str), String>> {
    spec.split(';').filter(|f| !f.is_empty()).map(|fact| {
        fact.strip_suffix(')')
            .and_then(|f| f.split_once('('))
            .ok_or_else(|| format!("malformed fact `{fact}`: expected rel(v,...)"))
    })
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
    let mut out = String::new();
    render_into(instance, &mut out);
    out
}

/// Appends [`render_instance`]'s rendering of `instance` to `out`.  Facts
/// are written in instance order, which is usually already the sorted
/// order; only when it is not (integers sort numerically in a relation,
/// textually on the wire) are they collected and sorted.
fn render_into(instance: &Instance, out: &mut String) {
    let start = out.len();
    let mut previous = start;
    let mut sorted = true;
    for (name, relation) in instance.iter() {
        for tuple in relation.iter() {
            if out.len() > start {
                out.push(';');
            }
            let fact = out.len();
            render_fact(name.as_str(), tuple, out);
            sorted &= fact == start || out[previous..fact - 1] <= out[fact..];
            previous = fact;
        }
    }
    if out.len() == start {
        out.push('-');
    } else if !sorted {
        out.truncate(start);
        let mut facts: Vec<String> = Vec::new();
        for (name, relation) in instance.iter() {
            for tuple in relation.iter() {
                let mut fact = String::new();
                render_fact(name.as_str(), tuple, &mut fact);
                facts.push(fact);
            }
        }
        facts.sort();
        out.push_str(&facts.join(";"));
    }
}

fn render_fact(relation: &str, tuple: &Tuple, out: &mut String) {
    out.push_str(relation);
    out.push('(');
    for (i, value) in tuple.values().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match value {
            // Writing to a `String` cannot fail.
            Value::Int(n) => _ = write!(out, "{n}"),
            Value::Sym(symbol) => out.push_str(symbol.as_str()),
        }
    }
    out.push(')');
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

/// What a [`Job`] asks its session's shard worker to do.
#[derive(Clone, Copy)]
enum Verb {
    /// `OPEN`, of the model at this index of the server's registry.
    Open {
        model: usize,
        demanded: bool,
    },
    /// `STEP` (one step) or `BATCH`: the job's first `steps` lines.
    Steps {
        batch: bool,
    },
    Close,
}

/// A connection's one request slot, reused for every request: it carries a
/// request to the session's shard worker and comes back, over the
/// connection's own `sync_channel(1)`, holding the reply.
struct Job {
    verb: Verb,
    session: String,
    /// Fact lines of a `STEP` or `BATCH`; only the first `steps` are this
    /// request's (the rest are buffers kept from longer batches).
    lines: Vec<String>,
    steps: usize,
    /// The reply: whole lines, each ending in `\n`, sent in one write.
    reply: String,
    /// The way back to the connection.
    back: mpsc::SyncSender<Job>,
}

impl Job {
    /// A fresh job and the receiver it comes back on.
    fn new() -> (Job, mpsc::Receiver<Job>) {
        let (back, returns) = mpsc::sync_channel(1);
        let job = Job {
            verb: Verb::Close,
            session: String::new(),
            lines: Vec::new(),
            steps: 0,
            reply: String::new(),
            back,
        };
        (job, returns)
    }
}

/// The line-protocol server: a [`ShardedRuntime`] fronted by one bounded
/// queue + worker thread per shard.  See the [crate docs](self) for the
/// protocol and threading model.
pub struct FrontServer {
    listener: TcpListener,
    fleet: ShardedRuntime,
    models: Arc<[FrontModel]>,
    queues: Vec<mpsc::SyncSender<Job>>,
    workers: Vec<thread::JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
}

impl FrontServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port), builds every
    /// servable model once, and spawns the shard workers over a freshly
    /// resident [`combined_catalog`].
    pub fn bind(addr: &str, config: FrontConfig) -> io::Result<FrontServer> {
        let listener = TcpListener::bind(addr)?;
        let fleet = ShardedRuntime::shared_with(
            Arc::new(ResidentDb::new(combined_catalog())),
            config.shards,
            config.parallelism,
        );
        let models: Arc<[FrontModel]> = MODEL_NAMES
            .iter()
            .map(|name| lookup_model(name).expect("every listed model is servable"))
            .collect();
        let mut queues = Vec::with_capacity(fleet.shard_count());
        let mut workers = Vec::with_capacity(fleet.shard_count());
        for shard in 0..fleet.shard_count() {
            let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_depth.max(1));
            let fleet = fleet.clone();
            let models = Arc::clone(&models);
            workers.push(
                thread::Builder::new()
                    .name(format!("rtx-front-shard-{shard}"))
                    .spawn(move || shard_worker(fleet, models, rx))
                    .expect("spawn shard worker"),
            );
            queues.push(tx);
        }
        Ok(FrontServer {
            listener,
            fleet,
            models,
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
            let connection = Connection {
                fleet: self.fleet.clone(),
                models: Arc::clone(&self.models),
                queues: self.queues.clone(),
                shutdown: Arc::clone(&self.shutdown),
                server_addr: addr,
            };
            connections.push(
                thread::Builder::new()
                    .name("rtx-front-conn".to_string())
                    .spawn(move || {
                        let _ = connection.serve(stream);
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

/// One line read by [`read_line_capped`].
enum Line<'a> {
    Text(&'a str),
    TooLong,
    End,
}

/// Reads one line of at most [`MAX_LINE_BYTES`] (plus its line end) into
/// `raw`, never buffering more than that however long the line is.
fn read_line_capped<'a>(
    reader: &mut BufReader<TcpStream>,
    raw: &'a mut Vec<u8>,
) -> io::Result<Line<'a>> {
    raw.clear();
    let limit = MAX_LINE_BYTES as u64 + 1;
    let read = reader.by_ref().take(limit).read_until(b'\n', raw)?;
    if read == 0 {
        return Ok(Line::End);
    }
    if read as u64 == limit && raw.last() != Some(&b'\n') {
        return Ok(Line::TooLong);
    }
    std::str::from_utf8(raw)
        .map(Line::Text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// What a connection thread shares with the rest of the server.
struct Connection {
    fleet: ShardedRuntime,
    models: Arc<[FrontModel]>,
    queues: Vec<mpsc::SyncSender<Job>>,
    shutdown: Arc<AtomicBool>,
    server_addr: SocketAddr,
}

impl Connection {
    /// Handles one client connection: parse a command line, route it to the
    /// owning shard's queue (or answer directly for `HEALTH`/`SHUTDOWN` and
    /// malformed requests), write the reply in one write.
    fn serve(&self, stream: TcpStream) -> io::Result<()> {
        stream.set_nodelay(true)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        let (mut job, mut returns) = Job::new();
        let (mut raw, mut step_raw) = (Vec::new(), Vec::new());
        loop {
            let command = match read_line_capped(&mut reader, &mut raw)? {
                Line::Text(line) => line.trim(),
                Line::TooLong => {
                    return refuse(
                        &mut writer,
                        format_args!("line longer than {MAX_LINE_BYTES} bytes"),
                    )
                }
                Line::End => return Ok(()),
            };
            if command.is_empty() {
                continue;
            }
            job.reply.clear();
            let mut parts = command.splitn(3, ' ');
            let verb = parts.next().unwrap_or_default();
            let session = parts.next().unwrap_or_default();
            let rest = parts.next().unwrap_or_default();
            let is = |name: &str| verb.eq_ignore_ascii_case(name);
            if is("HEALTH") {
                let health = self.fleet.health();
                _ = writeln!(
                    job.reply,
                    "OK health active={} quarantined={} violations={} rejections={}",
                    health.active_sessions,
                    health.quarantined_sessions.len(),
                    health.violations,
                    health.rejections
                );
            } else if is("SHUTDOWN") {
                self.shutdown.store(true, Ordering::SeqCst);
                writer.write_all(b"OK bye\n")?;
                // Wake the accept loop so it observes the flag.
                let _ = TcpStream::connect(self.server_addr);
                return Ok(());
            } else if is("OPEN") {
                let mut rest = rest.split_whitespace();
                let model = rest.next().unwrap_or_default();
                let demanded = rest.next() == Some("demand");
                let index = self.models.iter().position(|m| m.name == model);
                if session.is_empty() || model.is_empty() {
                    job.reply
                        .push_str("ERR usage: OPEN <session> <model> [demand]\n");
                } else if let Some(index) = index {
                    if demanded && self.models[index].demand.is_none() {
                        _ = writeln!(job.reply, "ERR model `{model}` defines no demand");
                    } else {
                        job.verb = Verb::Open {
                            model: index,
                            demanded,
                        };
                        job = self.dispatch(job, session, &mut returns);
                    }
                } else {
                    _ = writeln!(
                        job.reply,
                        "ERR unknown model `{model}` (known: {})",
                        MODEL_NAMES.join(", ")
                    );
                }
            } else if is("STEP") {
                if session.is_empty() {
                    job.reply.push_str("ERR usage: STEP <session> <facts>\n");
                } else {
                    set_line(&mut job, 0, rest.trim());
                    job.verb = Verb::Steps { batch: false };
                    job.steps = 1;
                    job = self.dispatch(job, session, &mut returns);
                }
            } else if is("BATCH") {
                match rest.trim().parse::<usize>() {
                    Ok(count) if count > MAX_BATCH_STEPS => {
                        return refuse(
                            &mut writer,
                            format_args!(
                                "batch of {count} steps exceeds the {MAX_BATCH_STEPS}-step limit"
                            ),
                        );
                    }
                    Ok(count) => {
                        for i in 0..count {
                            match read_line_capped(&mut reader, &mut step_raw)? {
                                Line::Text(facts) => set_line(&mut job, i, facts.trim()),
                                Line::TooLong => {
                                    return refuse(
                                        &mut writer,
                                        format_args!("line longer than {MAX_LINE_BYTES} bytes"),
                                    )
                                }
                                Line::End => return Ok(()),
                            }
                        }
                        if session.is_empty() {
                            job.reply.push_str("ERR usage: BATCH <session> <count>\n");
                        } else {
                            job.verb = Verb::Steps { batch: true };
                            job.steps = count;
                            job = self.dispatch(job, session, &mut returns);
                        }
                    }
                    Err(_) => job.reply.push_str("ERR usage: BATCH <session> <count>\n"),
                }
            } else if is("CLOSE") {
                if session.is_empty() {
                    job.reply.push_str("ERR usage: CLOSE <session>\n");
                } else {
                    job.verb = Verb::Close;
                    job = self.dispatch(job, session, &mut returns);
                }
            } else {
                let verb = verb.to_ascii_uppercase();
                _ = writeln!(job.reply, "ERR unknown command `{verb}`");
            }
            writer.write_all(job.reply.as_bytes())?;
        }
    }

    /// Routes a job to its session's home shard with **explicit
    /// backpressure**: a full shard queue answers `BUSY` right away instead
    /// of blocking the connection or queueing without bound.  Returns the
    /// job holding the reply.
    fn dispatch(&self, mut job: Job, session: &str, returns: &mut mpsc::Receiver<Job>) -> Job {
        job.session.clear();
        job.session.push_str(session);
        let shard = self.fleet.shard_of(session);
        match self.queues[shard].try_send(job) {
            Ok(()) => returns.recv().unwrap_or_else(|_| {
                // The worker dropped the job: start over with a new one.
                let (mut job, fresh) = Job::new();
                *returns = fresh;
                _ = writeln!(job.reply, "ERR shard {shard} worker is gone");
                job
            }),
            Err(mpsc::TrySendError::Full(mut job)) => {
                _ = writeln!(job.reply, "BUSY shard {shard} queue is full, retry");
                job
            }
            Err(mpsc::TrySendError::Disconnected(mut job)) => {
                _ = writeln!(job.reply, "ERR shard {shard} worker is gone");
                job
            }
        }
    }
}

/// Stores `facts` as the job's `i`-th step line, reusing its buffer.
fn set_line(job: &mut Job, i: usize, facts: &str) {
    if i == job.lines.len() {
        job.lines.push(String::new());
    }
    job.lines[i].clear();
    job.lines[i].push_str(facts);
}

/// Answers an over-limit request with `ERR <detail>` and ends the
/// connection: the rest of its stream can no longer be parsed.
fn refuse(writer: &mut TcpStream, detail: std::fmt::Arguments) -> io::Result<()> {
    writer.write_all(format!("ERR {detail}; closing the connection\n").as_bytes())
}

/// One shard's worker loop: owns every session routed to this shard, and is
/// the only thread that ever steps them.
fn shard_worker(fleet: ShardedRuntime, models: Arc<[FrontModel]>, jobs: mpsc::Receiver<Job>) {
    let mut sessions: HashMap<String, ShardedSession> = HashMap::new();
    while let Ok(mut job) = jobs.recv() {
        execute(&fleet, &models, &mut sessions, &mut job);
        let back = job.back.clone();
        let _ = back.send(job);
    }
}

/// Runs one job, appending its reply lines to `job.reply`.
fn execute(
    fleet: &ShardedRuntime,
    models: &[FrontModel],
    sessions: &mut HashMap<String, ShardedSession>,
    job: &mut Job,
) {
    let Job {
        verb,
        session,
        lines,
        steps,
        reply,
        ..
    } = job;
    match *verb {
        Verb::Open { model, demanded } => {
            let model = &models[model];
            let transducer = Arc::clone(&model.transducer);
            let opened = match &model.demand {
                Some(demand) if demanded => {
                    fleet.open_session_with_demand(session.clone(), transducer, demand.clone())
                }
                _ => fleet.open_session(session.clone(), transducer),
            };
            match opened {
                Ok(opened) => {
                    _ = writeln!(reply, "OK open {session} shard={}", opened.shard());
                    sessions.insert(session.clone(), opened);
                }
                Err(e) => _ = writeln!(reply, "ERR {e}"),
            }
        }
        Verb::Steps { batch } => {
            let Some(open) = sessions.get_mut(session.as_str()) else {
                _ = writeln!(reply, "ERR no open session `{session}` on this shard");
                return;
            };
            for (i, spec) in lines[..*steps].iter().enumerate() {
                let stepped = parse_facts(spec, open.transducer().schema().input())
                    .and_then(|input| open.step(&input).map_err(|e| e.to_string()));
                match stepped {
                    Ok(output) => {
                        reply.push_str("OUT ");
                        render_into(&output, reply);
                        reply.push('\n');
                    }
                    Err(detail) if batch => _ = writeln!(reply, "ERR step {i}: {detail}"),
                    Err(detail) => _ = writeln!(reply, "ERR {detail}"),
                }
            }
            if batch {
                _ = writeln!(reply, "OK batch {steps}");
            }
        }
        Verb::Close => match sessions.remove(session.as_str()) {
            Some(_) => _ = writeln!(reply, "OK close {session}"),
            None => _ = writeln!(reply, "ERR no open session `{session}` on this shard"),
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

/// A blocking line-protocol client for [`FrontServer`].  Like the server it
/// sets `TCP_NODELAY` and sends each request, a whole `BATCH` included, in
/// one write from a reused buffer.
pub struct FrontClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    request: String,
}

impl FrontClient {
    /// Connects to a front-end server.
    pub fn connect(addr: SocketAddr) -> io::Result<FrontClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(FrontClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            request: String::new(),
        })
    }

    /// Sends one command line and reads one reply line.
    pub fn request(&mut self, command: &str) -> io::Result<String> {
        self.request.clear();
        self.request.push_str(command);
        self.request.push('\n');
        self.writer.write_all(self.request.as_bytes())?;
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
    /// line up to and including the terminating `OK batch`, `BUSY` or `ERR`
    /// (a failing step's `ERR step <i>: …` does not end the batch).
    pub fn batch(&mut self, session: &str, steps: &[String]) -> io::Result<Vec<String>> {
        self.request.clear();
        _ = writeln!(self.request, "BATCH {session} {}", steps.len());
        for step in steps {
            self.request.push_str(step);
            self.request.push('\n');
        }
        self.writer.write_all(self.request.as_bytes())?;
        let mut replies = Vec::new();
        loop {
            let reply = self.read_reply()?;
            let done = !(reply.starts_with("OUT") || reply.starts_with("ERR step "));
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

        // Integers order numerically in a relation but textually on the
        // wire: 9 < 10, yet `pay(time,10)` renders first.
        inst.insert("pay", Tuple::new(vec![Value::str("time"), Value::int(9)]))
            .unwrap();
        inst.insert("pay", Tuple::new(vec![Value::str("time"), Value::int(10)]))
            .unwrap();
        let rendered = render_instance(&inst);
        assert_eq!(
            rendered,
            "order(time);pay(time,10);pay(time,855);pay(time,9)"
        );
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

    fn serve_in_background() -> (SocketAddr, thread::JoinHandle<io::Result<()>>) {
        let server = FrontServer::bind("127.0.0.1:0", FrontConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        (addr, thread::spawn(move || server.serve()))
    }

    #[test]
    fn a_failing_batch_step_keeps_the_client_in_sync() {
        // On the parent, the client stopped reading at the first non-`OUT`
        // line, so the next `HEALTH` read this batch's third reply.
        let (addr, serving) = serve_in_background();
        let mut client = FrontClient::connect(addr).unwrap();
        client.request_retrying("OPEN b short").unwrap();
        let steps = ["order(time)", "order(", "order(newsweek)"].map(str::to_string);
        let replies = client.batch("b", &steps).unwrap();
        assert_eq!(replies.len(), 4, "{replies:?}");
        assert_eq!(replies[0], "OUT sendbill(time,855)");
        assert!(
            replies[1].starts_with("ERR step 1: malformed fact"),
            "{replies:?}"
        );
        assert_eq!(replies[2], "OUT sendbill(newsweek,845)");
        assert_eq!(replies[3], "OK batch 3");
        let health = client.request("HEALTH").unwrap();
        assert!(health.starts_with("OK health active=1 "), "{health}");
        assert_eq!(client.request("CLOSE b").unwrap(), "OK close b");
        client.request("SHUTDOWN").unwrap();
        serving.join().unwrap().unwrap();
    }

    #[test]
    fn oversized_requests_close_only_their_own_connection() {
        let (addr, serving) = serve_in_background();
        let mut keeper = FrontClient::connect(addr).unwrap();
        keeper.request_retrying("OPEN keep short").unwrap();
        let oversized = "x".repeat(MAX_LINE_BYTES + 1);
        let attacks = [
            (
                "BATCH keep 100000000000\n".to_string(),
                "ERR batch of 100000000000 steps",
            ),
            (oversized.clone(), "ERR line longer than 65536 bytes"),
            (format!("BATCH keep 1\n{oversized}"), "ERR line longer than"),
        ];
        for (request, refusal) in attacks {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(request.as_bytes()).unwrap();
            let mut reply = String::new();
            stream.read_to_string(&mut reply).unwrap();
            assert!(reply.starts_with(refusal), "{reply}");
            assert!(reply.ends_with("; closing the connection\n"), "{reply}");

            // A fresh connection still steps the session opened earlier.
            let mut fresh = FrontClient::connect(addr).unwrap();
            let out = fresh.request_retrying("STEP keep order(time)").unwrap();
            assert_eq!(out, "OUT sendbill(time,855)");
        }
        keeper.request("SHUTDOWN").unwrap();
        serving.join().unwrap().unwrap();
    }
}
