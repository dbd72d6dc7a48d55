//! `wire_fleet`: the north-star path — a client's `STEP` over the
//! `rtx-front` wire to its `OUT` reply — and the only workload that pays
//! parse → queue → shard hop → render → socket.
//!
//! An in-process `FrontServer` (2 shards, queue depth 64, sequential
//! evaluation) serves its built-in 200-product `combined_catalog()`, so
//! evaluation is minor.  [`CONNECTIONS`] closed-loop connections — a
//! session's `STEP n+1` depends on `OUT n`, and the protocol has no
//! pipelining — each keep 32 live sessions cycling `short` / `category` /
//! demanded `storefront`, step them round-robin, send a session's last 4 of
//! 16 steps as one `BATCH 4`, `CLOSE` it and `OPEN` a replacement.  The
//! client is the benchmark's own (one `write_all` per request, `TCP_NODELAY`)
//! so that the numbers are the server's, not a client library's.
//!
//! Every reply must equal the `render_instance` of an in-process reference
//! session's output; `ERR`, `BUSY`, an I/O error or a differing line is a
//! failed operation.

use crate::common::{self, phase, Conductor, RunConfig};
use crate::fleet::{script_pool, Kind, MirrorPlans, Models, Script};
use crate::gen::{PriceTable, ScheduleHash};
use crate::mirror::Mirror;
use crate::report::Outcome;
use crate::stats::Samples;
use crate::trace::{Span, SpanId, Tracer};
use rtx_core::{Runtime, Session};
use rtx_datalog::{Parallelism, ResidentDb};
use rtx_front::{
    combined_catalog, parse_facts, render_instance, FrontClient, FrontConfig, FrontServer,
};
use rtx_relational::SymbolTable;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Closed-loop client connections, one thread each.  The ground rule for
/// generators is `G = min(2, nproc)`; the wire needs more than that, because
/// a request here spends ~44 ms parked on a kernel timer (see the README) and
/// two connections would complete fewer than the 1,000 single steps a p99
/// needs.  The threads are idle while they wait, so 8 fit on 2 cores.
const CONNECTIONS: usize = 8;
const LIVE_PER_CONNECTION: usize = 32;
/// Operations the exact counts are taken over (across all connections; a
/// request takes ~44 ms, so this is about a second and a half).
const COUNT_OPS: usize = 256;

/// The size of the fleet: the constants above, or a sliver for `--quick`.
#[derive(Clone, Copy)]
struct Shape {
    connections: usize,
    live: usize,
    count_ops: usize,
}

fn shape(config: &RunConfig) -> Shape {
    if config.quick {
        Shape {
            connections: 2,
            live: 4,
            count_ops: 16,
        }
    } else {
        Shape {
            connections: CONNECTIONS,
            live: LIVE_PER_CONNECTION,
            count_ops: COUNT_OPS,
        }
    }
}
const STEPS_PER_SESSION: usize = 16;
/// The last steps of every session go in one `BATCH`.
const BATCH: usize = 4;
const KINDS: [Kind; 3] = [Kind::Short, Kind::Category, Kind::StorefrontDemand];
/// Scripts in the shared pool, cycled by every connection.
const SCRIPTS: usize = 96;
/// Products `p0`–`p199` of the front-end's combined catalog.
const PRODUCTS: usize = 200;

/// The benchmark's own line client.
struct WireClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    request: Vec<u8>,
    reply: String,
    bytes: u64,
}

impl WireClient {
    fn connect(addr: SocketAddr) -> io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(WireClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            request: Vec::with_capacity(1024),
            reply: String::with_capacity(1024),
            bytes: 0,
        })
    }

    /// Starts a request line: `<verb> <session>`.
    fn begin(&mut self, verb: &str, session: &str) {
        self.request.clear();
        self.request.extend_from_slice(verb.as_bytes());
        self.request.push(b' ');
        self.request.extend_from_slice(session.as_bytes());
    }

    fn push(&mut self, text: &str) {
        self.request.extend_from_slice(text.as_bytes());
    }

    /// Sends everything built since [`WireClient::begin`] in one write.
    fn send(&mut self) -> io::Result<()> {
        self.bytes += self.request.len() as u64;
        self.writer.write_all(&self.request)
    }

    /// Reads one reply line (without its line end).
    fn receive(&mut self) -> io::Result<&str> {
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.bytes += self.reply.len() as u64;
        Ok(self.reply.trim_end())
    }
}

/// A script with everything the wire needs precomputed: the `<facts>` of
/// every step and the exact reply line the server must send back.
struct WireScript {
    kind: Kind,
    facts: Vec<String>,
    expected: Vec<String>,
}

/// Runs every script once through an in-process reference session over the
/// same catalog, recording the reply each step must produce.
fn wire_scripts(pool: &[Script], models: &Models) -> Result<Vec<WireScript>, String> {
    let reference = reference_runtime();
    pool.iter()
        .enumerate()
        .map(|(n, script)| {
            let mut session =
                models.open_reference(&reference, script.kind, format!("expect-{n}"))?;
            let expected = script
                .inputs
                .iter()
                .map(|input| {
                    session
                        .step(input)
                        .map(|output| format!("OUT {}", render_instance(&output)))
                        .map_err(|e| e.to_string())
                })
                .collect::<Result<_, _>>()?;
            Ok(WireScript {
                kind: script.kind,
                facts: script.inputs.iter().map(render_instance).collect(),
                expected,
            })
        })
        .collect()
}

fn reference_runtime() -> Runtime {
    Runtime::shared_with(
        Arc::new(ResidentDb::new(combined_catalog())),
        Parallelism::sequential(),
    )
}

/// A running in-process server.
struct Server {
    addr: SocketAddr,
    serving: Option<JoinHandle<io::Result<()>>>,
}

impl Server {
    fn start() -> Result<Server, String> {
        let server = FrontServer::bind(
            "127.0.0.1:0",
            FrontConfig {
                shards: 2,
                queue_depth: 64,
                parallelism: Parallelism::sequential(),
            },
        )
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        Ok(Server {
            addr,
            serving: Some(std::thread::spawn(move || server.serve())),
        })
    }

    /// Shuts the server down and waits for it.  Every client connection must
    /// be closed first: the server joins its connection threads.
    fn stop(mut self) -> Result<(), String> {
        let mut client = WireClient::connect(self.addr).map_err(|e| format!("shutdown: {e}"))?;
        client.begin("SHUTDOWN", "");
        client.push("\n");
        client.send().map_err(|e| e.to_string())?;
        let reply = client.receive().map_err(|e| e.to_string())?.to_string();
        drop(client);
        let served = self.serving.take().expect("stop runs once").join();
        match (reply.as_str(), served) {
            ("OK bye", Ok(Ok(()))) => Ok(()),
            (reply, served) => Err(format!("shutdown: reply `{reply}`, server {served:?}")),
        }
    }
}

/// What a connection measured since the last reset.
struct WireStats {
    step: Samples,
    open: Samples,
    steps_ok: u64,
    attempted: u64,
    failed: u64,
    busy: u64,
    errors: u64,
    first_failures: Vec<String>,
}

impl WireStats {
    fn new() -> WireStats {
        WireStats {
            step: Samples::with_capacity(1 << 20),
            open: Samples::with_capacity(1 << 17),
            steps_ok: 0,
            attempted: 0,
            failed: 0,
            busy: 0,
            errors: 0,
            first_failures: Vec::new(),
        }
    }

    fn reset(&mut self) {
        self.step.clear();
        self.open.clear();
        self.steps_ok = 0;
        self.attempted = 0;
        self.failed = 0;
        self.busy = 0;
        self.errors = 0;
    }

    fn fail(&mut self, what: &str, got: &str) {
        self.failed += 1;
        if got.starts_with("BUSY") {
            self.busy += 1;
        } else if got.starts_with("ERR") {
            self.errors += 1;
        }
        if self.first_failures.len() < 4 {
            self.first_failures.push(format!("{what}: got `{got}`"));
        }
    }
}

/// The in-process replay of one wire session (traced pass): the reference
/// session the shard worker's work is re-executed on, and its mirror.
struct Replay {
    session: Session,
    mirror: Mirror,
}

struct WireSlot {
    name: String,
    script: usize,
    pos: usize,
    /// Single steps before the batch.
    singles: usize,
    replay: Option<Replay>,
}

/// What the traced pass adds to a connection.
struct WireProbe<'a> {
    tracer: Tracer,
    reference: Runtime,
    db: Arc<ResidentDb>,
    plans: &'a MirrorPlans,
    models: &'a Models,
    requests: u64,
    mismatches: Vec<String>,
}

impl WireProbe<'_> {
    fn next_request(&mut self) -> u64 {
        self.requests += 1;
        self.requests
    }

    fn open_replay(
        &mut self,
        kind: Kind,
        name: &str,
        root: SpanId,
        request: u64,
    ) -> Option<Replay> {
        let start = Instant::now();
        let session = self
            .models
            .open_reference(&self.reference, kind, name.to_string());
        let took = start.elapsed().as_nanos() as u64;
        self.tracer
            .record_replayed(kind.open_span(), root, request, 0, took);
        match (
            session,
            Mirror::new(self.plans.of(kind), &self.db, Parallelism::sequential()),
        ) {
            (Ok(session), Ok(mirror)) => Some(Replay { session, mirror }),
            (session, mirror) => {
                self.mismatches.push(format!(
                    "replay of `{name}` could not open: {:?} / {:?}",
                    session.err(),
                    mirror.err()
                ));
                None
            }
        }
    }

    /// Re-executes one step's server-side work through the same public
    /// calls — `parse_facts`, the session step, `render_instance` — laying
    /// the spans end to end inside the request's round trip, from `offset`.
    /// Returns the offset after them.
    #[allow(clippy::too_many_arguments)]
    fn replay_step(
        &mut self,
        replay: &mut Replay,
        kind: Kind,
        facts: &str,
        reply: &str,
        root: SpanId,
        request: u64,
        mut offset: u64,
    ) -> u64 {
        let start = Instant::now();
        let parsed = parse_facts(facts, replay.session.transducer().schema().input());
        let parse_ns = start.elapsed().as_nanos() as u64;
        self.tracer
            .record_replayed("front.parse_facts", root, request, offset, parse_ns);
        offset += parse_ns;
        let Ok(input) = parsed else {
            self.mismatches
                .push(format!("replay could not parse `{facts}`"));
            return offset;
        };

        let start = Instant::now();
        let stepped = replay.session.step(&input);
        let step_ns = start.elapsed().as_nanos() as u64;
        let step_span =
            self.tracer
                .record_replayed(kind.step_span(), root, request, offset, step_ns);
        match replay.mirror.step(&self.db, &input) {
            Ok(mirrored) => {
                // The evaluator cannot have taken longer than the step it
                // is part of; the mirror ran later, so clamp timer noise.
                let eval_ns = (mirrored.eval.as_nanos() as u64).min(step_ns);
                self.tracer
                    .record_replayed(kind.eval_span(), step_span, request, 0, eval_ns);
            }
            Err(e) => self.mismatches.push(format!("mirror: {e}")),
        }
        offset += step_ns;
        let Ok(output) = stepped else {
            self.mismatches.push("replayed step failed".to_string());
            return offset;
        };

        let start = Instant::now();
        let rendered = render_instance(&output);
        let render_ns = start.elapsed().as_nanos() as u64;
        self.tracer
            .record_replayed("front.render", root, request, offset, render_ns);
        if reply.strip_prefix("OUT ") != Some(rendered.as_str()) && self.mismatches.len() < 4 {
            self.mismatches.push(format!(
                "replay rendered `{rendered}`, the wire said `{reply}`"
            ));
        }
        offset + render_ns
    }
}

/// One closed-loop connection and its ring of live sessions.
struct Connection<'a> {
    client: WireClient,
    scripts: &'a [WireScript],
    tag: String,
    slots: Vec<WireSlot>,
    turn: usize,
    cursor: usize,
    opened: u64,
    stats: WireStats,
    probe: Option<WireProbe<'a>>,
}

impl<'a> Connection<'a> {
    /// Connects and opens the initial ring, with staggered first lengths.
    fn open(
        addr: SocketAddr,
        scripts: &'a [WireScript],
        tag: String,
        thread: usize,
        shape: Shape,
        probe: Option<WireProbe<'a>>,
    ) -> Result<Connection<'a>, String> {
        let mut connection = Connection {
            client: WireClient::connect(addr).map_err(|e| format!("connect: {e}"))?,
            scripts,
            tag,
            slots: Vec::with_capacity(shape.live),
            turn: 0,
            // Connections start at evenly spaced points of the shared pool.
            cursor: thread * SCRIPTS / shape.connections,
            opened: 0,
            stats: WireStats::new(),
            probe,
        };
        let singles = STEPS_PER_SESSION - BATCH;
        for j in 0..shape.live {
            let slot = connection.open_session((singles - j * singles / shape.live).max(1));
            connection.slots.push(slot);
        }
        if connection.stats.failed > 0 {
            return Err(format!(
                "opening sessions: {:?}",
                connection.stats.first_failures
            ));
        }
        connection.stats.reset();
        Ok(connection)
    }

    /// `OPEN`s the next session of the schedule.
    fn open_session(&mut self, singles: usize) -> WireSlot {
        let script = self.cursor % self.scripts.len();
        self.cursor += 1;
        let kind = self.scripts[script].kind;
        let name = format!("{}-{}", self.tag, self.opened);
        self.opened += 1;

        self.client.begin("OPEN", &name);
        self.client.push(" ");
        self.client.push(kind.model());
        if kind.is_demanded() {
            self.client.push(" demand");
        }
        self.client.push("\n");
        let start = Instant::now();
        let sent = self.client.send();
        let reply = sent.and_then(|()| self.client.receive().map(str::to_string));
        let end = Instant::now();
        self.stats.attempted += 1;
        match &reply {
            Ok(line) if line.starts_with("OK open ") => {
                self.stats.open.push((end - start).as_nanos() as u64);
            }
            Ok(line) => self.stats.fail("OPEN", line),
            Err(e) => self.stats.fail("OPEN", &e.to_string()),
        }
        let mut replay = None;
        if let Some(probe) = &mut self.probe {
            let request = probe.next_request();
            let root = probe
                .tracer
                .record("front.open_rtt", 0, request, start, end);
            replay = probe.open_replay(kind, &name, root, request);
        }
        WireSlot {
            name,
            script,
            pos: 0,
            singles,
            replay,
        }
    }

    /// The next operation of the ring: one `STEP`, or — for a session that
    /// has taken its single steps — `BATCH 4`, `CLOSE`, and the `OPEN` of
    /// its replacement.
    fn next_op(&mut self) {
        let turn = self.turn;
        self.turn = (turn + 1) % self.slots.len();
        if self.slots[turn].pos < self.slots[turn].singles {
            self.single_step(turn);
        } else {
            self.batch(turn);
            self.close(turn);
            let fresh = self.open_session(STEPS_PER_SESSION - BATCH);
            self.slots[turn] = fresh;
        }
    }

    fn single_step(&mut self, turn: usize) {
        let slot = &mut self.slots[turn];
        let script = &self.scripts[slot.script];
        let (facts, expected) = (&script.facts[slot.pos], &script.expected[slot.pos]);
        self.client.begin("STEP", &slot.name);
        self.client.push(" ");
        self.client.push(facts);
        self.client.push("\n");
        let start = Instant::now();
        let sent = self.client.send();
        let reply = sent.and_then(|()| self.client.receive());
        let end = Instant::now();
        self.stats.attempted += 1;
        match reply {
            Ok(line) if line == expected => {
                self.stats.step.push((end - start).as_nanos() as u64);
                self.stats.steps_ok += 1;
            }
            Ok(line) => self.stats.fail("STEP", line),
            Err(e) => self.stats.fail("STEP", &e.to_string()),
        }
        if let (Some(probe), Some(replay)) = (&mut self.probe, &mut slot.replay) {
            let request = probe.next_request();
            let root = probe
                .tracer
                .record("front.step_rtt", 0, request, start, end);
            probe.replay_step(replay, script.kind, facts, expected, root, request, 0);
        }
        slot.pos += 1;
    }

    fn batch(&mut self, turn: usize) {
        let slot = &mut self.slots[turn];
        let script = &self.scripts[slot.script];
        let steps = slot.pos..slot.pos + BATCH;
        self.client.begin("BATCH", &slot.name);
        self.client.push(" 4\n");
        for facts in &script.facts[steps.clone()] {
            self.client.push(facts);
            self.client.push("\n");
        }
        let start = Instant::now();
        let mut outcome = self.client.send().map(|()| 0usize);
        for expected in &script.expected[steps.clone()] {
            outcome = outcome.and_then(|ok| {
                let line = self.client.receive()?;
                Ok(ok + usize::from(line == expected))
            });
        }
        let done = outcome.and_then(|ok| Ok((ok, self.client.receive()? == "OK batch 4")));
        let end = Instant::now();
        self.stats.attempted += 1;
        match done {
            Ok((BATCH, true)) => self.stats.steps_ok += BATCH as u64,
            Ok((ok, _)) => self
                .stats
                .fail("BATCH", &format!("{ok} of {BATCH} expected OUT lines")),
            Err(e) => self.stats.fail("BATCH", &e.to_string()),
        }
        if let (Some(probe), Some(replay)) = (&mut self.probe, &mut slot.replay) {
            let request = probe.next_request();
            let root = probe
                .tracer
                .record("front.batch4_rtt", 0, request, start, end);
            let mut offset = 0;
            for step in steps {
                let (facts, expected) = (&script.facts[step], &script.expected[step]);
                offset =
                    probe.replay_step(replay, script.kind, facts, expected, root, request, offset);
            }
        }
        slot.pos += BATCH;
    }

    fn close(&mut self, turn: usize) {
        let slot = &mut self.slots[turn];
        self.client.begin("CLOSE", &slot.name);
        self.client.push("\n");
        let start = Instant::now();
        let sent = self.client.send();
        let reply = sent.and_then(|()| self.client.receive());
        let end = Instant::now();
        self.stats.attempted += 1;
        match reply {
            Ok(line) if line.starts_with("OK close ") => {}
            Ok(line) => self.stats.fail("CLOSE", line),
            Err(e) => self.stats.fail("CLOSE", &e.to_string()),
        }
        if let Some(probe) = &mut self.probe {
            let request = probe.next_request();
            let root = probe
                .tracer
                .record("front.close_rtt", 0, request, start, end);
            if let Some(replay) = slot.replay.take() {
                let start = Instant::now();
                drop(replay.session);
                let took = start.elapsed().as_nanos() as u64;
                probe
                    .tracer
                    .record_replayed("core.close", root, request, 0, took);
            }
        }
    }
}

struct WorkerResult {
    plain: WireStats,
    counted: Option<Counted>,
    traced: Option<(WireStats, Vec<Span>)>,
    mismatches: Vec<String>,
}

/// The count phase of one connection.
struct Counted {
    steps: u64,
    bytes: u64,
    busy: u64,
    errors: u64,
}

#[allow(clippy::too_many_arguments)]
fn worker<'a>(
    addr: SocketAddr,
    scripts: &'a [WireScript],
    models: &'a Models,
    plans: Option<&'a MirrorPlans>,
    thread: usize,
    shape: Shape,
    first: Option<Connection<'a>>,
    conductor: &Conductor,
    epoch: Instant,
) -> Result<WorkerResult, String> {
    let guard = conductor.worker();
    let probe = |capacity: usize| {
        plans.map(|plans| {
            let db = Arc::new(ResidentDb::new(combined_catalog()));
            WireProbe {
                tracer: Tracer::new(thread, epoch, capacity),
                reference: Runtime::shared_with(Arc::clone(&db), Parallelism::sequential()),
                db,
                plans,
                models,
                requests: 0,
                mismatches: Vec::new(),
            }
        })
    };
    let mut mismatches = Vec::new();

    let mut counted = None;
    if let Some(counting) = probe(shape.count_ops * 16) {
        let mut connection = Connection::open(
            addr,
            scripts,
            format!("n{thread}"),
            thread,
            shape,
            Some(counting),
        )?;
        let bytes_before = connection.client.bytes;
        (0..shape.count_ops / shape.connections).for_each(|_| connection.next_op());
        counted = Some(Counted {
            steps: connection.stats.steps_ok,
            bytes: connection.client.bytes - bytes_before,
            busy: connection.stats.busy,
            errors: connection.stats.errors,
        });
        mismatches.extend(connection.probe.take().expect("probed").mismatches);
    }

    let mut connection = match first {
        Some(connection) => connection,
        None => Connection::open(addr, scripts, format!("p{thread}"), thread, shape, None)?,
    };
    conductor.arrive_and_wait(phase::WARM_UP);
    while conductor.phase() == phase::WARM_UP {
        connection.next_op();
    }
    connection.stats.reset();
    while conductor.phase() == phase::MEASURE {
        connection.next_op();
    }
    let plain = std::mem::replace(&mut connection.stats, WireStats::new());
    drop(connection);

    let mut traced = None;
    if let Some(window_probe) = probe(1 << 20) {
        let mut connection = Connection::open(
            addr,
            scripts,
            format!("t{thread}"),
            thread,
            shape,
            Some(window_probe),
        )?;
        conductor.arrive_and_wait(phase::TRACE);
        connection.stats.reset();
        while conductor.phase() == phase::TRACE {
            connection.next_op();
        }
        let window_probe = connection.probe.take().expect("probed");
        mismatches.extend(window_probe.mismatches);
        let stats = std::mem::replace(&mut connection.stats, WireStats::new());
        traced = Some((stats, window_probe.tracer.into_spans()?));
    }
    guard.done();
    Ok(WorkerResult {
        plain,
        counted,
        traced,
        mismatches,
    })
}

/// Server up → connections up → first session pool open, the connections
/// opening their rings in parallel as a fleet of clients would.
fn set_up<'a>(
    scripts: &'a [WireScript],
    shape: Shape,
    tag: &str,
) -> Result<(Server, Vec<Connection<'a>>), String> {
    let server = Server::start()?;
    let addr = server.addr;
    let connections = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shape.connections)
            .map(|thread| {
                scope.spawn(move || {
                    Connection::open(addr, scripts, format!("{tag}{thread}"), thread, shape, None)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a connection panicked".to_string()))
            })
            .collect::<Result<Vec<_>, String>>()
    });
    match connections {
        Ok(connections) => Ok((server, connections)),
        Err(e) => {
            let _ = server.stop();
            Err(e)
        }
    }
}

/// `front.client_rtt_us`: the same kind of `STEP`s through the library's
/// own `FrontClient`, which isolates the client library from the server.
fn client_library_probe(
    spans: &mut Vec<Span>,
    addr: SocketAddr,
    scripts: &[WireScript],
    config: &RunConfig,
) -> Result<(), String> {
    let requests = if config.quick { 4 } else { 24 };
    let mut tracer = Tracer::new(255, Instant::now(), requests);
    let mut client = FrontClient::connect(addr).map_err(|e| e.to_string())?;
    let script = scripts
        .iter()
        .find(|s| s.kind == Kind::Category)
        .ok_or("no category script")?;
    let opened = client
        .request("OPEN library-client category")
        .map_err(|e| e.to_string())?;
    if !opened.starts_with("OK open") {
        return Err(format!("library client: `{opened}`"));
    }
    for n in 0..requests {
        let step = n % script.facts.len();
        if step == 0 && n > 0 {
            client
                .request("CLOSE library-client")
                .map_err(|e| e.to_string())?;
            client
                .request("OPEN library-client category")
                .map_err(|e| e.to_string())?;
        }
        let line = format!("STEP library-client {}", script.facts[step]);
        let start = Instant::now();
        let reply = client.request(&line).map_err(|e| e.to_string())?;
        tracer.record("front.client_rtt", 0, n as u64, start, Instant::now());
        if reply != script.expected[step] {
            return Err(format!("library client: step {step} replied `{reply}`"));
        }
    }
    spans.extend(tracer.into_spans()?);
    Ok(())
}

pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    // A request takes ~44 ms here, so even a smoke run needs a window of a
    // second or two to see a session through to its replacement.
    let stretched = RunConfig {
        seconds: config.seconds * if config.quick { 5.0 } else { 1.0 },
        ..config.clone()
    };
    let config = &stretched;
    let mut outcome = Outcome::default();
    let shape = shape(config);
    let models = Models::new();
    let plans = if config.traced {
        Some(models.mirror_plans()?)
    } else {
        None
    };

    let mut hash = ScheduleHash::default();
    let prices = PriceTable::of(&combined_catalog());
    let pool = script_pool(
        config.seed,
        0,
        &KINDS,
        SCRIPTS,
        STEPS_PER_SESSION,
        &prices,
        PRODUCTS,
        &mut hash,
    );
    outcome.note("schedule_hash", format!("{:016x}", hash.value()));
    let scripts = wire_scripts(&pool, &models)?;

    let mut setup_s = Vec::new();
    while config.another_setup(&setup_s) {
        let start = Instant::now();
        let (server, connections) = set_up(&scripts, shape, "s")?;
        setup_s.push(start.elapsed().as_secs_f64());
        drop(connections);
        server.stop()?;
    }
    let start = Instant::now();
    // Sessions outlive their connection on the server, so the traced pass
    // (which opens its own connections, after counting) needs other names.
    let (server, connections) = set_up(&scripts, shape, if config.traced { "u" } else { "p" })?;
    setup_s.push(start.elapsed().as_secs_f64());
    let mut first: Vec<Option<Connection<'_>>> = connections.into_iter().map(Some).collect();
    if config.traced {
        // The traced pass opens its connections itself, after counting.
        first.iter_mut().for_each(|c| *c = None);
    }

    let addr = server.addr;
    let conductor = Conductor::default();
    let epoch = Instant::now();
    let symbols_before = SymbolTable::len();
    let mut symbols_after = symbols_before;
    let (windows, results) = std::thread::scope(|scope| {
        let handles: Vec<_> = first
            .into_iter()
            .enumerate()
            .map(|(thread, connection)| {
                let (scripts, models, plans, conductor) =
                    (&scripts, &models, plans.as_ref(), &conductor);
                scope.spawn(move || {
                    worker(
                        addr, scripts, models, plans, thread, shape, connection, conductor, epoch,
                    )
                })
            })
            .collect();
        let windows = conductor.conduct(shape.connections, config, || {
            symbols_after = SymbolTable::len()
        });
        let results: Vec<Result<WorkerResult, String>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a connection panicked".to_string()))
            })
            .collect();
        (windows, results)
    });

    let mut spans = Vec::new();
    let client_probe = if config.traced && results.iter().all(Result::is_ok) {
        client_library_probe(&mut spans, addr, &scripts, config)
    } else {
        Ok(())
    };
    server.stop()?;
    client_probe?;
    let results = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    let (window, traced_window) = windows?;

    let mut step = Samples::with_capacity(0);
    let mut open = Samples::with_capacity(0);
    let mut steps_ok = 0u64;
    for result in &results {
        step.absorb(&result.plain.step);
        open.absorb(&result.plain.open);
        steps_ok += result.plain.steps_ok;
        outcome.attempted += result.plain.attempted;
        outcome.failed += result.plain.failed;
        for failure in result.plain.first_failures.iter().chain(&result.mismatches) {
            outcome.problem(failure.clone());
        }
    }
    outcome.note("seed", config.seed);
    outcome.note("nproc", common::nproc());
    outcome.note("connections", shape.connections);
    outcome.note("live_sessions", shape.connections * shape.live);

    if !config.traced {
        common::end_to_end(&mut outcome, config, &setup_s, window, steps_ok, step, open);
        return Ok(outcome);
    }

    let traced_window = traced_window.ok_or("traced pass without a traced window")?;
    let (mut counted_steps, mut counted_bytes, mut busy, mut errors) = (0u64, 0u64, 0u64, 0u64);
    let mut traced_steps = 0u64;
    for result in results {
        if let Some(counted) = result.counted {
            counted_steps += counted.steps;
            counted_bytes += counted.bytes;
            busy += counted.busy;
            errors += counted.errors;
        }
        if let Some((stats, thread_spans)) = result.traced {
            traced_steps += stats.steps_ok;
            outcome.failed += stats.failed;
            outcome.attempted += stats.attempted;
            spans.extend(thread_spans);
        }
    }
    common::layer_timings(&mut outcome, &spans);
    // The wire's p99 needs 1,000 round trips, more than the traced window
    // alone sees at 44 ms each: it is taken over the single steps of the
    // plain and the traced window of this pass together.
    let mut round_trips: Vec<u64> = step.as_slice().to_vec();
    round_trips.extend(
        spans
            .iter()
            .filter(|s| s.name == "front.step_rtt")
            .map(|s| s.duration_ns()),
    );
    round_trips.sort_unstable();
    if let Some(us) = crate::stats::tail_us(&round_trips, 0.99) {
        outcome.set("front.step_rtt_p99_us", us);
    }
    outcome.note("round_trips_for_p99", round_trips.len());
    outcome.set("front.busy_replies", busy as f64);
    outcome.set("front.err_replies", errors as f64);
    if counted_steps > 0 {
        outcome.set(
            "front.bytes_per_step",
            counted_bytes as f64 / counted_steps as f64,
        );
        outcome.set(
            "relational.symbols_per_kstep",
            (symbols_after - symbols_before) as f64 * 1_000.0 / counted_steps as f64,
        );
    }
    common::trace_overhead(
        &mut outcome,
        steps_ok as f64 / window.wall_s,
        traced_steps as f64 / traced_window.wall_s,
    );
    common::write_trace(&mut outcome, config, "wire_fleet", &spans);
    Ok(outcome)
}
