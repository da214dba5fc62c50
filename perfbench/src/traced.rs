//! The traced run: the workload's generated requests pushed through each
//! layer's public functions in process, with a span around every call.
//!
//! Each request gets a root span; the calls the daemon makes for it
//! (parse, store, serialize, persist append, telemetry records) are its
//! children, and `resp::append_value` is a child of the store get that
//! calls it. Standalone replays of single components that the store and
//! persistence layers call internally (the eviction policy, the shadow
//! profiler, record encoding) get spans of their own outside the request,
//! so they are measured without being counted twice. Spans are kept in
//! memory and written to `<work-dir>/spans-<workload>.tsv` at the end.
//! A layer's self time is its span minus the time its children cover.
//!
//! The same replay runs once more with spans off; the difference in wall
//! time per request is the tracing overhead.

use std::collections::HashMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use camp_kvs::fault::FaultPlan;
use camp_kvs::item::Item;
use camp_kvs::persist::record::{encode_into, Record};
use camp_kvs::persist::{FsyncMode, Persist, PersistOptions};
use camp_kvs::protocol::{parse_command, Command};
use camp_kvs::resp::append_value;
use camp_kvs::shard::ShardedStore;
use camp_kvs::slab::SlabConfig;
use camp_kvs::store::{EvictionMode, StoreConfig};
use camp_policies::{CacheRequest, EvictionPolicy, PolicyStats, ShadowProfiler};
use camp_telemetry::{FlightRecorder, Histogram, RequestSpan};
use camp_workload::Trace;

use crate::wire::{push_get, push_set, Values};
use crate::workloads::{
    bg_value_len, BG_DEPTH, POLICY, RR_KEYS, RR_VALUE_LEN, WD_KEYS, WD_SEGMENT_BYTES, WD_VALUE_LEN,
};
use crate::{Args, Outcome};

/// Requests per replay: enough for steady per-call means, few enough
/// that the spans (about nine per request) stay small.
const REQUESTS: usize = 50_000;

const NONE: u32 = u32::MAX;

#[derive(Clone, Copy)]
enum Layer {
    Request,
    Parse,
    StoreGet,
    Resp,
    StoreSet,
    PersistAppend,
    SpanRecord,
    HistRecord,
    PolicyTouch,
    PolicyReferenceMiss,
    PolicyReferenceHit,
    ProfilerRecord,
    PersistEncode,
}

/// Every layer, in declaration order (`layer as usize` indexes it).
const LAYERS: [Layer; 13] = [
    Layer::Request,
    Layer::Parse,
    Layer::StoreGet,
    Layer::Resp,
    Layer::StoreSet,
    Layer::PersistAppend,
    Layer::SpanRecord,
    Layer::HistRecord,
    Layer::PolicyTouch,
    Layer::PolicyReferenceMiss,
    Layer::PolicyReferenceHit,
    Layer::ProfilerRecord,
    Layer::PersistEncode,
];

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::Parse => "protocol.parse_command",
            Layer::StoreGet => "store.get_with",
            Layer::Resp => "resp.append_value",
            Layer::StoreSet => "store.set",
            Layer::PersistAppend => "persist.append_set",
            Layer::SpanRecord => "telemetry.record_span",
            Layer::HistRecord => "telemetry.histogram_record",
            Layer::PolicyTouch => "policy.touch",
            Layer::PolicyReferenceMiss => "policy.reference_miss",
            Layer::PolicyReferenceHit => "policy.reference_hit",
            Layer::ProfilerRecord => "profiler.record",
            Layer::PersistEncode => "persist.encode_into",
        }
    }

    /// Whether the daemon runs this call for the request (as opposed to a
    /// standalone replay of a component it calls internally).
    fn on_request_path(self) -> bool {
        matches!(
            self,
            Layer::Parse
                | Layer::StoreGet
                | Layer::Resp
                | Layer::StoreSet
                | Layer::PersistAppend
                | Layer::SpanRecord
                | Layer::HistRecord
        )
    }
}

#[derive(Clone, Copy)]
struct Span {
    layer: Layer,
    parent: u32,
    request: u32,
    start: u64,
    end: u64,
}

struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, layer: Layer, parent: u32, request: u32) -> u32 {
        if !self.on {
            return NONE;
        }
        let id = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            layer,
            parent,
            request,
            start,
            end: start,
        });
        id
    }

    fn end(&mut self, id: u32) {
        if id != NONE {
            let end = self.now();
            self.spans[id as usize].end = end;
        }
    }
}

/// The per-request telemetry the daemon records: one flight-recorder
/// span and one latency-histogram sample.
fn telemetry(
    tracer: &mut Tracer,
    recorder: &FlightRecorder,
    histogram: &Histogram,
    root: u32,
    request: u32,
    wire_bytes: u64,
) {
    let span = tracer.begin(Layer::SpanRecord, root, request);
    let at = u64::from(request);
    recorder.record_span(
        0,
        &RequestSpan {
            conn_id: 1,
            cmd: 0,
            wire_bytes,
            buffered_us: at,
            parsed_us: at,
            executed_us: at,
            flushed_us: at,
        },
    );
    tracer.end(span);
    let span = tracer.begin(Layer::HistRecord, root, request);
    histogram.record(wire_bytes);
    tracer.end(span);
}

/// The layers one replay drives, plus standalone copies of the
/// components whose cost the store hides.
struct Engine<'s> {
    store: &'s ShardedStore,
    persist: Option<&'s Persist>,
    policy: Box<dyn EvictionPolicy<Box<[u8]>> + Send>,
    profiler: ShadowProfiler,
    recorder: FlightRecorder,
    histogram: Histogram,
    tracer: Tracer,
    keys: HashMap<u64, Box<[u8]>>,
    line: Vec<u8>,
    out: Vec<u8>,
    record: Vec<u8>,
    evicted: Vec<Box<[u8]>>,
    requests: u32,
    encoded_bytes: u64,
    wrong: u64,
}

impl<'s> Engine<'s> {
    fn new(store: &'s ShardedStore, persist: Option<&'s Persist>, capacity: u64) -> Self {
        let mode: EvictionMode = POLICY.parse().expect("known policy");
        Engine {
            store,
            persist,
            policy: mode.build(capacity),
            profiler: ShadowProfiler::new(&mode, capacity),
            recorder: FlightRecorder::new(1, None),
            histogram: Histogram::new(),
            tracer: Tracer {
                on: false,
                origin: Instant::now(),
                spans: Vec::new(),
            },
            keys: HashMap::new(),
            line: Vec::new(),
            out: Vec::new(),
            record: Vec::new(),
            evicted: Vec::new(),
            requests: 0,
            encoded_bytes: 0,
            wrong: 0,
        }
    }

    /// Ends the untimed prefill: counters restart and spans turn on.
    fn start_measuring(&mut self, traced: bool) {
        self.tracer.on = traced;
        self.tracer.spans.reserve(REQUESTS * 10);
        self.requests = 0;
        self.encoded_bytes = 0;
        self.wrong = 0;
        self.policy.reset_instrumentation();
    }

    fn next_request(&mut self) -> u32 {
        self.requests += 1;
        self.requests - 1
    }

    /// One `get`/`iqget`: `Some(value == expect)` on a hit.
    fn get(&mut self, verb: &[u8], id: u64, expect: &[u8]) -> Option<bool> {
        let request = self.next_request();
        self.line.clear();
        push_get(&mut self.line, verb, id);
        let t = &mut self.tracer;
        let root = t.begin(Layer::Request, NONE, request);
        let span = t.begin(Layer::Parse, root, request);
        let command = parse_command(&self.line[..self.line.len() - 2]);
        t.end(span);
        let key = match command {
            Ok(Command::Get { keys }) => keys.iter().next(),
            Ok(Command::IqGet { key }) => Some(key),
            _ => None,
        }
        .expect("a generated get parses");
        let get = t.begin(Layer::StoreGet, root, request);
        let out = &mut self.out;
        let found = self.store.get_with(key, |item| {
            let span = t.begin(Layer::Resp, get, request);
            append_value(out, key, item.flags, item.value);
            t.end(span);
            (item.value.len(), item.cost)
        });
        t.end(get);
        out.extend_from_slice(b"END\r\n");
        telemetry(
            t,
            &self.recorder,
            &self.histogram,
            root,
            request,
            self.line.len() as u64,
        );
        t.end(root);

        let (size, cost) = found.map_or((0, 0), |(len, cost)| {
            (Item::encoded_len(key.len(), len) as u64, cost)
        });
        let policy_key = self.keys.entry(id).or_insert_with(|| Box::from(key));
        let span = t.begin(Layer::PolicyTouch, NONE, request);
        self.policy.touch(policy_key);
        t.end(span);
        let span = t.begin(Layer::ProfilerRecord, NONE, request);
        self.profiler.record_get(key, size, cost);
        t.end(span);

        let matches = found.map(|(len, _)| {
            let at = out.len() - b"\r\nEND\r\n".len() - len;
            &out[at..at + len] == expect
        });
        out.clear();
        matches
    }

    /// One `set`/`iqset` of `value` (the cost hint only on `iqset`).
    fn set(&mut self, verb: &[u8], id: u64, value: &[u8], cost_hint: Option<u64>) {
        let request = self.next_request();
        self.line.clear();
        push_set(&mut self.line, verb, id, value, cost_hint);
        let header_len = self
            .line
            .windows(2)
            .position(|w| w == b"\r\n")
            .expect("a set header ends in CRLF");
        let t = &mut self.tracer;
        let root = t.begin(Layer::Request, NONE, request);
        let span = t.begin(Layer::Parse, root, request);
        let command = parse_command(&self.line[..header_len]);
        t.end(span);
        let Ok(Command::Set { header }) = command else {
            panic!("a generated set parses");
        };
        let (key, flags) = (header.key, header.flags);
        let cost = header.cost_hint.unwrap_or(0);
        let span = t.begin(Layer::StoreSet, root, request);
        let stored = self.store.set(key, value, flags, 0, cost);
        t.end(span);
        if stored.is_err() {
            self.wrong += 1;
        }
        if let Some(persist) = self.persist {
            let span = t.begin(Layer::PersistAppend, root, request);
            persist.append_set(self.store, key, value, flags, 0, cost);
            t.end(span);
        }
        telemetry(
            t,
            &self.recorder,
            &self.histogram,
            root,
            request,
            self.line.len() as u64,
        );
        t.end(root);

        if self.persist.is_some() {
            self.record.clear();
            let span = t.begin(Layer::PersistEncode, NONE, request);
            encode_into(
                &Record::Set {
                    key,
                    value,
                    flags,
                    cost,
                    expires_at: 0,
                },
                &mut self.record,
            );
            t.end(span);
            self.encoded_bytes += self.record.len() as u64;
        }
        let size = Item::encoded_len(key.len(), value.len()) as u64;
        let policy_key = self
            .keys
            .entry(id)
            .or_insert_with(|| Box::from(key))
            .clone();
        let layer = if self.policy.contains(&policy_key) {
            Layer::PolicyReferenceHit
        } else {
            Layer::PolicyReferenceMiss
        };
        let span = t.begin(layer, NONE, request);
        self.policy
            .reference(CacheRequest::new(policy_key, size, cost), &mut self.evicted);
        t.end(span);
        self.evicted.clear();
        let span = t.begin(Layer::ProfilerRecord, NONE, request);
        self.profiler.record_set(key, size, cost);
        t.end(span);
    }
}

/// What one replay left behind.
struct Round {
    wall_ns: f64,
    requests: u32,
    spans: Vec<Span>,
    encoded_bytes: u64,
    policy_stats: PolicyStats,
    wrong: u64,
}

/// Builds a fresh store (and persistence on `persist_dir`), runs the
/// untimed `prefill`, then times `measured`.
fn replay(
    traced: bool,
    config: StoreConfig,
    persist_dir: Option<&Path>,
    prefill: &dyn Fn(&mut Engine),
    measured: &dyn Fn(&mut Engine),
) -> io::Result<Round> {
    let capacity = u64::from(config.slab.slab_size) * u64::from(config.slab.max_slabs);
    let store = ShardedStore::new(config, 1);
    let persist = match persist_dir {
        Some(dir) => {
            match fs::remove_dir_all(dir) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
                _ => {}
            }
            let mut options = PersistOptions::new(dir);
            options.fsync = FsyncMode::Interval;
            options.segment_bytes = WD_SEGMENT_BYTES;
            Some(Persist::open(options, &FaultPlan::default(), &store)?)
        }
        None => None,
    };
    let round = std::thread::scope(|scope| {
        // The daemon's maintenance thread: interval fsync.
        let maintenance = persist
            .as_ref()
            .map(|p| scope.spawn(|| p.background_loop(&store)));
        let mut engine = Engine::new(&store, persist.as_ref(), capacity);
        prefill(&mut engine);
        engine.start_measuring(traced);
        let started = Instant::now();
        measured(&mut engine);
        let wall_ns = started.elapsed().as_nanos() as f64;
        if let Some(p) = persist.as_ref() {
            p.request_stop();
        }
        if let Some(handle) = maintenance {
            handle
                .join()
                .expect("the maintenance thread does not panic");
        }
        Round {
            wall_ns,
            requests: engine.requests,
            spans: std::mem::take(&mut engine.tracer.spans),
            encoded_bytes: engine.encoded_bytes,
            policy_stats: engine.policy.policy_stats(),
            wrong: engine.wrong,
        }
    });
    drop(persist);
    if let Some(dir) = persist_dir {
        fs::remove_dir_all(dir)?;
    }
    Ok(round)
}

/// Runs the replay with spans off and on, writes the spans and records
/// the per-layer metrics.
fn measure(
    args: &Args,
    config: StoreConfig,
    persist: bool,
    prefill: &dyn Fn(&mut Engine),
    measured: &dyn Fn(&mut Engine),
    out: &mut Outcome,
) -> io::Result<()> {
    camp_telemetry::set_level(camp_telemetry::LogLevel::Warn);
    let dir = args.work_dir.join("traced-persist");
    let persist_dir = persist.then_some(dir.as_path());
    let plain = replay(false, config.clone(), persist_dir, prefill, measured)?;
    let traced = replay(true, config, persist_dir, prefill, measured)?;
    write_spans(
        &args.work_dir.join(format!("spans-{}.tsv", args.workload)),
        &traced.spans,
    )?;

    // Self time per layer: span minus the time its children cover, minus
    // the tracer's own cost: `inner` inside every span, and the rest of a
    // begin/end pair inside the parent of every child.
    let (inner, pair) = calibrate();
    let mut child_ns = vec![0u64; traced.spans.len()];
    let mut children = vec![0u32; traced.spans.len()];
    for span in &traced.spans {
        if span.parent != NONE {
            child_ns[span.parent as usize] += span.end - span.start;
            children[span.parent as usize] += 1;
        }
    }
    let mut calls = [0u64; LAYERS.len()];
    let mut self_ns = [0f64; LAYERS.len()];
    for (i, span) in traced.spans.iter().enumerate() {
        let layer = span.layer as usize;
        calls[layer] += 1;
        let own = (span.end - span.start).saturating_sub(child_ns[i]) as f64;
        let tracer = inner + f64::from(children[i]) * (pair - inner);
        self_ns[layer] += (own - tracer).max(0.0);
    }
    let mean = |layer: Layer| {
        let i = layer as usize;
        if calls[i] == 0 {
            0.0
        } else {
            self_ns[i] / calls[i] as f64
        }
    };
    let requests = f64::from(traced.requests.max(1));
    out.set("protocol.parse_ns", mean(Layer::Parse));
    out.set("store.get_self_ns", mean(Layer::StoreGet));
    out.set("resp.serialize_ns", mean(Layer::Resp));
    out.set("store.set_ns", mean(Layer::StoreSet));
    out.set("policy.touch_ns", mean(Layer::PolicyTouch));
    out.set("policy.reference_miss_ns", mean(Layer::PolicyReferenceMiss));
    out.set("profiler.record_ns", mean(Layer::ProfilerRecord));
    out.set("telemetry.span_record_ns", mean(Layer::SpanRecord));
    out.set("telemetry.hist_record_ns", mean(Layer::HistRecord));
    out.set("persist.append_ns", mean(Layer::PersistAppend));
    let encode_ns = self_ns[Layer::PersistEncode as usize];
    out.set(
        "persist.encode_crc_ns_per_kib",
        if traced.encoded_bytes == 0 {
            0.0
        } else {
            encode_ns / (traced.encoded_bytes as f64 / 1024.0)
        },
    );
    let gauge = |name: &str| traced.policy_stats.get(name).unwrap_or(0) as f64;
    out.set(
        "policy.heap_updates_per_kreq",
        gauge("heap_updates") * 1e3 / requests,
    );
    out.set(
        "policy.heap_visits_per_kreq",
        gauge("heap_visits") * 1e3 / requests,
    );
    out.set("policy.queue_count", gauge("queue_count"));
    let layers: f64 = LAYERS
        .iter()
        .zip(&self_ns)
        .filter(|(layer, _)| layer.on_request_path())
        .map(|(_, ns)| ns)
        .sum();
    let layers_per_op = layers / requests;
    out.set("reconcile.layers_ns_per_op", layers_per_op);
    let server = out
        .metrics
        .get("server_cpu_ns_per_op")
        .copied()
        .unwrap_or(0.0);
    out.set("reconcile.residual_ns_per_op", server - layers_per_op);
    out.set(
        "trace.overhead_ns_per_op",
        (traced.wall_ns - plain.wall_ns) / requests,
    );
    out.note(format!(
        "traced replay: {} requests, {} spans (tracer cost {inner:.1} ns inside a span, \
         {pair:.1} ns per begin/end pair), {:.0} vs {:.0} ns/request with spans on/off",
        traced.requests,
        traced.spans.len(),
        traced.wall_ns / requests,
        plain.wall_ns / f64::from(plain.requests.max(1)),
    ));
    out.check(
        "traced replay: every in-process reply is correct",
        traced.wrong == 0 && plain.wrong == 0,
    );
    Ok(())
}

/// The tracer's own cost: the mean duration of an empty span, and the
/// wall time of one begin/end pair.
fn calibrate() -> (f64, f64) {
    const PAIRS: usize = 200_000;
    let mut tracer = Tracer {
        on: true,
        origin: Instant::now(),
        spans: Vec::with_capacity(PAIRS),
    };
    let started = Instant::now();
    for _ in 0..PAIRS {
        let span = tracer.begin(Layer::Request, NONE, 0);
        tracer.end(span);
    }
    let pair = started.elapsed().as_nanos() as f64 / PAIRS as f64;
    let inner = tracer.spans.iter().map(|s| s.end - s.start).sum::<u64>() as f64 / PAIRS as f64;
    (inner, pair)
}

/// `request span parent layer start_ns end_ns`, one span per line.
fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut file = BufWriter::new(fs::File::create(path)?);
    writeln!(file, "request\tspan\tparent\tlayer\tstart_ns\tend_ns")?;
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == NONE {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            file,
            "{}\t{id}\t{parent}\t{}\t{}\t{}",
            s.request,
            s.layer.name(),
            s.start,
            s.end
        )?;
    }
    file.flush()
}

fn default_config() -> StoreConfig {
    StoreConfig {
        slab: SlabConfig::small(1 << 20, 64),
        eviction: POLICY.parse().expect("known policy"),
    }
}

pub fn read_resident(
    args: &Args,
    values: &Values,
    stream: &[u32],
    out: &mut Outcome,
) -> io::Result<()> {
    let prefill = |e: &mut Engine| {
        let mut value = Vec::new();
        for key in 0..RR_KEYS {
            values.fill(&mut value, key, 0, RR_VALUE_LEN);
            e.set(b"set", key, &value, None);
        }
    };
    let measured = |e: &mut Engine| {
        let mut expect = Vec::new();
        for &key in &stream[..REQUESTS] {
            values.fill(&mut expect, u64::from(key), 0, RR_VALUE_LEN);
            if e.get(b"get", u64::from(key), &expect) != Some(true) {
                e.wrong += 1;
            }
        }
    };
    measure(args, default_config(), false, &prefill, &measured, out)
}

pub fn bg_cache_aside(
    args: &Args,
    values: &Values,
    trace: &Trace,
    memory: u64,
    out: &mut Outcome,
) -> io::Result<()> {
    let slab = 64 << 10;
    let config = StoreConfig {
        slab: SlabConfig::small(slab, (memory / u64::from(slab)) as u32),
        eviction: POLICY.parse().expect("known policy"),
    };
    let measured = |e: &mut Engine| {
        let mut value = Vec::new();
        let mut missed: Vec<(u64, u64, u64)> = Vec::new();
        for chunk in trace.records()[..REQUESTS].chunks(BG_DEPTH) {
            missed.clear();
            for r in chunk {
                values.fill(&mut value, r.key, 0, bg_value_len(r.size));
                match e.get(b"iqget", r.key, &value) {
                    Some(true) => {}
                    Some(false) => e.wrong += 1,
                    None => {
                        if !missed.iter().any(|m| m.0 == r.key) {
                            missed.push((r.key, r.size, r.cost));
                        }
                    }
                }
            }
            for &(key, size, cost) in &missed {
                values.fill(&mut value, key, 0, bg_value_len(size));
                e.set(b"iqset", key, &value, Some(cost));
            }
        }
    };
    measure(args, config, false, &|_| {}, &measured, out)
}

pub fn write_durable(
    args: &Args,
    values: &Values,
    ops: &[(bool, u32)],
    out: &mut Outcome,
) -> io::Result<()> {
    let prefill = |e: &mut Engine| {
        let mut value = Vec::new();
        for key in 0..WD_KEYS {
            values.fill(&mut value, key, 1, WD_VALUE_LEN);
            e.set(b"set", key, &value, None);
        }
    };
    let measured = |e: &mut Engine| {
        let mut value = Vec::new();
        let mut version = vec![1u64; WD_KEYS as usize];
        let mut next = 1u64;
        for &(is_set, key) in &ops[..REQUESTS] {
            let key64 = u64::from(key);
            if is_set {
                next += 1;
                version[key as usize] = next;
                values.fill(&mut value, key64, next, WD_VALUE_LEN);
                e.set(b"set", key64, &value, None);
            } else {
                values.fill(&mut value, key64, version[key as usize], WD_VALUE_LEN);
                if e.get(b"get", key64, &value) != Some(true) {
                    e.wrong += 1;
                }
            }
        }
    };
    measure(args, default_config(), true, &prefill, &measured, out)
}
