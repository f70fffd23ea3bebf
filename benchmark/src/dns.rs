//! The resolver workloads, `cold-sweep` and `warm-zipf`: one validating,
//! DLV-enabled resolver driven closed-loop through `resolve_into`, every
//! answer checked against the population's ground truth.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use lookaside::engine::splitmix64;
use lookaside::internet::{Internet, InternetParams};
use lookaside::netsim::CaptureFilter;
use lookaside::resolver::{
    BindConfig, RecursiveResolver, Resolution, ResolveError, ResolverConfig, SecurityStatus,
};
use lookaside::wire::ext::RemedyMode;
use lookaside::wire::{Name, Rcode, RrType};
use lookaside::workload::{PopulationParams, Zipf};
use lookaside::LeakSink;

use crate::digest::Digest;
use crate::report::{quiet, ratio, report_fastest, Outcome};
use crate::trace::{TraceSink, Tracer, SERVER_CLASSES};
use crate::{Args, Scale};

/// Zipf exponent of stub interest: the DITL fit Fig. 12 uses.
const ZIPF_S: f64 = 0.92;
/// Simulated idle time before each warm stub query, so cached answers age
/// and expire as they would under real traffic.
const STUB_GAP_NS: u64 = 20_000_000;
const RESOLVER_SALT: u64 = 0x5a17;
const DRAW_SALT: u64 = 0xd4a3;

/// What the population says a name must resolve to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expected {
    /// Chain of trust from the root.
    Secure,
    /// Secured through a deposited DLV record.
    SecureViaDlv,
    /// Unsigned, or an island without a deposit.
    Insecure,
}

/// A built Internet, its resolver, and the names it is queried for.
pub struct World {
    /// The simulated Internet.
    pub internet: Internet,
    /// The resolver under test.
    pub resolver: RecursiveResolver,
    /// `names[i]` is the domain of rank `i + 1`.
    names: Vec<Name>,
    expected: Vec<Expected>,
    leaks: Rc<RefCell<LeakSink>>,
}

/// Outcome counts that go into the digest.
#[derive(Debug, Default, Clone)]
struct Tally {
    secure: u64,
    insecure: u64,
    other_status: u64,
    via_dlv: u64,
    noerror: u64,
    other_rcode: u64,
    answers: u64,
    errors: u64,
}

/// Network and resolver counters, for per-resolution rates.
#[derive(Debug, Clone, Copy, Default)]
struct Snapshot {
    exchanges: u64,
    bytes: u64,
    dlv_sent: u64,
    dlv_suppressed: u64,
}

impl World {
    /// Builds the top-`top` Internet of `seed` with a fresh resolver
    /// (`BindConfig::correct()`: root and DLV anchors, DLV on). A
    /// [`LeakSink`] observes every packet; the network captures nothing.
    pub fn build(seed: u64, top: usize) -> World {
        let population = PopulationParams { size: top, seed, ..PopulationParams::default() };
        let mut params = InternetParams::for_top(top, population, RemedyMode::None);
        params.seed = seed;
        params.capture = CaptureFilter::None;
        let mut internet = Internet::build(params);
        let leaks =
            Rc::new(RefCell::new(LeakSink::new(CaptureFilter::DlvOnly, internet.dlv_apex.clone())));
        internet.net.set_observer(Box::new(Rc::clone(&leaks)));
        let resolver =
            internet.resolver(ResolverConfig::Bind(BindConfig::correct()), seed ^ RESOLVER_SALT);
        let (names, expected) = (1..=top)
            .map(|rank| {
                let attrs = internet.population.attributes(rank);
                let expected = if attrs.signed && attrs.ds_in_parent {
                    Expected::Secure
                } else if attrs.deposited {
                    Expected::SecureViaDlv
                } else {
                    Expected::Insecure
                };
                (attrs.name, expected)
            })
            .unzip();
        World { internet, resolver, names, expected, leaks }
    }

    /// Rank of the most popular domain whose chain of trust reaches the
    /// root.
    pub fn first_secure_rank(&self) -> Option<usize> {
        self.expected.iter().position(|&e| e == Expected::Secure).map(|i| i + 1)
    }

    /// Installs a tracer in front of the leak sink.
    fn trace(&mut self) -> Rc<RefCell<Tracer>> {
        let tracer = Rc::new(RefCell::new(Tracer::new()));
        let sink = TraceSink { tracer: Rc::clone(&tracer), leaks: Rc::clone(&self.leaks) };
        self.internet.net.set_observer(Box::new(sink));
        tracer
    }

    /// Puts the bare leak sink back.
    fn untrace(&mut self) {
        self.internet.net.set_observer(Box::new(Rc::clone(&self.leaks)));
    }

    fn snapshot(&self) -> Snapshot {
        let stats = self.internet.net.stats();
        Snapshot {
            exchanges: stats.total_queries(),
            bytes: stats.total_bytes(),
            dlv_sent: self.resolver.counters.dlv_queries_sent,
            dlv_suppressed: self.resolver.counters.dlv_suppressed_by_nsec,
        }
    }

    /// Resolves `names[i]` for type A through `resolve_into`, checks the
    /// answer, and returns the call's wall time in nanoseconds.
    fn resolve(
        &mut self,
        i: usize,
        out: &mut Resolution,
        tracer: Option<&RefCell<Tracer>>,
        tally: &mut Tally,
        outcome: &mut Outcome,
    ) -> u64 {
        if let Some(tracer) = tracer {
            tracer.borrow_mut().start();
        }
        let start = Instant::now();
        let result =
            self.resolver.resolve_into(&mut self.internet.net, &self.names[i], RrType::A, out);
        let end = Instant::now();
        if let Some(tracer) = tracer {
            tracer.borrow_mut().finish(start, end);
        }
        tally.record(&result, out);
        outcome.check(self.problem(i, &result, out));
        (end - start).as_nanos() as u64
    }

    /// Why the resolution of `names[i]` is wrong, if it is: it must
    /// succeed with exactly the zone's one A record and the validation
    /// status the population's signing and deposit attributes imply.
    fn problem(
        &self,
        i: usize,
        result: &Result<(), ResolveError>,
        out: &Resolution,
    ) -> Option<String> {
        let name = &self.names[i];
        if let Err(e) = result {
            return Some(format!("{name}: {e}"));
        }
        let status = match self.expected[i] {
            Expected::Secure | Expected::SecureViaDlv => SecurityStatus::Secure,
            Expected::Insecure => SecurityStatus::Insecure,
        };
        let via_dlv = self.expected[i] == Expected::SecureViaDlv;
        let ok = out.rcode == Rcode::NoError
            && out.answers.len() == 1
            && out.answers[0].rrtype == RrType::A
            && out.status == status
            && out.secured_via_dlv == via_dlv;
        (!ok).then(|| {
            format!(
                "{name}: got {:?} {:?} via_dlv={} with {} answers, want NoError {status:?} via_dlv={via_dlv} with 1",
                out.rcode,
                out.status,
                out.secured_via_dlv,
                out.answers.len()
            )
        })
    }

    /// Digest of everything the run produced so far: outcome tallies,
    /// traffic, leakage, resolver DLV counters, and the simulated clock.
    fn digest(&self, tally: &Tally) -> String {
        let stats = self.internet.net.stats();
        let leaks = &self.leaks.borrow().report;
        let counters = &self.resolver.counters;
        Digest::new()
            .add("secure", tally.secure)
            .add("insecure", tally.insecure)
            .add("other_status", tally.other_status)
            .add("via_dlv", tally.via_dlv)
            .add("noerror", tally.noerror)
            .add("other_rcode", tally.other_rcode)
            .add("answers", tally.answers)
            .add("errors", tally.errors)
            .add("exchanges", stats.total_queries())
            .add("query_bytes", stats.query_bytes)
            .add("response_bytes", stats.response_bytes)
            .add("timeouts", stats.timeouts)
            .add("retransmissions", stats.retransmissions)
            .add("dlv_queries", leaks.dlv_queries)
            .add("dlv_responses", leaks.dlv_responses)
            .add("case1", leaks.case1)
            .add("case2", leaks.case2)
            .add("leaked_names", leaks.leaked_names.len())
            .add("dlv_sent", counters.dlv_queries_sent)
            .add("dlv_suppressed", counters.dlv_suppressed_by_nsec)
            .add("clock_ns", self.internet.net.now_ns())
            .hex()
    }
}

impl Tally {
    fn record(&mut self, result: &Result<(), ResolveError>, out: &Resolution) {
        if result.is_err() {
            self.errors += 1;
            return;
        }
        match out.status {
            SecurityStatus::Secure => self.secure += 1,
            SecurityStatus::Insecure => self.insecure += 1,
            _ => self.other_status += 1,
        }
        self.via_dlv += u64::from(out.secured_via_dlv);
        if out.rcode == Rcode::NoError {
            self.noerror += 1;
        } else {
            self.other_rcode += 1;
        }
        self.answers += out.answers.len() as u64;
    }
}

/// Per-layer totals over the traced units of a run.
#[derive(Debug, Default)]
struct Layers {
    resolutions: u64,
    loop_ns: u64,
    resolve_ns: u64,
    no_exchange: u64,
    class: [(u64, u64); 4],
    counts: Snapshot,
    traced_rates: Vec<f64>,
    untraced_rates: Vec<f64>,
}

impl Layers {
    /// Adds one traced unit: its tracer, its loop time, and the counters
    /// before and after it.
    fn absorb(&mut self, tracer: &Tracer, world: &World, loop_ns: u64, before: Snapshot) {
        let after = world.snapshot();
        self.resolutions += tracer.resolutions;
        self.loop_ns += loop_ns;
        self.resolve_ns += tracer.resolve_ns;
        self.no_exchange += tracer.no_exchange;
        for (total, (ns, count)) in self.class.iter_mut().zip(tracer.by_class(&world.internet.net))
        {
            total.0 += ns;
            total.1 += count;
        }
        self.counts.exchanges += after.exchanges - before.exchanges;
        self.counts.bytes += after.bytes - before.bytes;
        self.counts.dlv_sent += after.dlv_sent - before.dlv_sent;
        self.counts.dlv_suppressed += after.dlv_suppressed - before.dlv_suppressed;
        self.traced_rates.push(ratio(tracer.resolutions as f64, loop_ns as f64 / 1e9));
    }

    /// Sets the per-layer metrics, each per resolution. By construction
    /// `bench.loop_ns = resolver.self_ns + server.busy_ns +
    /// bench.unattributed_ns`.
    fn report(&self, outcome: &mut Outcome) {
        let n = self.resolutions as f64;
        let (loop_ns, resolve_ns) = (self.loop_ns as f64, self.resolve_ns as f64);
        let busy_ns = self.class.iter().map(|c| c.0 as f64).sum::<f64>();
        outcome.set("resolver.resolve_ns", ratio(resolve_ns, n));
        outcome.set("resolver.self_ns", ratio(resolve_ns - busy_ns, n));
        outcome.set("resolver.no_exchange_share", ratio(self.no_exchange as f64, n));
        outcome.set("resolver.dlv_queries_per_resolution", ratio(self.counts.dlv_sent as f64, n));
        let dlv_lookups = (self.counts.dlv_sent + self.counts.dlv_suppressed) as f64;
        outcome.set(
            "resolver.dlv_suppressed_share",
            ratio(self.counts.dlv_suppressed as f64, dlv_lookups),
        );
        for (name, (ns, count)) in SERVER_CLASSES.iter().zip(self.class) {
            outcome.set(format!("server.{name}.exchange_ns"), ratio(ns as f64, count as f64));
            outcome.set(format!("server.{name}.exchanges"), ratio(count as f64, n));
        }
        outcome.set("server.busy_ns", ratio(busy_ns, n));
        outcome.set("server.busy_share", ratio(busy_ns, loop_ns));
        outcome.set("netsim.exchanges_per_resolution", ratio(self.counts.exchanges as f64, n));
        outcome.set("netsim.bytes_per_resolution", ratio(self.counts.bytes as f64, n));
        outcome.set("bench.loop_ns", ratio(loop_ns, n));
        outcome.set("bench.unattributed_ns", ratio(loop_ns - resolve_ns, n));
        let time = |rates: &[f64]| quiet(&rates.iter().map(|r| 1.0 / r).collect::<Vec<_>>());
        outcome.set(
            "trace.overhead_share",
            1.0 - ratio(time(&self.untraced_rates), time(&self.traced_rates)),
        );
    }
}

/// Writes the first traced unit's raw spans; a failed write loses the file,
/// not the run.
fn write_trace(args: &Args, tracer: &Tracer, world: &World) {
    if let Some(path) = &args.trace_file {
        if let Err(e) = std::fs::write(path, tracer.jsonl(&world.internet.net)) {
            eprintln!("writing {}: {e}", path.display());
        }
    }
}

/// Whether a run that started measuring at `started` has measured enough:
/// its time is up, and with tracing on it has both traced and untraced
/// units to compare.
fn done(args: &Args, started: Instant, layers: &Layers) -> bool {
    started.elapsed() >= Duration::from_secs_f64(args.seconds)
        && (!args.trace || (!layers.traced_rates.is_empty() && !layers.untraced_rates.is_empty()))
}

/// `cold-sweep`: each repetition builds the top-`cold_top` Internet (the
/// set-up) and resolves every name once in rank order through a fresh
/// resolver, so every query misses every cache.
pub fn cold_sweep(args: &Args, scale: &Scale, outcome: &mut Outcome) -> Option<World> {
    let ranks: Vec<usize> = (0..scale.cold_top).collect();
    repeat(args, scale.cold_top, false, &ranks, 0, outcome)
}

/// `warm-zipf`: each repetition builds the top-`warm_top` Internet and
/// resolves every name once (the set-up), then sends `warm_queries` stub
/// queries drawn Zipf over the same names, advancing the simulated clock
/// [`STUB_GAP_NS`] before each. The queries span more than one TTL of
/// simulated time, so answers the set-up cached expire and are fetched
/// again while they run.
pub fn warm_zipf(args: &Args, scale: &Scale, outcome: &mut Outcome) {
    let zipf = Zipf::new(scale.warm_top, ZIPF_S);
    let draws: Vec<usize> = (0..scale.warm_queries as u64)
        .map(|draw| zipf.sample_hash(splitmix64(args.seed ^ DRAW_SALT, draw)) - 1)
        .collect();
    drop(repeat(args, scale.warm_top, true, &draws, STUB_GAP_NS, outcome));
}

/// Runs repetitions of a resolver workload until the time is up. Each
/// builds the top-`top` Internet with a fresh resolver, with `warm` also
/// resolves every name once, and then resolves `queries` (indices into the
/// names, by rank) through `resolve_into`, advancing the simulated clock
/// `gap_ns` before each. The first repetition warms the process up and is
/// checked but not timed; every one must produce the same digest. Returns
/// the last repetition's world.
///
/// Every repetition does the same work for the same query, so each query's
/// latency is its fastest over the untraced repetitions (see
/// [`report_fastest`]).
fn repeat(
    args: &Args,
    top: usize,
    warm: bool,
    queries: &[usize],
    gap_ns: u64,
    outcome: &mut Outcome,
) -> Option<World> {
    let mut setups_s = Vec::new();
    let mut layers = Layers::default();
    let mut world = None;
    let mut latencies = Vec::with_capacity(queries.len());
    let mut fastest = vec![u64::MAX; queries.len()];
    let mut started = Instant::now();
    for rep in 0.. {
        // Alternate untraced and traced repetitions in a traced run.
        let traced = args.trace && rep % 2 == 0 && rep > 0;
        drop(world.take());
        let mut tally = Tally::default();
        let mut out = Resolution::placeholder();
        let setup_start = Instant::now();
        let mut w = World::build(args.seed, top);
        if warm {
            for i in 0..top {
                w.resolve(i, &mut out, None, &mut tally, outcome);
            }
        }
        let setup_s = setup_start.elapsed().as_secs_f64();
        let tracer = traced.then(|| w.trace());
        latencies.clear();
        let before = w.snapshot();
        let loop_start = Instant::now();
        for &i in queries {
            if gap_ns > 0 {
                w.internet.net.advance(gap_ns);
            }
            latencies.push(w.resolve(i, &mut out, tracer.as_deref(), &mut tally, outcome));
        }
        let loop_ns = loop_start.elapsed().as_nanos() as u64;
        outcome.check_digest("digest", w.digest(&tally));
        if rep == 0 {
            started = Instant::now();
        } else if let Some(tracer) = &tracer {
            if layers.traced_rates.is_empty() {
                write_trace(args, &tracer.borrow(), &w);
            }
            layers.absorb(&tracer.borrow(), &w, loop_ns, before);
        } else {
            for (best, &ns) in fastest.iter_mut().zip(&latencies) {
                *best = (*best).min(ns);
            }
            layers.untraced_rates.push(ratio(latencies.len() as f64, loop_ns as f64 / 1e9));
            setups_s.push(setup_s);
        }
        if traced {
            w.untrace();
        }
        world = Some(w);
        if rep > 0 && done(args, started, &layers) {
            break;
        }
    }
    if args.trace {
        layers.report(outcome);
    } else {
        report_fastest(outcome, &setups_s, &mut fastest);
    }
    world
}
