//! Allocation counts of the resolution path, held exactly.
//!
//! A counting global allocator tallies allocations per thread, so tests
//! running in parallel cannot leak into each other's counts. Two kinds of
//! test share it:
//!
//! - The per-packet and per-lookup entries that run over tens of millions
//!   of simulated queries (message sizing, scratch vectors, flat-zone
//!   lookups, name-map probes, holddown timers and the DLV packet counter)
//!   are warmed with one call, then 1,000 further calls must touch the
//!   heap zero times.
//! - Whole runs are deterministic, so their counts are exact numbers, not
//!   timings: a cold fig8_9-style sweep and warm re-resolution through one
//!   reused `Resolution` must each stay at or under a recorded count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::rc::Rc;

use lookaside::experiments::{run, RunConfig};
use lookaside::internet::{Internet, InternetParams};
use lookaside::workload::PopulationParams;
use lookaside::LeakSink;
use lookaside_netsim::{CaptureFilter, Direction, DlvQueryCounter, Packet, PacketSink};
use lookaside_resolver::{BindConfig, Resolution, ResolverConfig, TimerRing};
use lookaside_wire::ext::RemedyMode;
use lookaside_wire::{
    Message, MessageBuilder, Name, NameMap, NameSet, RData, Rcode, Record, RenderArena, RrType,
    Scratch,
};
use lookaside_zone::{FlatZone, Zone};

struct CountingAlloc;

thread_local! {
    // `const` with no destructor: reading it never allocates, so the
    // allocator may touch it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; counting touches only a
// `const` thread-local, which neither allocates nor panics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Calls `op` once to warm up, then requires 1,000 more calls to make no
/// allocation on this thread.
fn assert_allocation_free(what: &str, mut op: impl FnMut()) {
    op();
    let allocs = allocations_in(|| {
        for _ in 0..1_000 {
            op();
        }
    });
    assert_eq!(allocs, 0, "{what}: {allocs} allocations over 1,000 warm calls");
}

/// Allocations `op` makes on this thread.
fn allocations_in(op: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    op();
    ALLOCS.with(Cell::get) - before
}

/// Requires a whole run's allocation count to stay at or under the one
/// recorded for it.
fn assert_at_most(what: &str, allocs: u64, recorded: u64, constant: &str) {
    println!("{what}: {allocs} allocations (recorded {recorded})");
    assert!(
        allocs <= recorded,
        "{what}: {allocs} allocations, over the recorded {recorded}. If the new \
         allocations are intended, set {constant} to {allocs} and give the reason in \
         CHANGES.md; a change that lowers the count lowers {constant} with it."
    );
}

fn name(s: &str) -> Name {
    Name::parse(s).unwrap()
}

#[test]
fn render_arena_measures_without_allocating() {
    let query = Message::dnssec_query(7, name("www.example.com."), RrType::A);
    let response = MessageBuilder::respond_to(&query)
        .rcode(Rcode::NoError)
        .answer(Record::new(name("www.example.com."), 300, RData::A(Ipv4Addr::new(192, 0, 2, 1))))
        .authority(Record::new(name("example.com."), 3600, RData::Ns(name("ns1.example.com."))))
        .authority(Record::new(name("example.com."), 3600, RData::Ns(name("ns.provider.net."))))
        .additional(Record::new(
            name("ns1.example.com."),
            3600,
            RData::A(Ipv4Addr::new(192, 0, 2, 53)),
        ))
        .build();
    let mut arena = RenderArena::new();
    assert_allocation_free("RenderArena::measure(query)", || {
        black_box(arena.measure(&query));
    });
    assert_allocation_free("RenderArena::measure(response)", || {
        black_box(arena.measure(&response));
    });
}

#[test]
fn scratch_recycles_without_allocating() {
    let mut scratch: Scratch<u64> = Scratch::new();
    assert_allocation_free("Scratch::take/give", || {
        let mut v = scratch.take();
        v.extend([1, 2, 3]);
        scratch.give(black_box(v));
    });
}

#[test]
fn flat_zone_lookups_do_not_allocate() {
    let apex = name("example.com.");
    let mut zone = Zone::new(apex, name("ns1.example.com."));
    zone.add(name("www.example.com."), 300, RData::A(Ipv4Addr::new(192, 0, 2, 1)));
    zone.add(name("ns1.example.com."), 300, RData::A(Ipv4Addr::new(192, 0, 2, 53)));
    let flat = FlatZone::build(&zone, &BTreeMap::new());
    let hit = name("www.example.com.");
    let miss = name("nope.example.com.");
    for (what, qname, found) in [("hit", &hit, true), ("miss", &miss, false)] {
        assert_eq!(flat.find(qname, RrType::A).is_some(), found);
        assert_allocation_free(&format!("FlatZone::find ({what})"), || {
            black_box(flat.find(qname, RrType::A));
        });
        assert_allocation_free(&format!("FlatZone::signed ({what})"), || {
            black_box(flat.signed(qname, RrType::A));
        });
        assert_allocation_free(&format!("FlatZone::name_exists ({what})"), || {
            black_box(flat.name_exists(qname));
        });
    }
}

#[test]
fn name_map_probes_do_not_allocate() {
    let inline = name("www.example.com.");
    let shared = name("a-name-over-twenty-two-octets.example.com.");
    let miss = name("nope.example.com.");
    let mut map = NameMap::new();
    let mut set = NameSet::new();
    for n in [&inline, &shared] {
        map.insert(n.clone(), 1u32);
        set.insert(n.clone());
    }
    for (what, qname, found) in
        [("inline", &inline, true), ("shared", &shared, true), ("miss", &miss, false)]
    {
        assert_eq!(map.get(qname).is_some(), found);
        assert_allocation_free(&format!("NameMap::get ({what})"), || {
            black_box(map.get(qname));
        });
        assert_allocation_free(&format!("NameMap::get_mut ({what})"), || {
            black_box(map.get_mut(qname));
        });
        assert_allocation_free(&format!("NameSet::contains ({what})"), || {
            black_box(set.contains(qname));
        });
    }
}

#[test]
fn timer_ring_past_capacity_does_not_allocate() {
    let mut ring = TimerRing::with_capacity(4);
    let mut now = 0u64;
    assert_allocation_free("TimerRing::arm/active/disarm", || {
        now += 1;
        // Eight servers through four slots: every call past the fourth
        // reclaims or evicts.
        for last in 0..8u8 {
            let addr = Ipv4Addr::new(192, 0, 2, last);
            ring.arm(addr, now + 10 + u64::from(last), now);
            black_box(ring.active(addr, now));
        }
        ring.disarm(Ipv4Addr::new(192, 0, 2, 7));
    });
    assert_eq!(ring.capacity(), 4);
}

#[test]
fn dlv_query_counter_observes_without_allocating() {
    let packet = Packet {
        time_ns: 0,
        dst: Ipv4Addr::new(192, 0, 2, 1),
        direction: Direction::Query,
        qname: name("example.com.dlv.isc.org."),
        qtype: RrType::Dlv,
        rcode: Rcode::NoError,
        answers: 0,
        size: 64,
    };
    let mut counter = DlvQueryCounter::new();
    assert_allocation_free("DlvQueryCounter::observe", || counter.observe(&packet));
    assert_eq!(counter.queries, 1_001);
}

/// Population sizes and seed of the cold run: fig8_9's shard body, one
/// cold-cache run per size, without the engine, whose worker threads this
/// per-thread counter cannot see.
const COLD_SIZES: [usize; 4] = [50, 100, 150, 200];
const SEED: u64 = 11;

/// Allocations of the cold run over its 500 queries (351 per query),
/// Internet builds included; the same in debug and release builds.
const COLD_ALLOCS: u64 = 175_484;

/// Allocations of 1,000 warm re-resolutions (200 names, five rounds).
const WARM_ALLOCS: u64 = 65;

#[test]
fn cold_sweep_allocations_stay_at_the_recorded_count() {
    let allocs = allocations_in(|| {
        for n in COLD_SIZES {
            let mut config = RunConfig::for_top(n, RemedyMode::None);
            config.seed = SEED;
            black_box(run(&config));
        }
    });
    let queries: usize = COLD_SIZES.iter().sum();
    assert_at_most(&format!("cold run, {queries} queries"), allocs, COLD_ALLOCS, "COLD_ALLOCS");
}

#[test]
fn warm_resolution_allocations_stay_at_the_recorded_count() {
    const DOMAINS: usize = 200;
    const ROUNDS: usize = 5;
    // A capture-less network with a LeakSink observer, as every
    // experiment runs.
    let population = PopulationParams { size: 1000, ..PopulationParams::default() };
    let mut params = InternetParams::for_top(DOMAINS, population, RemedyMode::None);
    params.seed = SEED;
    params.capture = CaptureFilter::None;
    let mut internet = Internet::build(params);
    let sink =
        Rc::new(RefCell::new(LeakSink::new(CaptureFilter::DlvOnly, internet.dlv_apex.clone())));
    internet.net.set_observer(Box::new(Rc::clone(&sink)));
    let mut resolver =
        internet.resolver(ResolverConfig::Bind(BindConfig::correct()), SEED ^ 0x5a17);
    let names = internet.population.top(DOMAINS);
    // `resolve_into` overwrites one reused Resolution per query, so its
    // answers vector amortises to the workload's high-water capacity.
    let mut resolution = Resolution::placeholder();
    let mut resolve_all = || {
        for name in &names {
            black_box(
                resolver.resolve_into(&mut internet.net, name, RrType::A, &mut resolution).ok(),
            );
        }
    };
    resolve_all();
    let allocs = allocations_in(|| {
        for _ in 0..ROUNDS {
            resolve_all();
        }
    });
    let what = format!("warm resolution, {} queries", DOMAINS * ROUNDS);
    assert_at_most(&what, allocs, WARM_ALLOCS, "WARM_ALLOCS");
}
