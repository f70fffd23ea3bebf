//! Reusable message-rendering arena — the wholesale-reset allocator of the
//! streaming hot path.
//!
//! `Message::wire_len` renders into a fresh buffer every call, which is
//! three heap allocations per simulated exchange (query size, truncation
//! check, response size). A [`RenderArena`] owns one [`Writer`] — output
//! buffer plus the compression suffixes — and resets it wholesale between
//! renders: both keep their capacity, so steady-state rendering allocates
//! nothing once the largest message has been seen.
//!
//! `measure` runs several times per exchange for tens of millions of
//! exchanges; `crates/bench/tests/alloc_free.rs` holds it, and the
//! [`Scratch`] take/give cycle, to zero heap allocations.

use crate::codec::Writer;
use crate::Message;

/// A reusable rendering buffer with wholesale reset and occupancy stats.
#[derive(Debug, Default)]
pub struct RenderArena {
    w: Writer,
    renders: u64,
    high_water: usize,
}

impl RenderArena {
    /// A fresh arena (first renders grow it to the workload's high-water
    /// mark, after which rendering is allocation-steady).
    pub fn new() -> Self {
        RenderArena::default()
    }

    /// Renders `message` into the arena and returns its wire length —
    /// exactly `message.to_bytes().len()`, without the fresh allocation.
    /// The rendered bytes stay available via [`RenderArena::rendered`]
    /// until the next call.
    pub fn measure(&mut self, message: &Message) -> usize {
        self.w.reset();
        message.render_with(&mut self.w);
        self.renders += 1;
        let len = self.w.len();
        self.high_water = self.high_water.max(len);
        len
    }

    /// The bytes of the most recent [`RenderArena::measure`] call.
    pub fn rendered(&self) -> &[u8] {
        self.w.as_bytes()
    }

    /// Messages rendered since construction.
    pub fn renders(&self) -> u64 {
        self.renders
    }

    /// Largest message rendered so far, in octets — the arena's resident
    /// footprint is this plus the recorded compression suffixes.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

/// A recycling pool of cleared `Vec<T>` scratch buffers.
///
/// The streaming steady state hands short-lived `Vec`s across API
/// boundaries (a cache hit's RRset list, for instance). Allocating a fresh
/// `Vec` per query is exactly the churn [`RenderArena`] retires for message
/// rendering; `Scratch` does the same for those vectors: [`Scratch::take`]
/// pops a previously [`Scratch::give`]n buffer — empty but with its
/// capacity intact — so once the workload's high-water shapes have been
/// seen, the take/give cycle stops touching the heap.
///
/// The pool is bounded ([`Scratch::POOL_CAP`]): buffers given back beyond
/// the cap are simply dropped, so a burst of cold-path vectors cannot pin
/// memory forever.
#[derive(Debug)]
pub struct Scratch<T> {
    pool: Vec<Vec<T>>,
    takes: u64,
    misses: u64,
}

impl<T> Default for Scratch<T> {
    fn default() -> Self {
        Scratch { pool: Vec::with_capacity(Self::POOL_CAP), takes: 0, misses: 0 }
    }
}

impl<T> Scratch<T> {
    /// Most buffers retained at once; `give` drops the excess.
    pub const POOL_CAP: usize = 4;

    /// An empty pool (first takes miss and allocate; steady state reuses).
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Takes an empty buffer, reusing the capacity of a previously
    /// returned one when available.
    pub fn take(&mut self) -> Vec<T> {
        self.takes += 1;
        self.pool.pop().unwrap_or_else(|| {
            self.misses += 1;
            Vec::with_capacity(0)
        })
    }

    /// Returns a buffer to the pool for reuse. The buffer is cleared here;
    /// if the pool is already at [`Scratch::POOL_CAP`], it is dropped.
    pub fn give(&mut self, mut buf: Vec<T>) {
        if self.pool.len() < Self::POOL_CAP {
            buf.clear();
            self.pool.push(buf);
        }
    }

    /// Buffers handed out since construction.
    pub fn takes(&self) -> u64 {
        self.takes
    }

    /// Takes that found the pool empty and had to allocate. In a warmed
    /// steady state this stops growing.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Message, Name, RrType};

    #[test]
    fn measure_matches_to_bytes_for_reused_arena() {
        let mut arena = RenderArena::new();
        let names = ["example.com.", "a.example.com.", "very.long.subdomain.example.org."];
        for (i, n) in names.iter().enumerate() {
            let q = Message::dnssec_query(i as u16 + 1, Name::parse(n).unwrap(), RrType::A);
            let fresh = q.to_bytes();
            assert_eq!(arena.measure(&q), fresh.len(), "{n}");
            assert_eq!(arena.rendered(), &fresh[..], "{n}");
        }
        assert_eq!(arena.renders(), 3);
        assert!(arena.high_water() >= 12);
    }

    #[test]
    fn scratch_recycles_capacity_and_bounds_the_pool() {
        let mut scratch: Scratch<u64> = Scratch::new();
        let mut v = scratch.take();
        assert_eq!(scratch.misses(), 1);
        v.extend(0..100);
        let cap = v.capacity();
        scratch.give(v);
        let v = scratch.take();
        assert!(v.is_empty());
        assert_eq!(v.capacity(), cap, "give/take must preserve capacity");
        assert_eq!(scratch.misses(), 1, "second take must hit the pool");
        assert_eq!(scratch.takes(), 2);
        scratch.give(v);
        // The pool refuses to hoard: beyond POOL_CAP, buffers are dropped.
        for _ in 0..(Scratch::<u64>::POOL_CAP * 2) {
            scratch.give(Vec::with_capacity(8));
        }
        let drained = std::iter::from_fn(|| {
            let b = scratch.take();
            b.capacity().gt(&0).then_some(b)
        })
        .count();
        assert!(drained <= Scratch::<u64>::POOL_CAP);
    }

    #[test]
    fn compression_state_does_not_leak_between_renders() {
        let mut arena = RenderArena::new();
        let q = Message::query(7, Name::parse("repeat.example.net.").unwrap(), RrType::Ns);
        let first = arena.measure(&q);
        // A second render of the same message must not find stale
        // compression targets from the first one.
        assert_eq!(arena.measure(&q), first);
        assert_eq!(arena.rendered(), &q.to_bytes()[..]);
    }
}
