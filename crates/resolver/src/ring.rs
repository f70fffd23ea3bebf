//! Fixed-capacity timer ring for server holddowns.
//!
//! The infrastructure cache used to keep holddown timers in a
//! `BTreeMap<Ipv4Addr, u64>` — unbounded, node-allocating, and rebalancing
//! on every insert. A [`TimerRing`] is the streaming replacement: a
//! fixed-size slot array allocated once, where expired slots are reclaimed
//! in place and, when every slot is live, the timer that would have
//! expired soonest is evicted (which can only shorten one holddown, never
//! lengthen or invent one — a safe degradation). Steady-state memory is
//! the capacity, independent of how many servers a replay ever touched.
//!
//! All decisions are functions of the slot contents and the simulated
//! clock, so the ring is as deterministic as the map it replaces.
//!
//! `active` runs on every candidate server of every delegation step;
//! `crates/bench/tests/alloc_free.rs` holds `arm`/`active`/`disarm` to zero
//! heap allocations, past capacity included.

use std::net::Ipv4Addr;

/// A vacant slot carries `until_ns == 0`; a live timer always has
/// `until_ns > 0` because holddowns are `now + holddown_ns` with a
/// positive holddown (a zero-length holddown would be inert anyway).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TimerSlot {
    addr: Ipv4Addr,
    until_ns: u64,
}

const VACANT: TimerSlot = TimerSlot { addr: Ipv4Addr::UNSPECIFIED, until_ns: 0 };

/// A fixed-capacity set of `(server, expiry)` timers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimerRing {
    slots: Vec<TimerSlot>,
}

impl TimerRing {
    /// A ring with exactly `capacity` slots (minimum 1), allocated once.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut slots = Vec::with_capacity(capacity.max(1));
        slots.resize(capacity.max(1), VACANT);
        TimerRing { slots }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Arms (or extends) the timer for `addr` to at least `until_ns`.
    ///
    /// Matches the map semantics: re-arming keeps the later expiry. With
    /// no slot for `addr`, the first expired slot (relative to `now_ns`)
    /// is reclaimed; with every slot live, the soonest-expiring timer is
    /// evicted.
    pub fn arm(&mut self, addr: Ipv4Addr, until_ns: u64, now_ns: u64) {
        let mut reuse: Option<usize> = None;
        let mut soonest = 0usize;
        let mut soonest_until = u64::MAX;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.until_ns > 0 && slot.addr == addr {
                slot.until_ns = slot.until_ns.max(until_ns);
                return;
            }
            if reuse.is_none() && slot.until_ns <= now_ns {
                // Vacant or expired — either way, reclaimable.
                reuse = Some(i);
            }
            if slot.until_ns < soonest_until {
                soonest_until = slot.until_ns;
                soonest = i;
            }
        }
        if let Some(slot) = self.slots.get_mut(reuse.unwrap_or(soonest)) {
            *slot = TimerSlot { addr, until_ns: until_ns.max(1) };
        }
    }

    /// Whether `addr` has an unexpired timer.
    pub fn active(&self, addr: Ipv4Addr, now_ns: u64) -> bool {
        self.slots.iter().any(|s| s.until_ns > now_ns && s.addr == addr)
    }

    /// Disarms `addr`'s timer, if any.
    pub fn disarm(&mut self, addr: Ipv4Addr) {
        for slot in &mut self.slots {
            if slot.until_ns > 0 && slot.addr == addr {
                *slot = VACANT;
            }
        }
    }

    /// Number of timers unexpired at `now_ns`.
    pub fn live(&self, now_ns: u64) -> usize {
        self.slots.iter().filter(|s| s.until_ns > now_ns).count()
    }
}

impl Default for TimerRing {
    fn default() -> Self {
        TimerRing::with_capacity(crate::HOLDDOWN_RING_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(192, 0, 2, last)
    }

    #[test]
    fn arm_extends_never_shortens() {
        let mut ring = TimerRing::with_capacity(4);
        ring.arm(addr(1), 100, 0);
        ring.arm(addr(1), 50, 0);
        assert!(ring.active(addr(1), 99));
        assert!(!ring.active(addr(1), 100), "expiry is exclusive");
        ring.arm(addr(1), 200, 0);
        assert!(ring.active(addr(1), 150));
    }

    #[test]
    fn expired_slots_are_reclaimed_before_eviction() {
        let mut ring = TimerRing::with_capacity(2);
        ring.arm(addr(1), 10, 0);
        ring.arm(addr(2), 1000, 0);
        // addr(1) has expired by now=20; a third timer reuses its slot and
        // the long-lived addr(2) timer survives.
        ring.arm(addr(3), 2000, 20);
        assert!(!ring.active(addr(1), 20));
        assert!(ring.active(addr(2), 20));
        assert!(ring.active(addr(3), 20));
        assert_eq!(ring.live(20), 2);
    }

    #[test]
    fn full_ring_evicts_the_soonest_expiring_timer() {
        let mut ring = TimerRing::with_capacity(2);
        ring.arm(addr(1), 500, 0);
        ring.arm(addr(2), 1000, 0);
        ring.arm(addr(3), 2000, 0); // evicts addr(1), the soonest
        assert!(!ring.active(addr(1), 0));
        assert!(ring.active(addr(2), 0));
        assert!(ring.active(addr(3), 0));
    }

    #[test]
    fn disarm_frees_the_slot() {
        let mut ring = TimerRing::with_capacity(1);
        ring.arm(addr(1), 100, 0);
        ring.disarm(addr(1));
        assert!(!ring.active(addr(1), 0));
        assert_eq!(ring.live(0), 0);
        ring.disarm(addr(2)); // disarming an unknown server is a no-op
    }
}
