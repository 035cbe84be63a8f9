//! Resource signalling for wake-driven scheduling.
//!
//! The naive [`crate::RuntimePool`] scheduler re-polls every live engine on
//! every pass until a whole pass is idle — O(engines × passes) per step even
//! when a single message moved. Real executors park idle tasks and wake them
//! through wakers; this module is the virtual-time equivalent. An engine
//! returning [`crate::Poll::Idle`] declares the [`ResourceId`]s it waits on
//! (mailboxes, queues, flow-event channels, its own timer doorbell —
//! whatever the embedder keys them to), and the embedding context
//! implements [`WakeSource`] so the pool can collect the resource signals
//! raised since the last poll and translate them into ready engines.
//!
//! Time is not a wake condition of its own: the pool has no clock. A timed
//! wait is a signal the embedder raises when its clock reaches the instant
//! (the MCCS world's `signal_at`), so "wake me at `t`" and "wake me when a
//! message is visible" are the same thing — a resource in the list.

/// An opaque resource an engine can wait on. The embedder chooses the
/// encoding; [`ResourceId::new`] packs a 32-bit kind with a 32-bit index,
/// which is how the MCCS world keys its queues and channels.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ResourceId(pub u64);

impl ResourceId {
    /// Pack a resource kind and per-kind index into one id.
    pub const fn new(kind: u32, index: u32) -> Self {
        ResourceId(((kind as u64) << 32) | index as u64)
    }

    /// The kind half of the id.
    pub const fn kind(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The index half of the id.
    pub const fn index(self) -> u32 {
        self.0 as u32
    }
}

/// The side of the embedding context the wake-driven scheduler talks to:
/// the stream of resource signals raised since the last drain.
///
/// Signals are level-less edge events: the context appends a
/// [`ResourceId`] whenever something becomes available on that resource
/// (a queued message turning visible, a flow completion, a health event,
/// a timer coming due). Duplicate signals are fine — the pool dedupes when
/// readying engines.
pub trait WakeSource {
    /// Move every signal raised since the last drain into `into`
    /// (appending; the implementation clears its own buffer).
    fn drain_signals(&mut self, into: &mut Vec<ResourceId>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_id_packs_kind_and_index() {
        let r = ResourceId::new(7, 42);
        assert_eq!(r.kind(), 7);
        assert_eq!(r.index(), 42);
        assert_ne!(ResourceId::new(7, 42), ResourceId::new(8, 42));
        assert_ne!(ResourceId::new(7, 42), ResourceId::new(7, 43));
    }
}
