//! IPC latency configuration.

use mccs_sim::{Nanos, Rng};

/// Frontend → shim completion queue latency: one shared-memory boundary
/// crossing back to the tenant (§6.2's 50–80 µs datapath band, see
/// [`IpcConfig`]).
pub const COMPLETION_LATENCY: Nanos = Nanos::from_micros(20);

/// Internal engine-to-engine hop latency (frontend → proxy,
/// proxy → transport): one queue hop inside the service.
pub const ENGINE_HOP_LATENCY: Nanos = Nanos::from_micros(10);

/// The shim ⇄ service boundary and the service's internal engine hops.
///
/// The latencies reproduce the paper's measured datapath overhead: "the
/// communication between the application and the MCCS service, as well as
/// between the internal engines of the MCCS service, incurs an overall
/// latency of 50-80 us" (§6.2). A collective traverses
/// shim → frontend → proxy (2 hops) and its completion signals back, plus
/// internal queue hops; with 20 µs per boundary crossing
/// ([`command_latency`](Self::command_latency),
/// [`COMPLETION_LATENCY`]) and 10 µs per internal hop
/// ([`ENGINE_HOP_LATENCY`]) plus jitter, the round trip lands in the
/// measured band.
#[derive(Clone, Debug)]
pub struct IpcConfig {
    /// Shim → frontend command queue latency.
    pub command_latency: Nanos,
    /// Uniform jitter fraction applied per message (0.0 = deterministic).
    pub jitter_frac: f64,
    /// Command/completion queue depth before back-pressure.
    pub queue_capacity: usize,
}

impl Default for IpcConfig {
    fn default() -> Self {
        IpcConfig {
            command_latency: Nanos::from_micros(20),
            jitter_frac: 0.5,
            queue_capacity: 1024,
        }
    }
}

impl IpcConfig {
    /// Apply jitter to a base latency: uniform in
    /// `[base, base * (1 + jitter_frac)]`.
    fn jittered(&self, base: Nanos, rng: &mut Rng) -> Nanos {
        if self.jitter_frac <= 0.0 || base == Nanos::ZERO {
            return base;
        }
        base.mul_f64(1.0 + rng.f64() * self.jitter_frac)
    }

    /// A jittered command latency sample.
    pub fn sample_command_latency(&self, rng: &mut Rng) -> Nanos {
        self.jittered(self.command_latency, rng)
    }

    /// A jittered completion latency sample.
    pub fn sample_completion_latency(&self, rng: &mut Rng) -> Nanos {
        self.jittered(COMPLETION_LATENCY, rng)
    }

    /// A jittered internal hop latency sample.
    pub fn sample_hop_latency(&self, rng: &mut Rng) -> Nanos {
        self.jittered(ENGINE_HOP_LATENCY, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_round_trip_in_paper_band() {
        // §6.2: shim <-> service plus internal engine hops cost 50-80 us
        // overall; the floor sits at the band's bottom, the jittered
        // ceiling within ~20% of its top (the datapath adds the transport
        // hop on top of this floor). One issue path is a command, two
        // internal hops and a completion.
        let cfg = IpcConfig::default();
        let floor = cfg.command_latency + ENGINE_HOP_LATENCY * 2 + COMPLETION_LATENCY;
        let ceiling = floor.mul_f64(1.0 + cfg.jitter_frac);
        assert!(
            floor >= Nanos::from_micros(45) && floor <= Nanos::from_micros(65),
            "floor {floor} outside band"
        );
        assert!(
            ceiling <= Nanos::from_micros(95),
            "ceiling {ceiling} too far above the band"
        );
    }

    #[test]
    fn jitter_bounded_and_deterministic_per_seed() {
        let cfg = IpcConfig::default();
        let base = Nanos::from_micros(10);
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(1);
        for _ in 0..100 {
            let x = cfg.jittered(base, &mut a);
            assert!(x >= base && x <= base.mul_f64(1.0 + cfg.jitter_frac + 1e-9));
            assert_eq!(x, cfg.jittered(base, &mut b));
        }
    }
}
