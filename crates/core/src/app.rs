//! Tenant application engines.
//!
//! One [`AppEngine`] per rank: it owns the rank's [`ShimSession`] and its
//! [`AppProgram`], and on each poll hands the
//! program a [`ShimApi`] scoped to the rank's endpoint.
//! From the world's perspective the tenant is just another engine —
//! but one whose only access is the shim surface (queues, own streams,
//! handles): the isolation boundary of the paper.

use crate::world::{resources, EndpointPort, World};
use mccs_shim::{AppProgram, AppStatus, ShimApi, ShimSession};
use mccs_sim::{Engine, Poll, ResourceId};

/// The engine driving one tenant rank.
pub struct AppEngine {
    endpoint: usize,
    session: ShimSession,
    program: Box<dyn AppProgram>,
}

impl AppEngine {
    /// Drive `program` as the rank attached to `endpoint`.
    pub fn new(endpoint: usize, program: Box<dyn AppProgram>) -> Self {
        AppEngine {
            endpoint,
            session: ShimSession::new(),
            program,
        }
    }
}

impl Engine<World> for AppEngine {
    fn progress(&mut self, w: &mut World) -> Poll {
        let gpu = w.endpoints[self.endpoint].gpu;
        let mut port = EndpointPort {
            world: w,
            idx: self.endpoint,
        };
        let mut api = ShimApi::new(&mut self.session, &mut port, gpu);
        match self.program.poll(&mut api) {
            // A program polls until it blocks, so after a poll that moved
            // it a poll now would block too.
            AppStatus::Running => Poll::Drained,
            AppStatus::Blocked => Poll::Idle,
            AppStatus::Finished => Poll::Finished,
        }
    }

    fn wake_when(&self, w: &World, on: &mut Vec<ResourceId>) {
        // Visible completions from the service, and the timers the
        // program arms (SleepUntil-style waits signal the same resource).
        on.push(resources::endpoint_comp(self.endpoint as u32));
        // Programs also block on their stream (compute kernels, event
        // waits): watch it alone, not the service streams on its GPU.
        on.push(resources::stream_activity(
            w.endpoints[self.endpoint].app_stream,
        ));
        // Under command-queue back-pressure the session holds unsent
        // commands; the frontend signals when it frees space.
        if self.session.has_unsent() {
            on.push(resources::endpoint_cmd_space(self.endpoint as u32));
        }
    }

    fn name(&self) -> String {
        format!("app-rank({}, {})", self.endpoint, self.program.name())
    }
}
