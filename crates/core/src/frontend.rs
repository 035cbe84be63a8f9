//! The frontend engine — one per application per host.
//!
//! Terminates the shim command queues of the application's ranks on this
//! host: services memory management directly against the device fabric
//! (allocation redirection with IPC handles, §4.1) and forwards
//! communicator and collective commands to the owning proxy engines.

use crate::messages::ProxyMsg;
use crate::world::{resources, World};
use mccs_ipc::{AppId, ErrorCode, ShimCommand, ShimCompletion};
use mccs_sim::{Engine, Poll, ResourceId};
use mccs_topology::{GpuId, HostId};

/// The per-(application, host) frontend engine.
pub struct FrontendEngine {
    app: AppId,
    host: HostId,
    /// Endpoint indices this frontend serves (the app's ranks on `host`).
    endpoints: Vec<usize>,
}

impl FrontendEngine {
    /// A frontend serving `endpoints` of `app` on `host`.
    pub fn new(app: AppId, host: HostId, endpoints: Vec<usize>) -> Self {
        FrontendEngine {
            app,
            host,
            endpoints,
        }
    }

    fn gpu_allowed(&self, w: &World, endpoint: usize, gpu: GpuId) -> bool {
        // Tenant isolation: an app may only touch GPUs assigned to it.
        let _ = endpoint;
        w.endpoints
            .iter()
            .any(|e| e.app == self.app && e.gpu == gpu)
    }

    fn handle(&mut self, w: &mut World, endpoint: usize, cmd: ShimCommand) {
        match cmd {
            ShimCommand::MemAlloc { req, gpu, size } => {
                if !self.gpu_allowed(w, endpoint, gpu) {
                    w.send_completion(
                        endpoint,
                        ShimCompletion::Error {
                            req,
                            code: ErrorCode::InvalidArgument,
                            message: format!("{gpu} is not assigned to this application"),
                        },
                    );
                    return;
                }
                match w.devices.alloc(gpu, size) {
                    Ok(handle) => {
                        w.send_completion(endpoint, ShimCompletion::MemAlloc { req, handle })
                    }
                    Err(e) => w.send_completion(
                        endpoint,
                        ShimCompletion::Error {
                            req,
                            code: ErrorCode::InvalidArgument,
                            message: format!("allocation failed: {e}"),
                        },
                    ),
                }
            }
            ShimCommand::MemFree { req, handle } => match w.devices.free(handle) {
                Ok(()) => w.send_completion(endpoint, ShimCompletion::MemFree { req }),
                Err(e) => w.send_completion(
                    endpoint,
                    ShimCompletion::Error {
                        req,
                        code: ErrorCode::InvalidArgument,
                        message: format!("free failed: {e}"),
                    },
                ),
            },
            ShimCommand::CommInit {
                req,
                comm,
                world,
                rank,
            } => {
                let gpu = w.endpoints[endpoint].gpu;
                if world.get(rank).copied() != Some(gpu) {
                    w.send_completion(
                        endpoint,
                        ShimCompletion::Error {
                            req,
                            code: ErrorCode::InvalidUsage,
                            message: format!(
                                "rank {rank} of {comm} does not map to this endpoint's {gpu}"
                            ),
                        },
                    );
                    return;
                }
                let gpus = w.topo.gpu_count();
                let mut sorted = world.clone();
                sorted.sort_unstable();
                let refusal = if let Some(bad) = sorted.iter().find(|g| g.index() >= gpus) {
                    Some((
                        ErrorCode::InvalidArgument,
                        format!("{bad} in the world of {comm} is not in this {gpus}-GPU cluster"),
                    ))
                } else if let Some(dup) = sorted.windows(2).find(|p| p[0] == p[1]) {
                    Some((
                        ErrorCode::InvalidArgument,
                        format!("{} appears twice in the world of {comm}", dup[0]),
                    ))
                } else if w.comms.contains(&(comm, gpu)) {
                    Some((
                        ErrorCode::InvalidUsage,
                        format!("{comm} is already initialized on {gpu}"),
                    ))
                } else {
                    None
                };
                if let Some((code, message)) = refusal {
                    w.send_completion(endpoint, ShimCompletion::Error { req, code, message });
                    return;
                }
                // The communicator's service-side completion event, shared
                // back to the shim through the init completion.
                let comm_event = w.devices.create_event();
                w.send_to_proxy(
                    gpu,
                    ProxyMsg::RegisterRank {
                        app: self.app,
                        endpoint,
                        comm,
                        world,
                        rank,
                        comm_event,
                    },
                );
                w.send_completion(
                    endpoint,
                    ShimCompletion::CommInit {
                        req,
                        comm,
                        comm_event,
                    },
                );
            }
            ShimCommand::CommDestroy { req, comm } => {
                let gpu = w.endpoints[endpoint].gpu;
                w.send_to_proxy(
                    gpu,
                    ProxyMsg::CommDestroy {
                        endpoint,
                        req,
                        comm,
                    },
                );
            }
            ShimCommand::Collective { req, coll } => {
                let gpu = w.endpoints[endpoint].gpu;
                w.send_to_proxy(
                    gpu,
                    ProxyMsg::Collective {
                        endpoint,
                        req,
                        coll,
                    },
                );
            }
        }
    }
}

impl Engine<World> for FrontendEngine {
    fn progress(&mut self, w: &mut World) -> Poll {
        let mut progressed = false;
        for i in 0..self.endpoints.len() {
            let endpoint = self.endpoints[i];
            let mut popped = false;
            loop {
                let now = w.clock;
                let Some(cmd) = w.endpoints[endpoint].cmd.pop(now) else {
                    break;
                };
                popped = true;
                self.handle(w, endpoint, cmd);
                progressed = true;
            }
            if popped {
                // Space freed: resume any rank back-pressured on this
                // command queue.
                w.signal(resources::endpoint_cmd_space(endpoint as u32));
            }
        }
        if progressed {
            Poll::Progressed
        } else {
            Poll::Idle
        }
    }

    fn wake_when(&self, _: &World, on: &mut Vec<ResourceId>) {
        // One command-queue resource per served endpoint, signalled when
        // a pushed command turns visible.
        on.extend(
            self.endpoints
                .iter()
                .map(|&endpoint| resources::endpoint_cmd(endpoint as u32)),
        );
    }

    fn name(&self) -> String {
        format!("frontend({}, {})", self.app, self.host)
    }
}
