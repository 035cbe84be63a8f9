//! Each service engine kind answers [`Poll::Drained`] when it did work
//! and a poll right after would be idle, and [`Poll::Progressed`] while a
//! further poll still has something to do. The engines here are driven
//! by hand over a testbed world (the cluster only builds the world; its
//! own pool never runs), so every answer is observed, not inferred from
//! the pool's counters. Debug builds of the pool check every `Drained`
//! in every other test too.

use mccs_collectives::op::all_reduce_sum;
use mccs_core::app::AppEngine;
use mccs_core::frontend::FrontendEngine;
use mccs_core::messages::{EdgeSend, ProxyMsg, TransportMsg};
use mccs_core::proxy::ProxyEngine;
use mccs_core::transport::TransportEngine;
use mccs_core::world::{resources, World};
use mccs_core::Cluster;
use mccs_ipc::{AppId, CollectiveRequest, CommunicatorId};
use mccs_netsim::{FaultEvent, FaultPlan, RouteChoice};
use mccs_shim::{AppProgram, ScriptStep, ScriptedProgram};
use mccs_sim::{Bytes, Engine, Nanos, Poll};
use mccs_topology::{presets, GpuId, RouteId};
use std::sync::Arc;

/// A testbed world with two idle endpoints, on GPUs 0 and 1 (host 0).
fn world() -> World {
    let mut cluster = Cluster::new(Arc::new(presets::testbed()), Default::default());
    let idle = || Box::new(ScriptedProgram::new("idle", vec![])) as Box<dyn AppProgram>;
    cluster.add_app("t", vec![(GpuId(0), idle()), (GpuId(1), idle())]);
    cluster.world
}

/// Advance to the next instant anything happens.
fn step(w: &mut World) {
    let t = w.next_time().expect("something scheduled");
    w.advance_to(t);
}

/// Poll `engine` until it answers something other than `Progressed`,
/// and once more; the answers, in order.
fn answers(engine: &mut dyn Engine<World>, w: &mut World) -> Vec<Poll> {
    let mut out = vec![engine.progress(w)];
    while out.last() == Some(&Poll::Progressed) {
        out.push(engine.progress(w));
    }
    out.push(engine.progress(w));
    out
}

use Poll::{Drained, Idle, Progressed};

#[test]
fn app_and_frontend_drain_after_every_poll_that_moved() {
    let mut w = world();
    let alloc = |slot| ScriptStep::Alloc {
        size: Bytes::mib(1),
        slot,
    };
    let script = ScriptedProgram::new("two-allocs", vec![alloc(0), alloc(1)]);
    let mut app = AppEngine::new(0, Box::new(script));
    let host = w.topo.host_of_gpu(GpuId(0));
    let mut frontend = FrontendEngine::new(AppId(0), host, vec![0, 1]);
    // The first allocation is pushed; the script then waits for it.
    assert_eq!(answers(&mut app, &mut w), [Drained, Idle]);
    assert_eq!(
        answers(&mut frontend, &mut w),
        [Idle, Idle],
        "not visible yet"
    );
    step(&mut w);
    assert_eq!(answers(&mut frontend, &mut w), [Drained, Idle]);
    step(&mut w);
    // The answer is read and the second allocation pushed.
    assert_eq!(answers(&mut app, &mut w), [Drained, Idle]);
    step(&mut w);
    assert_eq!(answers(&mut frontend, &mut w), [Drained, Idle]);
}

#[test]
fn an_app_waits_on_its_own_stream_not_on_its_gpu() {
    let mut w = world();
    let app = AppEngine::new(0, Box::new(ScriptedProgram::new("idle", vec![])));
    let mut on = Vec::new();
    app.wake_when(&w, &mut on);
    let (own, peer) = (w.endpoints[0].app_stream, w.endpoints[1].app_stream);
    assert!(on.contains(&resources::stream_activity(own)));
    assert!(!on.contains(&resources::event_recorded(0)));
    let kernel = mccs_device::StreamOp::Kernel {
        duration: Nanos::from_micros(5),
        token: 0,
    };
    let signals = |w: &mut World| {
        let mut out = Vec::new();
        mccs_sim::WakeSource::drain_signals(w, &mut out);
        out
    };
    // An enqueue wakes nobody: whoever enqueued knows.
    w.device_enqueue(own, kernel);
    w.device_enqueue(peer, kernel);
    assert_eq!(signals(&mut w), []);
    // A completion wakes the stream's owner only, not its GPU neighbours.
    w.advance_to(Nanos::from_micros(5));
    let raised = signals(&mut w);
    assert!(raised.contains(&resources::stream_activity(own)));
    assert!(raised.contains(&resources::stream_activity(peer)));
    w.device_enqueue(peer, kernel);
    w.advance_to(Nanos::from_micros(10));
    assert_eq!(signals(&mut w), [resources::stream_activity(peer)]);
}

/// Register a two-rank communicator on GPUs 0 and 1 and queue `n`
/// collectives on each rank, `depends_on` as given; returns both proxies
/// once every message is visible and the ranks are registered.
fn two_ranks(w: &mut World, n: u64, depends_on: Option<mccs_device::EventId>) -> [ProxyEngine; 2] {
    let comm = CommunicatorId(3);
    let gpus = [GpuId(0), GpuId(1)];
    let mut proxies = gpus.map(ProxyEngine::new);
    for (rank, &gpu) in gpus.iter().enumerate() {
        let comm_event = w.devices.create_event();
        w.send_to_proxy(
            gpu,
            ProxyMsg::RegisterRank {
                app: AppId(0),
                endpoint: rank,
                comm,
                world: gpus.to_vec(),
                rank,
                comm_event,
            },
        );
    }
    deliver(w);
    for p in &mut proxies {
        // Registered, nothing queued: settled at once.
        assert_eq!(answers(p, w), [Drained, Idle]);
    }
    for (rank, &gpu) in gpus.iter().enumerate() {
        let buf = w.devices.alloc(gpu, Bytes::mib(2)).expect("fits");
        for req in 0..n {
            let coll = CollectiveRequest {
                comm,
                op: all_reduce_sum(),
                size: Bytes::mib(2),
                send: (buf, 0),
                recv: (buf, 0),
                depends_on,
            };
            let endpoint = rank;
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
    deliver(w);
    proxies
}

/// Step until every message sent to a proxy is visible.
fn deliver(w: &mut World) {
    while (w.proxy_inbox.iter()).any(|q| !q.is_empty() && q.peek(w.clock).is_none()) {
        step(w);
    }
}

#[test]
fn a_proxy_progresses_until_its_collective_is_launched_then_drains() {
    let mut w = world();
    let mut proxies = two_ranks(&mut w, 2, None);
    for p in &mut proxies {
        // Sequenced and admitted; launched on the next poll, which
        // leaves the rank waiting on its transfers.
        assert_eq!(answers(p, &mut w), [Progressed, Drained, Idle]);
    }
    // The intra-host transfers complete: finalize and admit the second
    // collective (Progressed: admitted, not launched), then launch it.
    while w
        .progress
        .lookup(CommunicatorId(3), 0)
        .and_then(|p| p.completed_at)
        .is_none()
    {
        step(&mut w);
    }
    for p in &mut proxies {
        assert_eq!(answers(p, &mut w), [Progressed, Drained, Idle]);
    }
    while w
        .progress
        .lookup(CommunicatorId(3), 1)
        .and_then(|p| p.completed_at)
        .is_none()
    {
        step(&mut w);
    }
    // Finalized with nothing queued behind it.
    for p in &mut proxies {
        assert_eq!(answers(p, &mut w), [Drained, Idle]);
    }
}

#[test]
fn a_proxy_waits_on_its_gpu_only_for_an_unrecorded_dependency() {
    let mut w = world();
    let event = w.devices.create_event();
    let stream = w.endpoints[0].app_stream;
    // A record is enqueued behind a kernel, so it is pending.
    w.device_enqueue(
        stream,
        mccs_device::StreamOp::Kernel {
            duration: Nanos::from_millis(1),
            token: 0,
        },
    );
    w.device_enqueue(stream, mccs_device::StreamOp::RecordEvent(event));
    let mut proxies = two_ranks(&mut w, 1, Some(event));
    let device = resources::event_recorded(0);
    let waits = |p: &ProxyEngine, w: &World| {
        let mut on = Vec::new();
        p.wake_when(w, &mut on);
        on.contains(&device)
    };
    assert!(!waits(&proxies[0], &w), "nothing admitted yet");
    // Admitted; the launch waits for the event, so the poll after the
    // admitting one is idle and parks on the GPU.
    assert_eq!(answers(&mut proxies[0], &mut w), [Progressed, Idle, Idle]);
    assert!(waits(&proxies[0], &w));
    while w.devices.event_time(event).is_none() {
        step(&mut w);
    }
    assert_eq!(
        answers(&mut proxies[0], &mut w),
        [Drained, Idle],
        "launched"
    );
    assert!(
        !waits(&proxies[0], &w),
        "launched: transfers report by token"
    );
}

#[test]
fn under_a_fault_plan_a_launch_arms_its_liveness_timer_and_drains() {
    let mut w = world();
    w.install_fault_plan(FaultPlan::new());
    let mut proxies = two_ranks(&mut w, 1, None);
    let before = w.events.len();
    assert_eq!(
        answers(&mut proxies[0], &mut w),
        [Progressed, Drained, Idle]
    );
    // The sequencing ack to the tenant and one liveness timer; the
    // trailing idle poll arms nothing more.
    assert_eq!(w.events.len(), before + 2);
}

#[test]
fn a_transport_drains_unless_a_retry_is_due_now() {
    let mut w = world();
    let (src, dst) = (w.topo.nic_of_gpu(GpuId(0)), w.topo.nic_of_gpu(GpuId(4)));
    let mut transport = TransportEngine::new(src);
    let send = |w: &mut World, seq| {
        let token = w
            .register_launch(CommunicatorId(5), seq, 0, 1, 1)
            .tokens
            .start;
        w.send_to_transport(
            src,
            TransportMsg::Send(EdgeSend {
                app: AppId(0),
                comm: CommunicatorId(5),
                seq,
                token,
                dst_nic: dst,
                bytes: Bytes::mib(1),
                route: RouteChoice::Pinned(RouteId(0)),
            }),
        );
        step(w);
    };
    // Fault-free: a started flow leaves nothing to do, and so does its
    // completion.
    send(&mut w, 0);
    assert_eq!(answers(&mut transport, &mut w), [Drained, Idle]);
    while w.transport_flow_events[src.index()].is_empty() {
        step(&mut w);
    }
    assert_eq!(answers(&mut transport, &mut w), [Drained, Idle]);

    // Under a plan, a flow on a dead route stalls; the sweep that gives
    // up on it queues a retry due at once (Progressed), which the next
    // poll starts on the other spine (Drained).
    w.install_fault_plan(FaultPlan::new());
    let dead = w.topo.pinned_route(src, dst, RouteId(0)).links[1];
    w.inject_fault(FaultEvent::LinkDown(dead));
    send(&mut w, 1);
    assert_eq!(answers(&mut transport, &mut w), [Drained, Idle]);
    let mut seen = Vec::new();
    while w.health.counters.flow_retries == 0 {
        step(&mut w);
        seen.extend(answers(&mut transport, &mut w));
    }
    assert!(
        seen.ends_with(&[Progressed, Drained, Idle]),
        "the stall's answers: {seen:?}"
    );
}
