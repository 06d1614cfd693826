//! What an idle agent costs, counted: live heap bytes per hosted agent
//! and per registered mailbox under a ceiling, and everything returned
//! when agents come and go — on the [`Bus`] and on a [`TcpTransport`]
//! node.
//!
//! A counting `#[global_allocator]` sees every allocation of the test
//! process, so the tests here take one lock and run one at a time. Run
//! with `--nocapture` for the table (EXPERIMENTS.md, "A mailbox we own").

use infosleuth_agent::{
    AgentBehavior, AgentContext, AgentRuntime, Bus, Envelope, RuntimeConfig, TcpTransport,
    Transport,
};
use infosleuth_kqml::{Message, Performative};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard};

struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static LIVE_ALLOCS: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are statistics and publish nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Relaxed);
        LIVE_ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Relaxed);
        LIVE_ALLOCS.fetch_sub(1, Relaxed);
        // SAFETY: `ptr` came from `alloc` above, hence from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as isize - layout.size() as isize, Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Live heap of the whole process: `(bytes, allocations)`.
fn live() -> (isize, isize) {
    (LIVE_BYTES.load(Relaxed), LIVE_ALLOCS.load(Relaxed))
}

/// [`live`], once the event loop has passed over the slot list a few
/// times: stopped slots leave it on the pass after they go idle.
fn settled() -> (isize, isize) {
    std::thread::sleep(10 * RuntimeConfig::default().poll_interval);
    live()
}

fn alone() -> MutexGuard<'static, ()> {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

/// The harness's stub: one shared behaviour that keeps nothing but a
/// count of the agents the runtime has finished with.
#[derive(Default)]
struct Idle {
    stopped: AtomicUsize,
}

impl AgentBehavior for Idle {
    fn on_message(&self, _ctx: &AgentContext, _env: Envelope) {}

    fn on_stop(&self, _ctx: &AgentContext) {
        self.stopped.fetch_add(1, Relaxed);
    }
}

/// The harness's population names (`benchmark/src/gen.rs`).
fn name(i: usize) -> String {
    format!("res-{i:05}")
}

const AGENTS: usize = 2_000;

/// A runtime whose pool and loop are up and idle before anything is
/// counted.
fn quiet_runtime(transport: Arc<dyn Transport>) -> AgentRuntime {
    AgentRuntime::new(transport, RuntimeConfig::default().with_workers(2))
}

#[test]
fn an_idle_hosted_agent_and_an_idle_mailbox_stay_under_their_ceilings() {
    let _alone = alone();
    let names: Vec<String> = (0..AGENTS).map(name).collect();

    let bus = Bus::new();
    let transport = bus.as_transport();
    let before = live();
    let mut mailboxes = Vec::with_capacity(AGENTS);
    for name in &names {
        mailboxes.push(transport.open_mailbox(name).expect("fresh name"));
    }
    let after = live();
    let per_mailbox = ((after.0 - before.0) as usize).div_ceil(AGENTS);
    let mailbox_allocs = (after.1 - before.1) as f64 / AGENTS as f64;
    drop(mailboxes);

    let rt = quiet_runtime(Bus::new().as_transport());
    let behavior: Arc<dyn AgentBehavior> = Arc::new(Idle::default());
    let before = live();
    let mut handles = Vec::with_capacity(AGENTS);
    for name in &names {
        handles.push(rt.spawn(name.clone(), Arc::clone(&behavior)).expect("fresh name"));
    }
    let after = live();
    let per_agent = ((after.0 - before.0) as usize).div_ceil(AGENTS);
    let agent_allocs = (after.1 - before.1) as f64 / AGENTS as f64;
    let idle_series = failure_series(&rt);
    // One failed send registers the sender's series, and only its own.
    let failed = handles[0].ctx().send("nobody", Message::new(Performative::Tell));
    assert!(failed.is_err(), "a send to an unregistered name fails");
    let after_one_failure = failure_series(&rt);
    drop(handles);
    rt.shutdown();

    println!("| per idle …         | bytes | allocations |");
    println!("|---|---:|---:|");
    println!("| hosted agent       | {per_agent} | {agent_allocs:.1} |");
    println!("| registered mailbox | {per_mailbox} | {mailbox_allocs:.1} |");
    println!("| failure series, {AGENTS} agents that never failed | {idle_series} | |");
    // 292–300 B in 2.0 allocations and 156 B in 1.0 as measured on a release
    // build (the slot and the mailbox; the registry's and the slot list's
    // growth make up the rest of the bytes), with a tenth of room for a std
    // whose `HashMap` or `Mutex` is laid out differently. Before the slot
    // held its context, name and tick stamp in place and the failure
    // series waited for a failure: 666–669 B in 11.2 allocations.
    assert!(per_agent <= 320, "an idle hosted agent costs {per_agent} B");
    assert!(agent_allocs <= 3.0, "an idle hosted agent costs {agent_allocs:.1} allocations");
    assert!(per_mailbox <= 200, "an idle registered mailbox costs {per_mailbox} B");
    assert_eq!(idle_series, 0, "a hosted agent that never failed a send registered a series");
    assert_eq!(after_one_failure, 1, "the first failed send registers its sender's series");
}

/// `agent_delivery_failures_total` series in `rt`'s registry.
fn failure_series(rt: &AgentRuntime) -> usize {
    let snapshot = rt.obs().registry().snapshot();
    snapshot.samples.iter().filter(|s| s.name == "agent_delivery_failures_total").count()
}

/// `laps` × 100 agents spawned and stopped under the same hundred names,
/// each lap waiting until the event loop has finished with its hundred —
/// or a release build laps the loop and the slot list grows to hold
/// thousands of stopped agents at once.
fn spawn_stop_laps(rt: &AgentRuntime, idle: &Arc<Idle>, laps: usize) {
    for _ in 0..laps {
        let done = idle.stopped.load(Relaxed) + 100;
        let handles: Vec<_> = (AGENTS..AGENTS + 100)
            .map(|i| {
                let behavior = Arc::clone(idle) as Arc<dyn AgentBehavior>;
                rt.spawn(name(i), behavior).expect("the name is free again")
            })
            .collect();
        drop(handles);
        while idle.stopped.load(Relaxed) < done {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }
}

#[test]
fn ten_thousand_spawn_stop_cycles_return_everything_on_bus_and_tcp() {
    let _alone = alone();
    let node = TcpTransport::bind("127.0.0.1:0").expect("bind localhost");
    let transports: [(&str, Arc<dyn Transport>); 2] =
        [("bus", Bus::new().as_transport()), ("tcp", node.clone())];
    let idle = Arc::new(Idle::default());
    for (label, transport) in transports {
        // The base is a community the size of the harness's, idle
        // throughout; what comes and goes beside it must leave it as it was.
        let rt = quiet_runtime(transport);
        let community: Vec<_> = (0..AGENTS)
            .map(|i| {
                rt.spawn(name(i), Arc::clone(&idle) as Arc<dyn AgentBehavior>).expect("fresh name")
            })
            .collect();
        // The registry map, the slot list and the metrics registry keep
        // the capacity of their high-water mark: one lap sizes them
        // before anything is counted.
        spawn_stop_laps(&rt, &idle, 1);
        let (before, _) = settled();
        spawn_stop_laps(&rt, &idle, 100);
        let (after, _) = settled();
        println!("{label}: live bytes {before} -> {after} over 10 000 spawn/stop cycles");
        assert!(
            (after - before).abs() * 100 <= before,
            "{label}: live heap moved {before} -> {after} B over 10 000 spawn/stop cycles"
        );
        drop(community);
        rt.shutdown();
    }
    node.shutdown();
}
