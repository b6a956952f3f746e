//! The multimedia object presentation manager — the paper's primary
//! contribution.
//!
//! "The presentation manager provides functions for effective multimedia
//! information presentation and browsing. … In addition the presentation
//! manager presents a symmetric functionality for presentation of text and
//! voice information." (§1)
//!
//! * [`command`] — the symmetric browsing command vocabulary and the
//!   events browsing emits;
//! * [`visual`] — the visual-mode engine: visual pages, logical and
//!   pattern browsing, pinned visual logical messages (Figures 3–4);
//! * [`audio`] — the audio-mode engine: audio pages, pause rewind,
//!   recognized-utterance pattern browsing, voice-anchored messages;
//! * [`session`] — the browsing session: driving-mode dispatch, menu
//!   derivation, relevant-object navigation with mode restore;
//! * [`transparency`] — transparency-set presentation (Figures 5–8);
//! * [`process`] — process simulation with audio-gated page turns
//!   (Figures 9–10);
//! * [`transport`] — the pipelined client: one request lifecycle
//!   (window, deadlines, backoff, duplicate suppression, `Busy` deferral,
//!   epoch handshake and replay) over a single server or a fleet;
//! * [`remote`] — the workstation side of the server protocol: remote
//!   views, miniature browsing, transfer accounting;
//! * [`prefetch`] — anticipatory prefetching: prediction policies, the
//!   batched prefetch pipeline, and stall-time accounting (§5);
//! * [`kernel`] — the discrete-event simulation kernel: hierarchical
//!   timer wheel, typed wake events, ready queue, and trace ring;
//! * [`sched`] — the multi-session scheduler: N concurrent sessions over
//!   one shared link, event-driven with audio-first deadlines (§5);
//! * [`fleet`] — the sharded object-server fleet: rendezvous placement,
//!   k-way replication, and replica failover over the epoch handshake
//!   (§2, §5);
//! * [`chaos`] — declarative failure schedules (crashes, restarts,
//!   slowdowns, partitions, bit rot) for the fleet experiments;
//! * [`workload`] — the one workload driver (E12, E14–E17): sessions
//!   paging from a fleet behind one shared link, with prefetch fan-out,
//!   dwell pacing, and the self-healing machinery — health heartbeats,
//!   proactive re-replication, scrub with read-repair, and hedged audio
//!   reads — plus E13's fault-injected reader.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod audio;
pub mod chaos;
pub mod command;
pub mod compose;
pub mod fleet;
mod idhash;
pub mod kernel;
pub mod prefetch;
pub mod process;
pub mod remote;
pub mod sched;
pub mod session;
pub mod tour;
pub mod transparency;
pub mod transport;
pub mod visual;
pub mod workload;

pub use audio::AudioEngine;
pub use chaos::{ChaosEvent, ChaosSchedule};
pub use command::{BrowseCommand, BrowseEvent};
pub use compose::{compose_screen, resolve_figure};
pub use fleet::{
    rendezvous_order, Fleet, FleetConnection, FleetTicket, HealthMonitor, HealthStats,
    MemberHealth, PageChecksums, Placement, RepairQueue, RepairReceipt, RepairStats, RepairTask,
    Replica, ScrubReport,
};
pub use kernel::{Kernel, KernelEvent, KernelStats, TimerId};
pub use prefetch::{page_spans, AnticipatingStore, PrefetchBuffer, PrefetchStats, Prefetcher};
pub use process::{ProcessRunner, ProcessState};
pub use remote::{Connection, MiniatureBrowser, Ticket, Workstation};
pub use sched::{HubStore, SessionKey, SessionScheduler};
pub use session::{BrowsingSession, ObjectStore, SessionCheckpoint};
pub use tour::{TourEvent, TourRunner};
pub use transparency::TransparencyViewer;
pub use transport::{Backend, Client, FleetStats, TransportStats};
pub use visual::{VisualEngine, VisualView};
pub use workload::{
    simulate_faulty_page_workload, Dwell, FaultyWorkloadReport, RunReport, WorkloadConfig,
};
