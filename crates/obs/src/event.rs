//! Trace event model: phases, method tags, and the event record itself.

/// Node id used for coordinator-scope events (driver phases that span the
/// whole cluster rather than one node's slice of work).
pub const COORD: u32 = u32::MAX;

/// Which maintenance method a lifecycle event belongs to. Mirrors
/// `pvm_core::MaintenanceMethod` without depending on it (obs sits below
/// core in the dependency graph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MethodTag {
    Naive,
    AuxRel,
    GlobalIndex,
}

impl MethodTag {
    pub fn label(self) -> &'static str {
        match self {
            MethodTag::Naive => "naive",
            MethodTag::AuxRel => "auxrel",
            MethodTag::GlobalIndex => "global-index",
        }
    }
}

/// Lifecycle / infrastructure phase an event belongs to.
///
/// The per-delta maintenance lifecycle is
/// `Route → Probe | IndexUpdate → Ship → Join → ViewApply`;
/// `Send`/`Recv`/`Step` are transport- and scheduler-level, and
/// `Base`/`Aux`/`Compute`/`View` are the coordinator-scope driver phases
/// that match the four `MeterReport`s in a `MaintenanceOutcome`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// One backend epoch executing on one node.
    Step,
    /// Routing a delta tuple to its target node(s).
    Route,
    /// Probing a base/aux relation for join partners.
    Probe,
    /// Updating an auxiliary relation or global index.
    IndexUpdate,
    /// Shipping join results toward the view partition.
    Ship,
    /// Forming join tuples at the probing node.
    Join,
    /// Applying final tuples at the view node.
    ViewApply,
    /// A message handed to the interconnect.
    Send,
    /// A message batch arriving in a node's inbox.
    Recv,
    /// Driver phase: applying the delta to the base relation.
    Base,
    /// Driver phase: maintaining auxiliary structures (ARs / GI).
    Aux,
    /// Driver phase: computing the view delta (probe + join).
    Compute,
    /// Driver phase: installing the view delta.
    View,
}

impl Phase {
    pub fn label(self) -> &'static str {
        match self {
            Phase::Step => "step",
            Phase::Route => "route",
            Phase::Probe => "probe",
            Phase::IndexUpdate => "index-update",
            Phase::Ship => "ship",
            Phase::Join => "join",
            Phase::ViewApply => "view-apply",
            Phase::Send => "send",
            Phase::Recv => "recv",
            Phase::Base => "base",
            Phase::Aux => "aux",
            Phase::Compute => "compute",
            Phase::View => "view",
        }
    }
}

/// One structured trace record. Timestamps are *logical steps* (backend
/// epochs), so recorded timelines are deterministic and identical across
/// the sequential and threaded backends.
///
/// `step_end == step_begin` marks an instant event; `step_end >
/// step_begin` marks a span covering `[step_begin, step_end)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    pub phase: Phase,
    /// Maintenance method, when the event is part of a delta lifecycle.
    pub method: Option<MethodTag>,
    /// Node the event happened on; [`COORD`] for coordinator scope.
    pub node: u32,
    /// Logical step at which the event begins.
    pub step_begin: u64,
    /// Logical step at which the event ends (== begin for instants).
    pub step_end: u64,
    /// Peer node for send/recv-like events.
    pub peer: Option<u32>,
    /// Join-key (or other identifying) rendering, when cheap to produce.
    pub key: Option<String>,
    /// Payload bytes involved.
    pub bytes: u64,
    /// Generic count (rows, fan-out targets, messages...).
    pub count: u64,
    /// Arrival order within the recording buffer; assigned by the sink.
    pub seq: u64,
}

impl TraceEvent {
    /// An instant event at `step` on `node`.
    pub fn instant(phase: Phase, node: u32, step: u64) -> Self {
        TraceEvent {
            phase,
            method: None,
            node,
            step_begin: step,
            step_end: step,
            peer: None,
            key: None,
            bytes: 0,
            count: 0,
            seq: 0,
        }
    }

    /// A span covering logical steps `[begin, end)`.
    pub fn span(phase: Phase, node: u32, begin: u64, end: u64) -> Self {
        let mut ev = TraceEvent::instant(phase, node, begin);
        ev.step_end = end.max(begin);
        ev
    }

    pub fn with_method(mut self, method: MethodTag) -> Self {
        self.method = Some(method);
        self
    }

    pub fn with_peer(mut self, peer: u32) -> Self {
        self.peer = Some(peer);
        self
    }

    pub fn with_key(mut self, key: impl Into<String>) -> Self {
        self.key = Some(key.into());
        self
    }

    pub fn with_bytes(mut self, bytes: u64) -> Self {
        self.bytes = bytes;
        self
    }

    pub fn with_count(mut self, count: u64) -> Self {
        self.count = count;
        self
    }

    pub fn is_span(&self) -> bool {
        self.step_end > self.step_begin
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let ev = TraceEvent::span(Phase::Probe, 2, 5, 7)
            .with_method(MethodTag::AuxRel)
            .with_peer(1)
            .with_key("j=42")
            .with_bytes(128)
            .with_count(3);
        assert!(ev.is_span());
        assert_eq!(ev.method, Some(MethodTag::AuxRel));
        assert_eq!(ev.peer, Some(1));
        assert_eq!(ev.key.as_deref(), Some("j=42"));
        assert_eq!((ev.bytes, ev.count), (128, 3));
    }

    #[test]
    fn span_clamps_inverted_range() {
        let ev = TraceEvent::span(Phase::Step, 0, 9, 3);
        assert_eq!(ev.step_end, 9);
        assert!(!ev.is_span());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Phase::ViewApply.label(), "view-apply");
        assert_eq!(MethodTag::GlobalIndex.label(), "global-index");
    }
}
