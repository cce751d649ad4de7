package metrics

import "time"

// EventType identifies a flight-recorder event.
type EventType uint8

// Flight-recorder event types. V1..V3 carry type-specific payloads
// documented per constant; Subject identifies the emitting entity
// (an interface, node, rank, or reservation state name) and must be
// a pre-interned string so Emit stays allocation-free.
const (
	// EvNone is the zero value; never emitted.
	EvNone EventType = iota
	// EvPacketDropEgress: packet rejected by an egress queue.
	// Subject=iface, V1=size bytes, V2=DSCP.
	EvPacketDropEgress
	// EvPacketDropIngress: packet rejected by an ingress filter
	// (policer). Subject=iface, V1=size bytes, V2=DSCP.
	EvPacketDropIngress
	// EvNoRoute: packet sent toward an address with no route.
	// Subject=node, V1=destination addr, V2=size bytes.
	EvNoRoute
	// EvTokenBucketExceed: a policed packet exceeded its token
	// bucket. Subject=DSCP class, V1=size bytes, V2=exceed action
	// (0 drop, 1 remark).
	EvTokenBucketExceed
	// EvReservationState: a GARA reservation changed state.
	// Subject=new state name, V1=reservation ID.
	EvReservationState
	// EvAdmissionReject: admission control refused a reservation.
	// Subject=resource type, V1=0.
	EvAdmissionReject
	// EvTCPSegment: a data segment was transmitted. Subject=node,
	// V1=sequence number, V2=length bytes, V3=1 if a retransmit.
	EvTCPSegment
	// EvTCPRetransmit: a segment was retransmitted. Subject=node,
	// V1=sequence number, V2=length bytes.
	EvTCPRetransmit
	// EvTCPTimeout: a retransmission timer fired. Subject=node,
	// V1=oldest unacked sequence, V2=new RTO in ns.
	EvTCPTimeout
	// EvDeadlineMiss: a DSRT task's compute phase overran the time
	// its CPU reservation promised. Subject=task, V1=elapsed ns,
	// V2=allowed ns.
	EvDeadlineMiss
	// EvMPIRecv: a message was delivered to an MPI receiver.
	// Subject=rank, V1=payload bytes, V2=communicator context ID,
	// V3=one-way latency in ns (0 if unknown).
	EvMPIRecv
	// EvLinkDown: a link left service. Subject=link name, V1=packets
	// queued on side A at the transition, V2=packets queued on side B.
	EvLinkDown
	// EvLinkUp: a link returned to service. Subject=link name,
	// V1=packets queued on side A, V2=packets queued on side B.
	EvLinkUp
	// EvFaultInject: a fault-injection scenario applied an action.
	// Subject=action name, V1/V2 are action-specific.
	EvFaultInject
	// EvQosRepair: the self-healing QoS agent acted. Subject=phase
	// ("breach", "repair", "fallback", "upgrade", "gated"), V1=rank,
	// V2=communicator context ID, V3=phase-specific detail.
	EvQosRepair
	// EvCtrlMsg: a control-plane message crossed (or died on) a
	// channel. Subject=channel name, V1=request ID, V2=fate (0
	// delivered, 1 dropped, 2 duplicated).
	EvCtrlMsg
	// EvCtrlRPC: a control-plane RPC attempt resolved. Subject=method,
	// V1=request ID, V2=attempt number, V3=outcome (0 ok, 1 timeout,
	// 2 breaker-rejected).
	EvCtrlRPC
	// EvCtrlBreaker: a per-RM circuit breaker changed state.
	// Subject=new state name, V1=consecutive failures.
	EvCtrlBreaker
	// EvCtrlCrash: a resource manager's control-plane server crashed.
	// Subject=server name.
	EvCtrlCrash
	// EvCtrlRecover: a resource manager replayed its reservation
	// journal. Subject=server name, V1=bookings rebuilt, V2=expired
	// leases reclaimed, V3=enforcement rules re-installed.
	EvCtrlRecover
	// EvCtrlLease: a prepared reservation's lease changed. Subject=
	// "expired" or "reclaimed", V1=reservation ID.
	EvCtrlLease
	// EvRankCrash: an MPI rank's process failed. Subject=task name,
	// V1=world rank.
	EvRankCrash
	// EvRankRestart: a failed MPI rank rejoined the job. Subject=task
	// name, V1=world rank, V2=incarnation epoch.
	EvRankRestart
	// EvRankCkpt: a rank saved a checkpoint. Subject=task name,
	// V1=world rank, V2=application step.
	EvRankCkpt
	// EvAdmissionShed: the control-plane admission queue rejected or
	// dropped a request. Subject=rm, V1=request id, V2=shed reason
	// (see ctrlplane), V3=queue depth at the shed.
	EvAdmissionShed
	// EvBrownout: a broker changed its brownout level. Subject=rm,
	// V1=new level, V2=previous level, V3=queue depth at the change.
	EvBrownout
	// EvFluidStart: a fluid background flow became active.
	// Subject=flow name, V1=offered rate (b/s), V2=chunk bytes.
	EvFluidStart
	// EvFluidStop: a fluid background flow stopped. Subject=flow name,
	// V1=offered bytes, V2=delivered bytes.
	EvFluidStop
	// EvFluidRate: the fluid solver installed a new delivered rate for
	// a flow after a rate-change or topology event. Subject=flow name,
	// V1=offered rate (b/s), V2=delivered rate (b/s), V3=hop count.
	EvFluidRate
	evSentinel // keep last
)

var eventTypeNames = [evSentinel]string{
	EvNone:              "none",
	EvPacketDropEgress:  "packet-drop-egress",
	EvPacketDropIngress: "packet-drop-ingress",
	EvNoRoute:           "no-route",
	EvTokenBucketExceed: "token-bucket-exceed",
	EvReservationState:  "reservation-state",
	EvAdmissionReject:   "admission-reject",
	EvTCPSegment:        "tcp-segment",
	EvTCPRetransmit:     "tcp-retransmit",
	EvTCPTimeout:        "tcp-timeout",
	EvDeadlineMiss:      "deadline-miss",
	EvMPIRecv:           "mpi-recv",
	EvLinkDown:          "link.down",
	EvLinkUp:            "link.up",
	EvFaultInject:       "fault-inject",
	EvQosRepair:         "qos-repair",
	EvCtrlMsg:           "ctrl.msg",
	EvCtrlRPC:           "ctrl.rpc",
	EvCtrlBreaker:       "ctrl.breaker",
	EvCtrlCrash:         "ctrl.crash",
	EvCtrlRecover:       "ctrl.recover",
	EvCtrlLease:         "ctrl.lease",
	EvRankCrash:         "rank.crash",
	EvRankRestart:       "rank.restart",
	EvRankCkpt:          "rank.ckpt",
	EvAdmissionShed:     "admission.shed",
	EvBrownout:          "brownout",
	EvFluidStart:        "fluid.start",
	EvFluidStop:         "fluid.stop",
	EvFluidRate:         "fluid.rate",
}

// String returns the event type's wire name (used by exporters).
func (t EventType) String() string {
	if int(t) < len(eventTypeNames) && eventTypeNames[t] != "" {
		return eventTypeNames[t]
	}
	return "unknown"
}

// ParseEventType maps a wire name back to its EventType.
func ParseEventType(s string) (EventType, bool) {
	for t, name := range eventTypeNames {
		if name == s && EventType(t) != EvNone {
			return EventType(t), true
		}
	}
	return EvNone, false
}

// Event is one flight-recorder record. It is a plain value whose only
// pointer is the interned Subject string's data pointer, so recording
// an event allocates nothing; the garbage collector still scans the
// ring, one Subject per slot.
type Event struct {
	// Seq is the global emission sequence number (monotonic from 0).
	Seq uint64
	// At is the sim-kernel time of emission.
	At time.Duration
	// Type discriminates the payload.
	Type EventType
	// Subject names the emitting entity.
	Subject string
	// V1, V2, V3 are type-specific payload values.
	V1, V2, V3 int64
}

// Snapshot converts the event to its JSON export form — the record
// TakeSnapshot writes and gqd /events serves.
func (e Event) Snapshot() EventSnapshot {
	return EventSnapshot{
		Seq: e.Seq, AtNs: int64(e.At), Type: e.Type.String(),
		Subject: e.Subject, V1: e.V1, V2: e.V2, V3: e.V3,
	}
}

// DefaultRecorderCapacity is the ring size a fresh Registry starts
// with. Long experiment runs raise it via SetCapacity.
const DefaultRecorderCapacity = 16384

// Recorder is the flight recorder: a Ring of Events, each stamped with
// its ring sequence number as Seq. Emit is allocation-free; when the
// ring is full the oldest events are overwritten (Dropped reports how
// many).
type Recorder struct {
	Ring[Event]
	clock func() time.Duration
}

// Emit appends an event stamped with the current sim time. subject
// must be an interned string (a constant or a field computed once at
// setup); v1..v3 are type-specific.
func (r *Recorder) Emit(t EventType, subject string, v1, v2, v3 int64) {
	now := r.clock()
	r.mu.Lock()
	seq := r.next
	*r.slot() = Event{
		Seq: seq, At: now, Type: t, Subject: subject, V1: v1, V2: v2, V3: v3,
	}
	r.mu.Unlock()
}

// EventFilter selects flight-recorder events for tail-style queries
// (gqctl events, gqd /events).
type EventFilter struct {
	// Type, when not EvNone, keeps only events of that type.
	Type EventType
	// Subject, when nonempty, keeps only events with that subject.
	Subject string
	// Since keeps only events at or after this virtual time. (The zero
	// value keeps everything: no event precedes t=0.)
	Since time.Duration
	// Last, when positive, keeps only the last N matches.
	Last int
}

func (f EventFilter) match(e *Event) bool {
	return (f.Type == EvNone || e.Type == f.Type) &&
		(f.Subject == "" || e.Subject == f.Subject) &&
		e.At >= f.Since
}

// Query returns the retained events f selects, oldest first.
func (r *Recorder) Query(f EventFilter) []Event {
	return r.Select(f.match, f.Last)
}
