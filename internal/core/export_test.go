package gq

// Hooks for the external test package. Most of core's tests live in
// package gq_test: they drive workloads through trafficgen, which
// imports ctrlplane, which imports core — so from inside package gq
// they would close an import cycle. These aliases expose the few
// unexported details those tests pin.

// AgentBucketDepth exposes the token-bucket sizing rule.
var AgentBucketDepth = (*Agent).bucketDepth

// Watchdog phase names as recorded in flight-recorder events.
const (
	PhaseGated   = phaseGated
	PhaseRepair  = phaseRepair
	PhaseUpgrade = phaseUpgrade
)

// FallbackAfter is the watchdog's failed-attempt count before fallback.
const FallbackAfter = fallbackAfter
