package gara

import (
	"errors"

	"mpichgq/internal/netsim"
)

// Multi-domain co-reservation: GARA "uses mechanisms provided by the
// Globus toolkit to address resource discovery and security issues
// when resources span multiple administrative domains" (§4.2), and
// GARNET itself connected to the ESnet and MREN testbeds. Here each
// administrative domain runs its own Gara with a *scoped* NetworkRM
// that owns a subset of links; ctrlplane's Coordinator books an
// end-to-end request as per-domain segments, all or nothing, with
// Gara.Prepare and Prepared.Commit.

// ErrNotInDomain is returned by a scoped NetworkRM when a flow's path
// does not traverse any link the domain owns.
var ErrNotInDomain = errors.New("gara: flow path does not enter this domain")

// Scope restricts a NetworkRM to the links it administers. Nil means
// the RM owns every link (single-domain deployment).
type Scope func(*netsim.Iface) bool

// LinkScope builds a Scope from an explicit link set.
func LinkScope(links ...*netsim.Link) Scope {
	owned := make(map[*netsim.Link]bool, len(links))
	for _, l := range links {
		owned[l] = true
	}
	return func(ifc *netsim.Iface) bool { return owned[ifc.Link()] }
}
