// Package a is a seeded-violation fixture for the determinism
// analyzer: it imports the simulation kernel, making it kernel-driven.
package a

import (
	"b"
	"math/rand"
	"sort"
	"time"

	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
)

type server struct {
	k     *sim.Kernel
	peers map[string]*sim.Kernel
}

func (s *server) wallClock() time.Duration {
	start := time.Now()     // want `time.Now reads the wall clock`
	_ = time.Since(start)   // want `time.Since reads the wall clock`
	time.Sleep(time.Second) // want `time.Sleep reads the wall clock`
	<-time.After(time.Hour) // want `time.After reads the wall clock`
	return s.k.Now()        // ok: simulated clock
}

func (s *server) ambientRand() int {
	rand.Shuffle(3, func(i, j int) {}) // want `rand.Shuffle uses the ambient math/rand source`
	return rand.Intn(10)               // want `rand.Intn uses the ambient math/rand source`
}

func (s *server) unseeded(src rand.Source) *rand.Rand {
	_ = rand.New(src)                   // want `rand.New without a visible rand.NewSource`
	return rand.New(rand.NewSource(42)) // ok: visibly seeded
}

func (s *server) goroutine() {
	go s.wallClock() // want `go statement in kernel-driven package`
}

func (s *server) spawnOK() {
	s.k.Spawn("proc", func(ctx *sim.Ctx) {}) // ok: kernel-admitted process
}

func (s *server) mapOrder(d time.Duration) {
	for _, peer := range s.peers {
		peer.After(d, func() {}) // want `After called while ranging over a map`
	}
	// ok: sorted iteration
	names := make([]string, 0, len(s.peers))
	for name := range s.peers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.peers[name].After(d, func() {})
	}
}

func (s *server) fluidMapOrder(flows map[string]*netsim.FluidFlow) {
	for _, fl := range flows {
		fl.SetRate(0) // want `SetRate called while ranging over a map`
	}
	for _, fl := range flows {
		fl.Stop() // want `Stop called while ranging over a map`
	}
	// ok: sorted iteration
	names := make([]string, 0, len(flows))
	for name := range flows {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		flows[name].Stop()
	}
}

// --- wakeups schedule the woken callbacks in call order ---

func (s *server) wakeupMapOrder(conds map[int]*sim.Cond, ws map[int]*sim.Waiter, c *sim.Cond, socks map[int]*netsim.UDPSocket) {
	for _, cd := range conds {
		cd.Signal() // want `Signal called while ranging over a map`
	}
	for _, cd := range conds {
		cd.Broadcast() // want `Broadcast called while ranging over a map`
	}
	for _, w := range ws {
		w.Wake() // want `Wake called while ranging over a map`
	}
	for _, w := range ws {
		w.WakeAfter(time.Millisecond) // want `WakeAfter called while ranging over a map`
	}
	for _, w := range ws {
		c.Await(w) // want `Await called while ranging over a map`
	}
	for _, w := range ws {
		c.AwaitTimeout(w, time.Millisecond) // want `AwaitTimeout called while ranging over a map`
	}
	for _, u := range socks {
		u.Serve(func(netsim.Datagram) {}) // want `Serve called while ranging over a map`
	}
	// ok: key order
	for i := 0; i < len(conds); i++ {
		if cd := conds[i]; cd != nil {
			cd.Broadcast()
		}
	}
}

// --- calls that take a process Ctx may block ---

type conn struct{}

func (c *conn) Drain(ctx *sim.Ctx) error { return nil }
func (c *conn) Close()                   {}

func drainAll(ctx *sim.Ctx, conns []*conn) {}

func (s *server) blockingMapOrder(ctx *sim.Ctx, conns map[int]*conn, cond *sim.Cond) {
	for _, c := range conns {
		_ = c.Drain(ctx) // want `Drain takes a \*sim.Ctx, so it may block, while ranging over a map`
		c.Close()        // ok: cannot block
	}
	for range conns {
		cond.Wait(ctx) // want `Wait takes a \*sim.Ctx`
	}
	for _, c := range conns {
		drainAll(ctx, []*conn{c}) // want `drainAll takes a \*sim.Ctx`
	}
	for range conns {
		s.k.Spawn("p", func(*sim.Ctx) {}) // want `Spawn called while ranging over a map`
	}
	// ok: peer order
	for peer := 0; peer < len(conns); peer++ {
		if c := conns[peer]; c != nil {
			_ = c.Drain(ctx)
		}
	}
}

// --- package-level state: shared by every kernel in the process ---

var (
	defaultKernel *sim.Kernel
	pending       []*netsim.Packet
	counter       int
	registry      = map[string]int{}
	table         [4]struct{ hits int }
)

// init runs before any kernel exists: exempt.
func init() {
	counter = 1
	registry["boot"] = 1
}

func (s *server) packageState(p *netsim.Packet) {
	defaultKernel = s.k                // want `package-level state defaultKernel is written outside init`
	pending = append(pending, p)       // want `package-level state pending is written outside init`
	counter++                          // want `package-level state counter is written outside init`
	registry["x"] = 2                  // want `package-level state registry is written outside init`
	table[0].hits += 1                 // want `package-level state table is written outside init`
	b.Hits = 0                         // want `package-level state Hits is written outside init`
	local := registry["x"]             // ok: reading package state into a local
	s.peers = map[string]*sim.Kernel{} // ok: state hangs off its owner
	_ = local
}

func (s *server) suppressed() {
	//lint:ignore determinism fixture proves the suppression mechanism works
	go s.wallClock()
}

func (s *server) suppressedWrite() {
	//lint:ignore determinism fixture proves suppression covers package-state writes
	counter = 7
}

func (s *server) bareDirectiveDoesNotSuppress() {
	//lint:ignore determinism
	go s.wallClock() // want `go statement in kernel-driven package`
}
