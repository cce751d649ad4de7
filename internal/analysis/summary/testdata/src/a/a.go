// Package a is the fixture for the summary package. Function names
// state the expected facts; summary_test.go asserts them.
package a

type packet struct {
	size int
	next *packet
}

type pool struct {
	free []*packet
	held *packet
}

func (n *pool) AllocPacket() *packet { return &packet{} }
func (n *pool) FreePacket(p *packet) { n.free = append(n.free, p) }

// --- settling facts ---

// freesDirect settles param #1 by calling the pool free directly.
func freesDirect(n *pool, p *packet) { n.FreePacket(p) }

// freesViaHelper settles param #1 transitively through freesDirect.
func freesViaHelper(n *pool, p *packet) { freesDirect(n, p) }

// freesMutualA / freesMutualB form an SCC that settles on the base
// case; the fixpoint must mark both as settling.
func freesMutualA(n *pool, p *packet, depth int) {
	if depth <= 0 {
		n.FreePacket(p)
		return
	}
	freesMutualB(n, p, depth-1)
}

func freesMutualB(n *pool, p *packet, depth int) { freesMutualA(n, p, depth) }

// readsOnly must carry no facts: it neither settles nor escapes its
// parameter.
func readsOnly(p *packet) int { return p.size }

// readsViaHelper reads through readsOnly: still no facts.
func readsViaHelper(p *packet) int { return readsOnly(p) }

// --- escape facts ---

// storesInReceiver escapes param #0 into the receiver's struct.
func (n *pool) storesInReceiver(p *packet) { n.held = p }

// returnsParam escapes param #0 to the caller.
func returnsParam(p *packet) *packet { return p }

// aliasesParam escapes param #0 by aliasing it.
func aliasesParam(p *packet) {
	q := p
	_ = q
}

// passesToUnknown escapes param #0 into a function value.
func passesToUnknown(p *packet, sink func(*packet)) { sink(p) }

// capturedByClosure escapes param #0 into a closure.
func capturedByClosure(p *packet, run func(func())) {
	run(func() { p.size++ })
}

// --- escapes into package-level state ---

var (
	held     *packet
	registry = map[string]*packet{}
	pending  []*packet
)

// storesGlobalDirect stores param #0 into package-level state.
func storesGlobalDirect(p *packet) { held = p }

// storesGlobalMap stores param #0 into a package-level map.
func storesGlobalMap(name string, p *packet) { registry[name] = p }

// storesGlobalAppend stores param #0 via append into a global slice.
func storesGlobalAppend(p *packet) { pending = append(pending, p) }

// storesGlobalViaHelper stores param #0 transitively.
func storesGlobalViaHelper(p *packet) { storesGlobalDirect(p) }

// --- escapes into goroutines ---

// spawnsWithArg passes param #0 into a goroutine.
func spawnsWithArg(p *packet) { go consume(p) }

// spawnsWithCapture captures param #0 in a goroutine closure.
func spawnsWithCapture(p *packet) {
	go func() { p.size++ }()
}

// spawnsViaHelper reaches a goroutine transitively.
func spawnsViaHelper(p *packet) { spawnsWithArg(p) }

func consume(p *packet) { held = p }

// variadicSink is variadic: call sites cannot map positions soundly.
func variadicSink(ps ...*packet) {}
