package tcpsim

import (
	"io"
	"testing"
	"time"

	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// msgObj is the distinct object attached to each generated message.
type msgObj struct{ seed, i int }

// TestMarkerDeliveryProperty writes random message sequences over a
// lossy link into a small receive buffer and checks that ReadMsg
// returns every message exactly once, in order, with its exact size
// and object. Sizes mix sub-MSS, exactly-MSS and multi-segment
// messages; loss drives retransmissions (repeated markers) and
// out-of-order arrivals, and the small buffer with fast recovery's
// window inflation sends segments past the buffer, which processData
// truncates.
func TestMarkerDeliveryProperty(t *testing.T) {
	const seeds = 24
	truncated := 0
	for seed := 1; seed <= seeds; seed++ {
		truncated += runMarkerProperty(t, seed)
	}
	if truncated == 0 {
		t.Fatal("no seed reached processData's truncation branch; the property misses it")
	}
}

// runMarkerProperty runs one generated case and returns how many
// arriving segments overran the receive buffer.
func runMarkerProperty(t *testing.T, seed int) int {
	t.Helper()
	k, sa, sb := testNet(10*units.Mbps, time.Millisecond, DefaultOptions())
	rng := sim.NewRNG(int64(seed))
	loss := 0.02 + 0.13*rng.Float64()
	nMsgs := 40 + rng.Intn(80)
	sizes := make([]units.ByteSize, nMsgs)
	for i := range sizes {
		switch rng.Intn(3) {
		case 0:
			sizes[i] = units.ByteSize(1 + rng.Intn(int(mss)-1))
		case 1:
			sizes[i] = mss
		default:
			sizes[i] = mss + units.ByteSize(1+rng.Intn(5*int(mss)))
		}
	}
	rcvBuf := units.ByteSize(2+rng.Intn(4)) * mss

	// Lost ACKs include window updates, so the sender also probes a
	// closed window; a probe past a full buffer is truncated too.
	sa.node.Ifaces()[0].AddIngress(filterFunc(func(p *netsim.Packet) *netsim.Packet {
		if rng.Float64() < loss {
			return nil
		}
		return p
	}))
	var server *Conn
	truncated := 0
	sb.node.Ifaces()[0].AddIngress(filterFunc(func(p *netsim.Packet) *netsim.Packet {
		if p.PayloadLen == 0 {
			return p
		}
		if rng.Float64() < loss {
			return nil
		}
		if c := server; c != nil {
			seg := p.Payload.(*segment)
			end := seg.seq + int64(seg.length)
			if seg.seq <= c.rcvNxt && end > c.rcvNxt && units.ByteSize(end-c.readPos) > c.rcvBufCap {
				truncated++
			}
		}
		return p
	}))

	var got []msgObj
	var gotSizes []units.ByteSize
	k.Spawn("server", func(ctx *sim.Ctx) {
		l, _ := sb.Listen(80)
		c, err := l.Accept(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		c.SetRcvBuf(rcvBuf)
		server = c
		for {
			// A slow reader lets the small buffer fill; now and then
			// it stalls past the sender's RTO, so zero-window probes
			// arrive at a full buffer.
			pause := time.Duration(rng.Intn(3000)) * time.Microsecond
			if rng.Float64() < 0.05 {
				pause = time.Duration(300+rng.Intn(700)) * time.Millisecond
			}
			ctx.Sleep(pause)
			n, obj, err := c.ReadMsg(ctx)
			if err == io.EOF {
				if n != 0 {
					t.Errorf("seed %d: %d trailing bytes before EOF", seed, n)
				}
				return
			}
			if err != nil {
				t.Errorf("seed %d: ReadMsg: %v", seed, err)
				return
			}
			got = append(got, obj.(msgObj))
			gotSizes = append(gotSizes, n)
		}
	})
	k.Spawn("client", func(ctx *sim.Ctx) {
		c, err := sa.Dial(ctx, sb.node.Addr(), 80)
		if err != nil {
			t.Error(err)
			return
		}
		for i, n := range sizes {
			if err := c.WriteMsg(ctx, n, msgObj{seed, i}); err != nil {
				t.Errorf("seed %d: WriteMsg %d: %v", seed, i, err)
				return
			}
		}
		c.Drain(ctx)
		c.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if len(got) != nMsgs {
		t.Fatalf("seed %d: read %d messages, want %d", seed, len(got), nMsgs)
	}
	for i := range got {
		if got[i] != (msgObj{seed, i}) || gotSizes[i] != sizes[i] {
			t.Fatalf("seed %d: message %d = %v (%d bytes), want %v (%d bytes)",
				seed, i, got[i], gotSizes[i], msgObj{seed, i}, sizes[i])
		}
	}
	return truncated
}

// exchangeConns dials a connection across a fresh two-host network
// and returns the kernel plus both ends, handshake done.
func exchangeConns(tb testing.TB) (*sim.Kernel, *Conn, *Conn) {
	k, sa, sb := testNet(100*units.Mbps, time.Millisecond, DefaultOptions())
	var client, server *Conn
	k.Spawn("server", func(ctx *sim.Ctx) {
		l, _ := sb.Listen(80)
		c, err := l.Accept(ctx)
		if err != nil {
			tb.Error(err)
			return
		}
		server = c
	})
	k.Spawn("client", func(ctx *sim.Ctx) {
		c, err := sa.Dial(ctx, sb.node.Addr(), 80)
		if err != nil {
			tb.Error(err)
			return
		}
		client = c
	})
	if err := k.Run(); err != nil || client == nil || server == nil {
		tb.Fatalf("handshake: %v", err)
	}
	return k, client, server
}

// TestReceiverMarkerStateBounded checks that the receiver forgets
// consumed markers: after many messages on one connection the pending
// queue is empty and its backing array is bounded by what the receive
// buffer can hold, not by the message count.
func TestReceiverMarkerStateBounded(t *testing.T) {
	const (
		nMsgs = 10000
		size  = 200 * units.Byte
	)
	k, client, server := exchangeConns(t)
	read := 0
	k.Spawn("reader", func(ctx *sim.Ctx) {
		for read < nMsgs {
			if read%500 == 0 {
				// Fall behind now and then so markers queue up.
				ctx.Sleep(5 * time.Millisecond)
			}
			n, obj, err := server.ReadMsg(ctx)
			if err != nil || n != size || obj != read {
				t.Errorf("message %d: %d bytes, %v, %v", read, n, obj, err)
				return
			}
			read++
		}
	})
	k.Spawn("writer", func(ctx *sim.Ctx) {
		for i := 0; i < nMsgs; i++ {
			if err := client.WriteMsg(ctx, size, i); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if read != nMsgs {
		t.Fatalf("read %d of %d messages", read, nMsgs)
	}
	if pending := len(server.rcvMarkers) - server.rcvHead; pending != 0 {
		t.Fatalf("%d markers still pending after every message was read", pending)
	}
	// At most a buffer's worth of messages (plus one straddling its
	// edge) is ever pending; append may double that once.
	limit := 2 * (int(server.rcvBufCap/size) + 1)
	if c := cap(server.rcvMarkers); c > limit {
		t.Fatalf("marker queue capacity %d after %d messages, want <= %d", c, nMsgs, limit)
	}
}

// exchangeLoop starts a writer that sends one size-byte message per
// millisecond of virtual time over a fresh connection, and a reader
// that takes each one back, and returns the kernel: each RunFor of a
// millisecond is one exchange.
func exchangeLoop(tb testing.TB, size units.ByteSize) *sim.Kernel {
	k, client, server := exchangeConns(tb)
	obj := &msgObj{}
	k.Spawn("writer", func(ctx *sim.Ctx) {
		for {
			if err := client.WriteMsg(ctx, size, obj); err != nil {
				tb.Error(err)
				return
			}
			ctx.Sleep(time.Millisecond)
		}
	})
	k.Spawn("reader", func(ctx *sim.Ctx) {
		for {
			if n, got, err := server.ReadMsg(ctx); err != nil || n != size || got != any(obj) {
				tb.Errorf("ReadMsg = %d, %v, %v", n, got, err)
				return
			}
		}
	})
	return k
}

// TestSteadyStateMessageExchangeAllocsNothing pins the zero-allocation
// small-message path: once a connection's freelists, timers and
// marker queues are warm, a WriteMsg/ReadMsg round trip allocates
// nothing.
func TestSteadyStateMessageExchangeAllocsNothing(t *testing.T) {
	k := exchangeLoop(t, 512)
	step := func() {
		if err := k.RunUntil(k.Now() + time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("steady-state message exchange: %v allocs per message, want 0", allocs)
	}
}
