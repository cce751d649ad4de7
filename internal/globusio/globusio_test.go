package globusio

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mpichgq/internal/dsrt"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/tcpsim"
	"mpichgq/internal/units"
)

// pair returns two established, wrapped connections over a fast link.
func pair(t *testing.T, k *sim.Kernel, rate units.BitRate, cfgA, cfgB Config) (*IO, *IO) {
	t.Helper()
	n := netsim.New(k)
	a := n.AddNode("a")
	b := n.AddNode("b")
	n.Connect(a, b, rate, time.Millisecond)
	n.ComputeRoutes()
	sa := tcpsim.NewStack(a, tcpsim.DefaultOptions())
	sb := tcpsim.NewStack(b, tcpsim.DefaultOptions())
	var ioA, ioB *IO
	k.Spawn("accept", func(ctx *sim.Ctx) {
		l, err := sb.Listen(80)
		if err != nil {
			t.Error(err)
			return
		}
		c, err := l.Accept(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		ioB = Wrap(k, c, cfgB)
	})
	k.Spawn("dial", func(ctx *sim.Ctx) {
		c, err := sa.Dial(ctx, b.Addr(), 80)
		if err != nil {
			t.Error(err)
			return
		}
		ioA = Wrap(k, c, cfgA)
	})
	if err := k.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if ioA == nil || ioB == nil {
		t.Fatal("connection setup failed")
	}
	return ioA, ioB
}

func TestPlainWriteRead(t *testing.T) {
	k := sim.New(1)
	ioA, ioB := pair(t, k, 10*units.Mbps, Config{}, Config{})
	var got units.ByteSize
	k.Spawn("reader", func(ctx *sim.Ctx) {
		n, _, err := ioB.ReadMsg(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		got = n
	})
	k.Spawn("writer", func(ctx *sim.Ctx) {
		if err := ioA.WriteMsg(ctx, 50*units.KB, "msg"); err != nil {
			t.Error(err)
		}
	})
	if err := k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got != 50*units.KB {
		t.Fatalf("read %v, want 50 KB", got)
	}
}

func TestCPUChargingSlowsWriter(t *testing.T) {
	// With a hog on the CPU and a copy cost, the same transfer takes
	// about twice as long as with a dedicated CPU.
	run := func(withHog bool) time.Duration {
		k := sim.New(1)
		cpu := dsrt.NewCPU(k, "host")
		task := cpu.NewTask("writer")
		cfg := Config{Task: task, CopyCostPerKB: 100 * time.Microsecond}
		ioA, ioB := pair(t, k, 1000*units.Mbps, cfg, Config{})
		if withHog {
			hog := cpu.NewTask("hog")
			k.Spawn("hog", func(ctx *sim.Ctx) {
				for ctx.Now() < 100*time.Second {
					hog.Compute(ctx, 10*time.Millisecond)
				}
			})
		}
		var done time.Duration
		k.Spawn("reader", func(ctx *sim.Ctx) {
			if _, _, err := ioB.ReadMsg(ctx); err != nil {
				t.Error(err)
			}
		})
		k.Spawn("writer", func(ctx *sim.Ctx) {
			start := ctx.Now()
			if err := ioA.WriteMsg(ctx, units.MB, "msg"); err != nil {
				t.Error(err)
				return
			}
			ioA.Drain(ctx)
			done = ctx.Now() - start
		})
		if err := k.RunUntil(100 * time.Second); err != nil {
			t.Fatal(err)
		}
		if done == 0 {
			t.Fatal("writer did not finish")
		}
		return done
	}
	solo := run(false)
	contended := run(true)
	// 1 MB at 100 µs/KB = 100 ms of CPU. Solo ~100 ms; at half share
	// ~200 ms.
	ratio := float64(contended) / float64(solo)
	if ratio < 1.7 || ratio > 2.5 {
		t.Fatalf("contention ratio = %.2f (solo %v, contended %v), want ~2", ratio, solo, contended)
	}
}

func TestShaperPacesWrites(t *testing.T) {
	// A 1 Mb/s shaper must stretch a 125 KB burst (1 Mbit) to ~1 s
	// even on a 100 Mb/s link.
	k := sim.New(1)
	sh := &ShaperConfig{Rate: units.Mbps, Depth: 10 * units.KB}
	ioA, ioB := pair(t, k, 100*units.Mbps, Config{Shaper: sh, WriteChunk: 10 * units.KB}, Config{})
	var done time.Duration
	k.Spawn("reader", func(ctx *sim.Ctx) {
		if _, _, err := ioB.ReadMsg(ctx); err != nil {
			t.Error(err)
		}
		done = ctx.Now()
	})
	start := k.Now()
	k.Spawn("writer", func(ctx *sim.Ctx) {
		if err := ioA.WriteMsg(ctx, 125*units.KB, "msg"); err != nil {
			t.Error(err)
		}
	})
	if err := k.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	elapsed := done - start
	if elapsed < 800*time.Millisecond || elapsed > 1300*time.Millisecond {
		t.Fatalf("shaped transfer took %v, want ~1s", elapsed)
	}
}

func TestShaperAllowsBurstUpToDepth(t *testing.T) {
	// A write within the bucket depth goes out immediately.
	k := sim.New(1)
	sh := &ShaperConfig{Rate: units.Mbps, Depth: 50 * units.KB}
	ioA, ioB := pair(t, k, 100*units.Mbps, Config{Shaper: sh, WriteChunk: 50 * units.KB}, Config{})
	var done time.Duration
	k.Spawn("reader", func(ctx *sim.Ctx) {
		if _, _, err := ioB.ReadMsg(ctx); err != nil {
			t.Error(err)
		}
		done = ctx.Now()
	})
	start := k.Now()
	k.Spawn("writer", func(ctx *sim.Ctx) {
		ioA.WriteMsg(ctx, 50*units.KB, "msg")
	})
	if err := k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// 50 KB at 100 Mb/s is ~4 ms + RTT; far below the 400 ms the
	// shaper rate alone would impose.
	if done-start > 100*time.Millisecond {
		t.Fatalf("burst within depth took %v, should be fast", done-start)
	}
}

func TestWriteMsgThroughWrapper(t *testing.T) {
	k := sim.New(1)
	ioA, ioB := pair(t, k, 10*units.Mbps, Config{}, Config{})
	var n units.ByteSize
	var obj any
	k.Spawn("reader", func(ctx *sim.Ctx) {
		n, obj, _ = ioB.ReadMsg(ctx)
	})
	k.Spawn("writer", func(ctx *sim.Ctx) {
		// Message larger than one chunk: marker must arrive at the
		// very end.
		if err := ioA.WriteMsg(ctx, 200*units.KB, "tail"); err != nil {
			t.Error(err)
		}
	})
	if err := k.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n != 200*units.KB || obj != "tail" {
		t.Fatalf("ReadMsg = %d/%v, want 200KB/tail", n, obj)
	}
}

// TestSetSockBufs shows the buffers SetSockBufs installs at work: with
// nobody reading, the receiver's buffer bounds what the sender puts on
// the wire, 16 KB after the call where the default would allow 64 KB.
func TestSetSockBufs(t *testing.T) {
	k := sim.New(1)
	ioA, ioB := pair(t, k, 10*units.Mbps, Config{}, Config{})
	ioB.SetSockBufs(8*units.KB, 16*units.KB)
	k.Spawn("writer", func(ctx *sim.Ctx) { ioA.WriteMsg(ctx, 200*units.KB, "msg") })
	if err := k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	sent, _ := k.Metrics().CounterValue("netsim_tx_bytes_total", "iface", "a[a-b]")
	// 16 KB of payload plus headers and window probes; the default
	// buffer lets 64 KB through (73,381 bytes on the wire).
	if sent < int64(16*units.KB) || sent > int64(32*units.KB) {
		t.Fatalf("sender put %d bytes on the wire, want 16-32 KB", sent)
	}
}

// serveStream runs one generated message stream from A to B. B reads
// with a Serve callback (serve) or with a process looping on ReadMsg;
// each message read wakes an echo process, and a CPU hog shares B's
// processor when the stream charges copy cost. It returns the trace of
// every read and echo with its time and the events run so far, then
// the kernel's event count and clock.
func serveStream(t *testing.T, seed int64, copyCost time.Duration, serve bool) string {
	t.Helper()
	k := sim.New(seed)
	defer k.Close()
	rng := sim.NewRNG(seed)
	cpu := dsrt.NewCPU(k, "b")
	cfgB := Config{Task: cpu.NewTask("reader"), CopyCostPerKB: copyCost}
	ioA, ioB := pair(t, k, 10*units.Mbps, Config{}, cfgB)
	var trace strings.Builder
	rec := func(format string, args ...any) {
		fmt.Fprintf(&trace, "%d ran=%d ", k.Now(), k.EventsRun())
		fmt.Fprintf(&trace, format+"\n", args...)
	}
	echo := sim.NewCond(k)
	var replies []any
	var total units.ByteSize
	read := func(n units.ByteSize, obj any, err error) {
		total += n
		rec("read %d %v %v", n, obj, err)
		if err == nil {
			replies = append(replies, obj)
			echo.Signal()
		}
	}
	if serve {
		ioB.Serve(read)
	} else {
		k.Spawn("reader", func(ctx *sim.Ctx) {
			for {
				n, obj, err := ioB.ReadMsg(ctx)
				read(n, obj, err)
				if err != nil {
					return
				}
			}
		})
	}
	k.Spawn("echo", func(ctx *sim.Ctx) {
		for {
			for len(replies) == 0 {
				echo.Wait(ctx)
			}
			rec("echo %v", replies[0])
			replies = replies[1:]
			ctx.Sleep(100 * time.Microsecond)
		}
	})
	if copyCost > 0 {
		hog := cpu.NewTask("hog")
		k.Spawn("hog", func(ctx *sim.Ctx) {
			for i := 0; i < 20; i++ {
				hog.Compute(ctx, time.Duration(1+rng.Intn(20))*time.Millisecond)
				ctx.Sleep(time.Duration(rng.Intn(10)) * time.Millisecond)
			}
		})
	}
	msgs := 1 + rng.Intn(30)
	closeAtEnd := rng.Intn(2) == 0
	k.Spawn("writer", func(ctx *sim.Ctx) {
		for i := 0; i < msgs; i++ {
			ctx.Sleep(time.Duration(rng.Intn(4)) * time.Millisecond)
			size := units.ByteSize(1 + rng.Intn(3*int(units.KB)))
			if rng.Intn(4) == 0 {
				size *= 40
			}
			if err := ioA.WriteMsg(ctx, size, i); err != nil {
				t.Error(err)
				return
			}
		}
		if closeAtEnd {
			ioA.Close()
		}
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&trace, "end now=%d ran=%d read=%d\n", k.Now(), k.EventsRun(), total)
	return trace.String()
}

// TestServeDifferential reads generated message streams with a Serve
// callback and with a process looping on ReadMsg, with and without a
// CPU copy cost: every message must be handed over at the same time
// and event count, with the same effects on the events that follow.
func TestServeDifferential(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		for _, cost := range []time.Duration{0, 100 * time.Microsecond} {
			want := serveStream(t, seed, cost, false)
			got := serveStream(t, seed, cost, true)
			if got != want {
				gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
				for i := range gl {
					if i >= len(wl) || gl[i] != wl[i] {
						t.Fatalf("seed %d cost %v: traces diverge at entry %d:\nServe:   %s\nReadMsg: %s", seed, cost, i, gl[i], wl[min(i, len(wl)-1)])
					}
				}
				t.Fatalf("seed %d cost %v: Serve trace is a prefix of the ReadMsg one", seed, cost)
			}
		}
	}
}
