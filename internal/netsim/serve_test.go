package netsim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// serveRun drives one random arrival schedule into a socket on node b
// and returns the trace of deliveries and of ordinary events sharing
// their instants. Datagrams come from a remote sender across the link
// and from b itself over loopback, often several at one instant, and
// the socket is closed part-way. With served set the socket's receiver
// is a Serve callback, otherwise a process looping on Recv.
func serveRun(t *testing.T, seed int64, served bool) string {
	k := sim.New(seed)
	n := New(k)
	a := n.AddNode("a")
	b := n.AddNode("b")
	n.Connect(a, b, 100*units.Mbps, time.Millisecond)
	n.ComputeRoutes()
	remote, err := a.UDPStack().Bind(0)
	if err != nil {
		t.Fatal(err)
	}
	local, err := b.UDPStack().Bind(0)
	if err != nil {
		t.Fatal(err)
	}
	sock, err := b.UDPStack().Bind(700)
	if err != nil {
		t.Fatal(err)
	}
	var trace strings.Builder
	rec := func(what string, v any) {
		fmt.Fprintf(&trace, "%d %s %v ran=%d pending=%d\n", k.Now(), what, v, k.EventsRun(), k.PendingEvents())
	}
	deliver := func(dg Datagram) { rec("rx", dg.Payload) }
	if served {
		sock.Serve(deliver)
	} else {
		k.Spawn("sink", func(ctx *sim.Ctx) {
			for {
				dg, err := sock.Recv(ctx)
				if err != nil {
					return
				}
				deliver(dg)
			}
		})
	}
	r := sim.NewRNG(seed)
	var instants []time.Duration
	id := 0
	for i := 0; i < 40; i++ {
		at := time.Duration(r.Intn(30)) * 500 * time.Microsecond
		instants = append(instants, at)
		for burst := 1 + r.Intn(4); burst > 0; burst-- {
			id++
			from, dst := remote, b.Addr()
			if r.Intn(2) == 0 {
				from = local
			}
			v := id
			k.At(at, sim.PrioNormal, func() { from.SendTo(dst, 700, 100, v) })
		}
		if r.Intn(3) == 0 {
			v := i
			k.At(at, sim.PrioNormal, func() { rec("tick", v) })
		}
	}
	// Close at one of the send instants or between them, or not at all.
	switch r.Intn(3) {
	case 0:
		k.At(instants[r.Intn(len(instants))], sim.PrioNormal, sock.Close)
	case 1:
		k.At(time.Duration(r.Intn(30))*500*time.Microsecond+250*time.Microsecond, sim.PrioNormal, sock.Close)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	rec("end", sock.Pending())
	return trace.String()
}

// TestServeDifferential requires a Serve receiver to run event for
// event as a process looping on Recv: the same deliveries in the same
// order at the same times, with the same event counts throughout.
func TestServeDifferential(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		want := serveRun(t, seed, false)
		got := serveRun(t, seed, true)
		if got == want {
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("seed %d: traces diverge at entry %d:\nServe:   %s\nprocess: %s", seed, i, gl[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatalf("seed %d: Serve trace is a prefix of the process one", seed)
	}
}
