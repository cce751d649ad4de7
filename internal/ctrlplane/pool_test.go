package ctrlplane

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mpichgq/internal/gara"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// errPending marks a callback-form call whose done has not run yet.
var errPending = errors.New("call still pending")

// checkRecordPools fails t unless every request and reply record c
// ever made is back on its freelist, exactly once, with no references.
func checkRecordPools(t *testing.T, c *Conn) {
	t.Helper()
	if len(c.freeMsgs) != c.madeMsgs || len(c.freeReplies) != c.madeReplies {
		t.Errorf("%s/%s: %d of %d request and %d of %d reply records on the freelists",
			c.name, c.Tenant, len(c.freeMsgs), c.madeMsgs, len(c.freeReplies), c.madeReplies)
	}
	seenMsg := make(map[*msg]bool)
	for _, m := range c.freeMsgs {
		if seenMsg[m] || m.refs != 0 {
			t.Errorf("%s/%s: request record on the freelist twice or still referenced (refs %d)", c.name, c.Tenant, m.refs)
		}
		seenMsg[m] = true
	}
	seenReply := make(map[*reply]bool)
	for _, r := range c.freeReplies {
		if seenReply[r] || r.refs != 0 {
			t.Errorf("%s/%s: reply record on the freelist twice or still referenced (refs %d)", c.name, c.Tenant, r.refs)
		}
		seenReply[r] = true
	}
}

// TestControlRoundTripZeroAlloc: once the freelists are warm, a call's
// whole round trip (transmit, dispatch, the admission queue when it is
// on, answer, the reply's delivery and the call's release) allocates
// nothing. The call is a cancel of an unknown reservation, so the
// broker's own work allocates nothing either.
func TestControlRoundTripZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		adm  Admission
	}{
		{"sync", Admission{}},
		{"admission", Admission{ServiceTime: time.Millisecond, QueueLimit: 16,
			CoDelTarget: 50 * time.Millisecond, DropExpired: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(1, Options{Admission: tc.adm})
			defer r.k.Close()
			conn := r.plane.Conn("dom1")
			srv := conn.Server()
			err, calls := errPending, 0
			done := func(_ uint64, e error) { err = e; calls++ }
			roundTrip := func() {
				conn.callback(methodCancel, request{resID: 1 << 40}, done)
				if e := r.k.RunFor(20 * time.Millisecond); e != nil {
					t.Fatal(e)
				}
				clear(srv.seen) // keep the reply cache from growing with the runs
			}
			for i := 0; i < 16; i++ {
				roundTrip()
			}
			if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
				t.Errorf("a warmed round trip allocates %v times, want 0", allocs)
			}
			if err != nil || calls != 16+201 {
				t.Fatalf("%d calls done, last error %v", calls, err)
			}
			if conn.madeMsgs != 1 || conn.madeReplies != 1 {
				t.Errorf("%d request and %d reply records made for one call at a time, want 1 each",
					conn.madeMsgs, conn.madeReplies)
			}
			checkRecordPools(t, conn)
		})
	}
}

// TestControlRecordPoolSoak storms both domains, through every stub,
// with loss and duplication on both channels of each, an admission
// queue that sheds at the door, evicts, drops expired requests and
// sheds on delay, two-phase co-reservations from a process beside the
// callback calls, and a crash and restart of dom1 mid-storm. Once the
// storm has drained, every request and reply record is back on its
// stub's freelist exactly once; a record released once too often
// panics.
func TestControlRecordPoolSoak(t *testing.T) {
	const stop = 6 * time.Second
	r := newRig(11, Options{
		Timeout:  80 * time.Millisecond,
		Deadline: 400 * time.Millisecond,
		Admission: Admission{
			ServiceTime:   4 * time.Millisecond,
			QueueLimit:    8,
			CoDelTarget:   15 * time.Millisecond,
			CoDelInterval: 40 * time.Millisecond,
			DropExpired:   true,
			BrownoutHi:    7,
			BrownoutLo:    2,
			BrownoutHold:  300 * time.Millisecond,
		},
	})
	defer r.k.Close()
	conns := []*Conn{r.plane.Conn("dom1"), r.plane.Conn("dom2"),
		r.plane.AddTenantConn("dom1", "t1"), r.plane.AddTenantConn("dom1", "t2"),
		r.plane.AddTenantConn("dom2", "t1")}
	for _, c := range conns {
		for _, ch := range []*Chan{c.toSrv, c.fromSrv} {
			ch.SetLoss(0.1)
			ch.SetDup(0.1)
		}
	}
	srv1 := r.plane.Server("dom1")
	r.k.At(2*time.Second, sim.PrioNormal, func() { srv1.Crash() })
	r.k.At(2500*time.Millisecond, sim.PrioNormal, func() {
		if _, err := srv1.Restart(); err != nil {
			t.Errorf("restart: %v", err)
		}
	})

	// Open-loop callback calls, about 400 a second over the five stubs
	// before retries and duplicates, against brokers that serve 250 a
	// second each; dom1 takes three fifths of them.
	rng := sim.NewRNG(5)
	issued, finished := 0, 0
	done := func(uint64, error) { finished++ }
	var arrive func()
	arrive = func() {
		if r.k.Now() >= stop {
			return
		}
		c := conns[issued%len(conns)]
		spec := r.spec(100 * units.Kbps)
		spec.Class = gara.Class(rng.Intn(3))
		spec.Duration = 200 * time.Millisecond
		issued++
		c.Reserve(spec, done)
		r.k.After(time.Duration(1+rng.Intn(4))*time.Millisecond, arrive)
	}
	r.k.At(0, sim.PrioNormal, arrive)
	// Two-phase co-reservations, each cancelled when it succeeds, from
	// a process: these calls take the process form.
	coReserves := 0
	r.k.Spawn("coord", func(ctx *sim.Ctx) {
		for r.k.Now() < stop {
			if mr, err := r.co.Reserve(ctx, r.spec(units.Mbps)); err == nil {
				coReserves++
				_ = mr.Cancel(ctx)
			}
			ctx.Sleep(20 * time.Millisecond)
		}
	})
	if err := r.k.RunUntil(stop + 3*time.Second); err != nil {
		t.Fatal(err)
	}

	if issued == 0 || finished != issued {
		t.Fatalf("%d of %d callback calls finished", finished, issued)
	}
	if coReserves == 0 {
		t.Error("no co-reservation succeeded")
	}
	reg := r.k.Metrics()
	for _, reason := range []string{"full", "evict", "expired", "codel", "brownout", "crash"} {
		if v, _ := reg.CounterValue("admission_shed_total", "rm", "dom1", "reason", reason); v == 0 {
			t.Errorf("dom1 shed nothing for reason %q", reason)
		}
	}
	t.Logf("%d callback calls, %d co-reservations", issued, coReserves)
	for _, c := range conns {
		t.Logf("%s/%s: %d request and %d reply records", c.name, c.Tenant, c.madeMsgs, c.madeReplies)
		for _, ch := range []*Chan{c.toSrv, c.fromSrv} {
			if ch.mDropped.Value() == 0 || ch.mDup.Value() == 0 {
				t.Errorf("channel %s dropped %d and duplicated %d messages, want both",
					ch.name, ch.mDropped.Value(), ch.mDup.Value())
			}
		}
		if c.madeMsgs == 0 || c.madeReplies == 0 {
			t.Errorf("%s/%s made no records", c.name, c.Tenant)
		}
		if len(c.waiting) != 0 {
			t.Errorf("%s/%s still waits on %d calls", c.name, c.Tenant, len(c.waiting))
		}
		checkRecordPools(t, c)
	}
	for _, name := range r.plane.Names() {
		if d := r.plane.Server(name).QueueDepth(); d != 0 {
			t.Errorf("%s queue depth %d after the drain", name, d)
		}
	}

	// A reference count below zero panics.
	c := conns[0]
	m := c.newMsg(&request{reqID: 1})
	m.unref()
	mustPanic(t, "request record released twice", m.unref)
	rp := takeFree(&c.freeReplies)
	mustPanic(t, "reply record released twice", rp.unref)
}

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		if p, _ := recover().(string); !strings.Contains(p, want) {
			t.Errorf("panic %q, want %q", p, want)
		}
	}()
	f()
}
