package ctrlplane

import (
	"testing"
	"time"

	"mpichgq/internal/units"
)

// BenchmarkAdmissionEnqueueServe measures the admission queue's cost
// per request: bursts of 16 requests from three tenants are enqueued
// and served one ServiceTime apart through fair dequeue, the CoDel and
// brownout checks and the service timer. The broker's execution is a
// cancel of an unknown reservation, so that the queue's bookkeeping,
// not the slot tables, is what is timed. Nothing is shed. Each reply
// travels the stub's reply channel, as a served request's does. The
// request records are the stub's pooled ones: each is handed to the
// queue as a delivery would hand it, and goes back once served, so a
// burst reuses the records of the one before.
func BenchmarkAdmissionEnqueueServe(b *testing.B) {
	const burst = 16
	r := newRig(1, Options{Admission: Admission{
		ServiceTime:  time.Millisecond,
		QueueLimit:   2 * burst,
		CoDelTarget:  50 * time.Millisecond,
		DropExpired:  true,
		BrownoutHi:   2 * burst,
		BrownoutHold: time.Second,
	}})
	defer r.k.Close()
	srv := r.plane.Conn("dom1").Server()
	conn := r.plane.Conn("dom1")
	tenants := []string{"t0", "t1", "t2"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := conn.newMsg(&request{
			reqID:    uint64(i + 1),
			method:   methodCancel,
			resID:    uint64(i + 1),
			from:     tenants[i%len(tenants)],
			deadline: r.k.Now() + time.Hour,
		})
		srv.adm.enqueue(m)
		m.unref()
		if i%burst == burst-1 || i == b.N-1 {
			if err := r.k.RunUntil(r.k.Now() + burst*time.Millisecond); err != nil {
				b.Fatal(err)
			}
			// Keep the reply cache from growing with b.N.
			clear(srv.seen)
		}
	}
	b.StopTimer()
	if served := srv.adm.mServed.Value(); served != int64(b.N) {
		b.Fatalf("served %d of %d requests", served, b.N)
	}
}

// warmConnReserve returns one Reserve round trip through the admission
// queue, warmed up: the call, the request channel, a queue slot, the
// broker's service slot and GARA's booking, the reply channel and the
// callback. Each reservation lasts 5 ms of virtual time, so it has
// ended before the next call and the slot tables stay small.
func warmConnReserve(tb testing.TB) (reserve func(), close func()) {
	r := newRig(1, Options{Admission: Admission{
		ServiceTime: time.Millisecond,
		QueueLimit:  16,
		CoDelTarget: 50 * time.Millisecond,
		DropExpired: true,
	}})
	conn := r.plane.Conn("dom1")
	spec := r.spec(units.Mbps)
	spec.Duration = 5 * time.Millisecond
	var err error
	done := func(_ uint64, e error) { err = e }
	reserve = func() {
		err = errPending
		conn.Reserve(spec, done)
		if e := r.k.RunUntil(r.k.Now() + 20*time.Millisecond); e != nil {
			tb.Fatal(e)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		reserve()
	}
	return reserve, r.k.Close
}

// BenchmarkConnReserve measures one warmed Reserve round trip. What it
// allocates is GARA's booking; the control plane's own part allocates
// nothing (TestControlRoundTripZeroAlloc).
func BenchmarkConnReserve(b *testing.B) {
	reserve, close := warmConnReserve(b)
	defer close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reserve()
	}
}

// TestConnReserveAllocs pins what a warmed Reserve round trip
// allocates, all of it GARA's booking: admission walks the route into
// the manager's scratch slice, only activation keeps a hop slice (sized
// once per walk), and a failed booking rolls back over the hops it
// walked rather than over a second slice.
func TestConnReserveAllocs(t *testing.T) {
	reserve, close := warmConnReserve(t)
	defer close()
	if allocs := testing.AllocsPerRun(100, reserve); allocs > 10 {
		t.Fatalf("a warmed Reserve round trip allocates %v objects, want at most 10", allocs)
	}
}
