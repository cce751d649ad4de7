package ctrlplane

import (
	"testing"
	"time"
)

// BenchmarkAdmissionEnqueueServe measures the admission queue's cost
// per request: bursts of 16 requests from three tenants are enqueued
// and served one ServiceTime apart through fair dequeue, the CoDel and
// brownout checks and the service timer. The broker's execution is a
// cancel of an unknown reservation, so that the queue's bookkeeping,
// not the slot tables, is what is timed. Nothing is shed.
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
	srv := r.plane.Server("dom1")
	tenants := []string{"t0", "t1", "t2"}
	served := 0
	reply := func(response) { served++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.adm.enqueue(request{
			reqID:    uint64(i + 1),
			method:   methodCancel,
			resID:    uint64(i + 1),
			from:     tenants[i%len(tenants)],
			deadline: r.k.Now() + time.Hour,
		}, reply)
		if i%burst == burst-1 || i == b.N-1 {
			if err := r.k.RunFor(burst * time.Millisecond); err != nil {
				b.Fatal(err)
			}
			// Keep the reply cache from growing with b.N.
			clear(srv.seen)
		}
	}
	b.StopTimer()
	if served != b.N {
		b.Fatalf("served %d of %d requests", served, b.N)
	}
}
