package gara

import (
	"testing"
	"time"

	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

func TestStorageModify(t *testing.T) {
	r := newRig()
	res, err := r.g.Reserve(Spec{Type: ResourceStorage, Store: r.dpss, ReadRate: 40 * units.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	spec := res.Spec()
	spec.ReadRate = 80 * units.Mbps
	if err := res.Modify(spec); err != nil {
		t.Fatal(err)
	}
	if r.dpss.ReservedRate() != 80*units.Mbps {
		t.Fatalf("reserved = %v, want 80 Mb/s", r.dpss.ReservedRate())
	}
	// Beyond capacity: rejected, old rate intact.
	spec.ReadRate = 200 * units.Mbps
	if err := res.Modify(spec); err == nil {
		t.Fatal("over-capacity modify should fail")
	}
	if r.dpss.ReservedRate() != 80*units.Mbps {
		t.Fatal("failed modify changed enforcement")
	}
	// Moving between servers is rejected.
	other := NewDPSS(r.k, 100*units.Mbps)
	spec.Store = other
	spec.ReadRate = 10 * units.Mbps
	if err := res.Modify(spec); err == nil {
		t.Fatal("moving a storage reservation should fail")
	}
}

func TestCPUModify(t *testing.T) {
	r := newRig()
	task := r.cpu.NewTask("app")
	res, err := r.g.Reserve(Spec{Type: ResourceCPU, Task: task, Fraction: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	spec := res.Spec()
	spec.Fraction = 0.8
	if err := res.Modify(spec); err != nil {
		t.Fatal(err)
	}
	if task.Reservation() != 0.8 {
		t.Fatalf("DSRT share = %v, want 0.8", task.Reservation())
	}
	spec.Fraction = 1.5
	if err := res.Modify(spec); err == nil {
		t.Fatal("fraction above 0.95 should fail")
	}
	other := r.cpu.NewTask("other")
	spec.Task = other
	spec.Fraction = 0.2
	if err := res.Modify(spec); err == nil {
		t.Fatal("moving a CPU reservation between tasks should fail")
	}
}

func TestAdvanceCancelBeforeStart(t *testing.T) {
	r := newRig()
	spec := r.netSpec(4 * units.Mbps)
	spec.Start = 10 * time.Second
	spec.Duration = 10 * time.Second
	res, err := r.g.Reserve(spec)
	if err != nil {
		t.Fatal(err)
	}
	res.Cancel()
	if res.State() != StateCancelled {
		t.Fatalf("state = %v", res.State())
	}
	// The start timer must not fire enforcement later.
	r.k.RunUntil(15 * time.Second)
	edgeIngress := r.net.Links()[0].IfaceOn(r.net.Node("edge"))
	if len(r.domain.Classifier(edgeIngress).Rules()) != 0 {
		t.Fatal("cancelled advance reservation was enforced")
	}
	// And the capacity is free.
	if _, err := r.g.Reserve(r.netSpec(5 * units.Mbps)); err != nil {
		t.Fatalf("capacity not freed: %v", err)
	}
}

func TestModifyExtendsDuration(t *testing.T) {
	r := newRig()
	spec := r.netSpec(2 * units.Mbps)
	spec.Duration = 10 * time.Second
	res, err := r.g.Reserve(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec2 := res.Spec()
	spec2.Duration = 30 * time.Second
	if err := res.Modify(spec2); err != nil {
		t.Fatal(err)
	}
	r.k.RunUntil(15 * time.Second)
	if res.State() != StateActive {
		t.Fatalf("state at 15s = %v, want still active after extension", res.State())
	}
	r.k.RunUntil(31 * time.Second)
	if res.State() != StateExpired {
		t.Fatalf("state at 31s = %v, want expired", res.State())
	}
}

func TestDPSSStarvedBestEffortWaits(t *testing.T) {
	r := newRig()
	// Reserve the whole server; a best-effort session must block
	// until capacity frees.
	res, err := r.g.Reserve(Spec{Type: ResourceStorage, Store: r.dpss, ReadRate: 100 * units.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	be := r.dpss.Open("be")
	var done time.Duration
	r.k.Spawn("reader", func(ctx *sim.Ctx) {
		if err := be.Read(ctx, 1250*units.KB); err != nil { // 10 Mbit
			t.Error(err)
			return
		}
		done = ctx.Now()
	})
	r.k.After(time.Second, func() { res.Cancel() })
	if err := r.k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Blocked for ~1 s, then 10 Mbit at 100 Mb/s = 0.1 s.
	if done < time.Second || done > 1500*time.Millisecond {
		t.Fatalf("starved read finished at %v, want shortly after 1s", done)
	}
	if be.BytesRead() != 1250*units.KB {
		t.Fatalf("bytes read = %v", be.BytesRead())
	}
}

func TestReservationWindowAccessors(t *testing.T) {
	r := newRig()
	spec := r.netSpec(units.Mbps)
	spec.Start = 5 * time.Second
	spec.Duration = 5 * time.Second
	res, err := r.g.Reserve(spec)
	if err != nil {
		t.Fatal(err)
	}
	s, e := res.Window()
	if s != 5*time.Second || e != 10*time.Second {
		t.Fatalf("window = [%v, %v)", s, e)
	}
	if res.ID() == 0 {
		t.Fatal("reservation id should be non-zero")
	}
}

func TestCoReserveTypeMix(t *testing.T) {
	r := newRig()
	task := r.cpu.NewTask("app")
	rs, err := r.g.CoReserve(
		r.netSpec(2*units.Mbps),
		Spec{Type: ResourceCPU, Task: task, Fraction: 0.3},
		Spec{Type: ResourceStorage, Store: r.dpss, ReadRate: 10 * units.Mbps},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("co-reserved %d, want 3", len(rs))
	}
	for _, res := range rs {
		if res.State() != StateActive {
			t.Fatalf("state = %v", res.State())
		}
		res.Cancel()
	}
	if r.dpss.ReservedRate() != 0 || task.Reservation() != 0 {
		t.Fatal("cancel did not release all resources")
	}
}
