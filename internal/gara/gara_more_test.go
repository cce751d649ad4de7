package gara

import (
	"testing"
	"time"

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
	other := NewDPSS(100 * units.Mbps)
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

// TestCPUModifyRefusedByDSRTRollsBack pins that a Modify DSRT refuses
// changes nothing: another task on the processor holds a share set
// outside GARA, so the slot table admits the larger fraction but DSRT
// does not.
func TestCPUModifyRefusedByDSRTRollsBack(t *testing.T) {
	r := newRig()
	a, b := r.cpu.NewTask("a"), r.cpu.NewTask("b")
	res, err := r.g.Reserve(Spec{Type: ResourceCPU, Task: a, Fraction: 0.4, Duration: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetReservation(0.5); err != nil {
		t.Fatal(err)
	}
	start, end := res.Window()
	spec := res.Spec()
	spec.Fraction = 0.6
	spec.Duration = 20 * time.Second
	if err := res.Modify(spec); err == nil {
		t.Fatal("DSRT should refuse 0.6 next to a 0.5 share")
	}
	if got := res.Spec().Fraction; got != 0.4 {
		t.Fatalf("spec fraction = %v after a refused modify, want 0.4", got)
	}
	if s, e := res.Window(); s != start || e != end {
		t.Fatalf("window = [%v, %v) after a refused modify, want [%v, %v)", s, e, start, end)
	}
	if got := a.Reservation(); got != 0.4 {
		t.Fatalf("DSRT share = %v after a refused modify, want 0.4", got)
	}
	// The slot table still books 0.4: 0.55 more fits under the 0.95
	// ceiling, 0.56 does not.
	other := r.cpu.NewTask("probe")
	if err := r.g.Probe(Spec{Type: ResourceCPU, Task: other, Fraction: 0.55}); err != nil {
		t.Fatalf("booking is not back at 0.4: %v", err)
	}
	if err := r.g.Probe(Spec{Type: ResourceCPU, Task: other, Fraction: 0.56}); err == nil {
		t.Fatal("booking fell below 0.4")
	}
}

// TestStorageModifyRefusedByServerRollsBack is the storage form: a
// rate reserved on the server outside GARA is unknown to the slot
// table, so the server refuses the larger rate.
func TestStorageModifyRefusedByServerRollsBack(t *testing.T) {
	r := newRig()
	res, err := r.g.Reserve(Spec{Type: ResourceStorage, Store: r.dpss, ReadRate: 40 * units.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.dpss.reserve(0, 50*units.Mbps); err != nil {
		t.Fatal(err)
	}
	spec := res.Spec()
	spec.ReadRate = 60 * units.Mbps
	if err := res.Modify(spec); err == nil {
		t.Fatal("the server should refuse 60 Mb/s next to 50 Mb/s")
	}
	if got := res.Spec().ReadRate; got != 40*units.Mbps {
		t.Fatalf("spec rate = %v after a refused modify, want 40 Mb/s", got)
	}
	if got := r.dpss.ReservedRate(); got != 90*units.Mbps {
		t.Fatalf("server reserves %v after a refused modify, want 90 Mb/s", got)
	}
	if err := r.g.Probe(Spec{Type: ResourceStorage, Store: r.dpss, ReadRate: 60 * units.Mbps}); err != nil {
		t.Fatalf("booking is not back at 40 Mb/s: %v", err)
	}
	if err := r.g.Probe(Spec{Type: ResourceStorage, Store: r.dpss, ReadRate: 61 * units.Mbps}); err == nil {
		t.Fatal("booking fell below 40 Mb/s")
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
	edgeIngress := r.net.Links()[0].B()
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
