package mpi

import (
	"testing"
	"time"

	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

func TestPersistentRequests(t *testing.T) {
	k, j := testJob(2, JobOptions{})
	var got []int
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		const iters = 5
		if r.ID() == 0 {
			ps, err := r.SendInit(w, 1, 3, 10*units.KB, nil)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < iters; i++ {
				ps.SetData(10*units.KB, i)
				if err := ps.Start(ctx); err != nil {
					t.Error(err)
					return
				}
				if err := ps.Wait(ctx); err != nil {
					t.Error(err)
					return
				}
			}
		} else {
			pr, err := r.RecvInit(w, 0, 3)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < iters; i++ {
				if err := pr.Start(ctx); err != nil {
					t.Error(err)
					return
				}
				if err := pr.Wait(ctx); err != nil {
					t.Error(err)
					return
				}
				got = append(got, pr.Message().Data.(int))
			}
		}
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("persistent recv order = %v", got)
		}
	}
}

func TestPersistentStartWhileActiveFails(t *testing.T) {
	k, j := testJob(2, JobOptions{})
	var startErr error
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		if r.ID() != 0 {
			return
		}
		pr, err := r.RecvInit(r.World(), 1, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if err := pr.Start(ctx); err != nil {
			t.Error(err)
			return
		}
		startErr = pr.Start(ctx) // still active: no message will come
	})
	if err := k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if startErr == nil {
		t.Fatal("double Start should error")
	}
}
