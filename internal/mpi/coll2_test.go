package mpi

import (
	"testing"
	"time"

	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

func TestAlltoall(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8} {
		n := n
		k, j := testJob(n, JobOptions{})
		results := make([][][]float64, n)
		j.Start(func(ctx *sim.Ctx, r *Rank) {
			parts := make([][]float64, n)
			for i := range parts {
				// Rank r sends {r*10 + i} to rank i.
				parts[i] = []float64{float64(r.ID()*10 + i)}
			}
			out, err := r.Alltoall(ctx, r.World(), parts)
			if err != nil {
				t.Error(err)
				return
			}
			results[r.ID()] = out
		})
		if err := k.RunUntil(time.Minute); err != nil {
			t.Fatal(err)
		}
		for me := 0; me < n; me++ {
			for src := 0; src < n; src++ {
				want := float64(src*10 + me)
				if results[me] == nil || len(results[me][src]) != 1 || results[me][src][0] != want {
					t.Fatalf("n=%d: rank %d slot %d = %v, want [%v]", n, me, src, results[me][src], want)
				}
			}
		}
	}
}

func TestScanPrefixSums(t *testing.T) {
	const n = 5
	k, j := testJob(n, JobOptions{})
	var got [n]float64
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		out, err := r.Scan(ctx, r.World(), []float64{float64(r.ID() + 1)}, OpSum)
		if err != nil {
			t.Error(err)
			return
		}
		got[r.ID()] = out[0]
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	// Inclusive prefix sums of 1..5: 1, 3, 6, 10, 15.
	want := []float64{1, 3, 6, 10, 15}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan = %v, want %v", got, want)
		}
	}
}

func TestReduceScatter(t *testing.T) {
	const n = 4
	k, j := testJob(n, JobOptions{})
	var got [n][]float64
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		// Every rank contributes [1, 2, ..., 8] (n*2 elements).
		vec := make([]float64, 2*n)
		for i := range vec {
			vec[i] = float64(i + 1)
		}
		out, err := r.ReduceScatter(ctx, r.World(), vec, OpSum)
		if err != nil {
			t.Error(err)
			return
		}
		got[r.ID()] = out
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	// Sum over 4 ranks: 4*(i+1); rank i gets elements [2i, 2i+2).
	for i := 0; i < n; i++ {
		want0 := float64(4 * (2*i + 1))
		want1 := float64(4 * (2*i + 2))
		if len(got[i]) != 2 || got[i][0] != want0 || got[i][1] != want1 {
			t.Fatalf("rank %d chunk = %v, want [%v %v]", i, got[i], want0, want1)
		}
	}
}

func TestReduceScatterBadLength(t *testing.T) {
	k, j := testJob(3, JobOptions{})
	var gotErr error
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		if r.ID() == 0 {
			_, gotErr = r.ReduceScatter(ctx, r.World(), []float64{1, 2}, OpSum)
		}
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if gotErr == nil {
		t.Fatal("indivisible vector length should error")
	}
}

func TestGathervHeterogeneous(t *testing.T) {
	const n = 3
	k, j := testJob(n, JobOptions{})
	var got []float64
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		// Rank i contributes i+1 elements, all equal to i.
		vec := make([]float64, r.ID()+1)
		for i := range vec {
			vec[i] = float64(r.ID())
		}
		out, err := r.Gatherv(ctx, r.World(), 0, vec)
		if err != nil {
			t.Error(err)
			return
		}
		if r.ID() == 0 {
			got = out
		}
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1, 1, 2, 2, 2}
	if len(got) != len(want) {
		t.Fatalf("gatherv = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("gatherv = %v, want %v", got, want)
		}
	}
}

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

func TestCommDupIsolatesContext(t *testing.T) {
	k, j := testJob(2, JobOptions{})
	var viaDup, viaOrig Message
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		dup, err := r.CommDup(ctx, w)
		if err != nil {
			t.Error(err)
			return
		}
		if dup.Context() == w.Context() {
			t.Error("dup must get a fresh context")
			return
		}
		switch r.ID() {
		case 0:
			r.Send(ctx, w, 1, 5, units.KB, "orig")
			r.Send(ctx, dup, 1, 5, units.KB, "dup")
		case 1:
			var err error
			viaDup, err = r.Recv(ctx, dup, 0, 5)
			if err != nil {
				t.Error(err)
				return
			}
			viaOrig, err = r.Recv(ctx, w, 0, 5)
			if err != nil {
				t.Error(err)
			}
		}
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if viaDup.Data != "dup" || viaOrig.Data != "orig" {
		t.Fatalf("dup=%+v orig=%+v", viaDup, viaOrig)
	}
}
