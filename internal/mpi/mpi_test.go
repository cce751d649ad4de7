package mpi

import (
	"testing"
	"time"

	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/tcpsim"
	"mpichgq/internal/units"
)

// testJob builds an n-rank job, one rank per host, hosts joined
// through a single 100 Mb/s switch node.
func testJob(n int, opts JobOptions) (*sim.Kernel, *Job) {
	k := sim.New(1)
	net := netsim.New(k)
	sw := net.AddNode("switch")
	hosts := make([]*Host, n)
	for i := 0; i < n; i++ {
		nd := net.AddNode(nodeName(i))
		net.Connect(nd, sw, 100*units.Mbps, 100*time.Microsecond)
		hosts[i] = NewHost(nd, tcpsim.DefaultOptions())
	}
	net.ComputeRoutes()
	return k, NewJob(k, hosts, opts)
}

func nodeName(i int) string { return string(rune('a'+i%26)) + "-host" + itoa(i) }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestSendRecvBasic(t *testing.T) {
	k, j := testJob(2, JobOptions{})
	var got Message
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		switch r.ID() {
		case 0:
			if err := r.Send(ctx, w, 1, 7, 10*units.KB, "hi"); err != nil {
				t.Error(err)
			}
		case 1:
			msg, err := r.Recv(ctx, w, 0, 7)
			if err != nil {
				t.Error(err)
				return
			}
			got = msg
		}
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !j.Done() {
		t.Fatal("job did not finish")
	}
	if got.Src != 0 || got.Tag != 7 || got.Len != 10*units.KB || got.Data != "hi" {
		t.Fatalf("got %+v", got)
	}
}

func TestMessageOrderingSameSource(t *testing.T) {
	k, j := testJob(2, JobOptions{})
	var order []int
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		if r.ID() == 0 {
			for i := 0; i < 20; i++ {
				if err := r.Send(ctx, w, 1, 5, units.KB, i); err != nil {
					t.Error(err)
				}
			}
		} else {
			for i := 0; i < 20; i++ {
				msg, err := r.Recv(ctx, w, 0, 5)
				if err != nil {
					t.Error(err)
					return
				}
				order = append(order, msg.Data.(int))
			}
		}
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("non-overtaking violated: %v", order)
		}
	}
}

func TestTagAndSourceMatching(t *testing.T) {
	k, j := testJob(3, JobOptions{})
	var fromTag2, fromRank2 Message
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		switch r.ID() {
		case 0:
			// Receive tag 2 first even though tag 1 arrives first.
			m1, err := r.Recv(ctx, w, 1, 2)
			if err != nil {
				t.Error(err)
				return
			}
			fromTag2 = m1
			m2, err := r.Recv(ctx, w, AnySource, AnyTag)
			if err != nil {
				t.Error(err)
				return
			}
			fromRank2 = m2
		case 1:
			r.Send(ctx, w, 0, 1, units.KB, "tag1")
			r.Send(ctx, w, 0, 2, units.KB, "tag2")
		case 2:
			// Quiet third rank.
		}
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if fromTag2.Data != "tag2" {
		t.Fatalf("tag matching failed: %+v", fromTag2)
	}
	if fromRank2.Data != "tag1" {
		t.Fatalf("wildcard recv got %+v, want tag1", fromRank2)
	}
}

func TestSelfSend(t *testing.T) {
	k, j := testJob(1, JobOptions{})
	var got Message
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		if err := r.Send(ctx, w, 0, 3, units.KB, 42); err != nil {
			t.Error(err)
			return
		}
		msg, err := r.Recv(ctx, w, 0, 3)
		if err != nil {
			t.Error(err)
			return
		}
		got = msg
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if got.Data != 42 {
		t.Fatalf("self-send got %+v", got)
	}
}

func TestRendezvousLargeMessage(t *testing.T) {
	k, j := testJob(2, JobOptions{EagerThreshold: 16 * units.KB})
	var got Message
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		switch r.ID() {
		case 0:
			if err := r.Send(ctx, w, 1, 9, 500*units.KB, "big"); err != nil {
				t.Error(err)
			}
		case 1:
			// Delay posting the receive so the RTS is unexpected.
			ctx.Sleep(100 * time.Millisecond)
			msg, err := r.Recv(ctx, w, 0, 9)
			if err != nil {
				t.Error(err)
				return
			}
			got = msg
		}
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if got.Len != 500*units.KB || got.Data != "big" {
		t.Fatalf("rendezvous got %+v", got)
	}
}

func TestRendezvousRecvPostedFirst(t *testing.T) {
	k, j := testJob(2, JobOptions{EagerThreshold: units.KB})
	var got Message
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		switch r.ID() {
		case 0:
			ctx.Sleep(100 * time.Millisecond)
			if err := r.Send(ctx, w, 1, 9, 100*units.KB, "late"); err != nil {
				t.Error(err)
			}
		case 1:
			msg, err := r.Recv(ctx, w, 0, 9)
			if err != nil {
				t.Error(err)
				return
			}
			got = msg
		}
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if got.Data != "late" {
		t.Fatalf("got %+v", got)
	}
}

func TestIsendIrecvWaitAll(t *testing.T) {
	k, j := testJob(2, JobOptions{})
	var got []*Message
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		switch r.ID() {
		case 0:
			var reqs []*Request
			for i := 0; i < 5; i++ {
				q, err := r.Isend(ctx, w, 1, i, 10*units.KB, i)
				if err != nil {
					t.Error(err)
					return
				}
				reqs = append(reqs, q)
			}
			if err := WaitAll(ctx, reqs...); err != nil {
				t.Error(err)
			}
		case 1:
			var reqs []*Request
			for i := 0; i < 5; i++ {
				q, err := r.Irecv(ctx, w, 0, i)
				if err != nil {
					t.Error(err)
					return
				}
				reqs = append(reqs, q)
			}
			if err := WaitAll(ctx, reqs...); err != nil {
				t.Error(err)
				return
			}
			for _, q := range reqs {
				got = append(got, q.Message())
			}
		}
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %d messages", len(got))
	}
	for i, m := range got {
		if m.Tag != i || m.Data.(int) != i {
			t.Fatalf("message %d = %+v", i, m)
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const n = 5
	k, j := testJob(n, JobOptions{})
	var after [n]time.Duration
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		// Stagger entry; everyone leaves after the last entry.
		ctx.Sleep(time.Duration(r.ID()) * 100 * time.Millisecond)
		if err := r.Barrier(ctx, r.World()); err != nil {
			t.Error(err)
			return
		}
		after[r.ID()] = ctx.Now()
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	latest := time.Duration((n - 1) * 100 * int(time.Millisecond))
	for i, at := range after {
		if at < latest {
			t.Fatalf("rank %d left barrier at %v, before last entry %v", i, at, latest)
		}
	}
}

func TestBcastAllRanks(t *testing.T) {
	const n = 7
	k, j := testJob(n, JobOptions{})
	var got [n]any
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		var data any
		if r.ID() == 2 {
			data = "payload"
		}
		out, err := r.Bcast(ctx, r.World(), 2, 50*units.KB, data)
		if err != nil {
			t.Error(err)
			return
		}
		got[r.ID()] = out
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != "payload" {
			t.Fatalf("rank %d got %v", i, v)
		}
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	const n = 6
	k, j := testJob(n, JobOptions{})
	var reduced []float64
	var all [n][]float64
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		vec := []float64{float64(r.ID() + 1), 1}
		out, err := r.Reduce(ctx, r.World(), 0, vec, OpSum)
		if err != nil {
			t.Error(err)
			return
		}
		if r.ID() == 0 {
			reduced = out
		}
		got, err := r.Allreduce(ctx, r.World(), vec, OpSum)
		if err != nil {
			t.Error(err)
			return
		}
		all[r.ID()] = got
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	// Sum of 1..6 = 21, count = 6.
	if reduced == nil || reduced[0] != 21 || reduced[1] != 6 {
		t.Fatalf("reduce = %v", reduced)
	}
	for i, v := range all {
		if v == nil || v[0] != 21 || v[1] != 6 {
			t.Fatalf("allreduce rank %d = %v", i, v)
		}
	}
}

func TestGatherAllgather(t *testing.T) {
	const n = 4
	k, j := testJob(n, JobOptions{})
	var gathered []float64
	var allgathered [n][]float64
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		out, err := r.Gather(ctx, w, 1, []float64{float64(r.ID())})
		if err != nil {
			t.Error(err)
			return
		}
		if r.ID() == 1 {
			gathered = out
		}
		ag, err := r.Allgather(ctx, w, []float64{float64(r.ID() * 100)})
		if err != nil {
			t.Error(err)
			return
		}
		allgathered[r.ID()] = ag
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1, 2, 3}
	for i := range want {
		if gathered[i] != want[i] {
			t.Fatalf("gather = %v", gathered)
		}
	}
	for i := range allgathered {
		for q := 0; q < n; q++ {
			if allgathered[i][q] != float64(q*100) {
				t.Fatalf("allgather rank %d = %v", i, allgathered[i])
			}
		}
	}
}

func TestCommSplitIsolation(t *testing.T) {
	const n = 4
	k, j := testJob(n, JobOptions{})
	var sizes [n]int
	var sums [n]float64
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		// Even ranks and odd ranks form separate communicators.
		sub, err := r.CommSplit(ctx, r.World(), r.ID()%2, r.ID())
		if err != nil {
			t.Error(err)
			return
		}
		sizes[r.ID()] = sub.Size()
		out, err := r.Allreduce(ctx, sub, []float64{float64(r.ID())}, OpSum)
		if err != nil {
			t.Error(err)
			return
		}
		sums[r.ID()] = out[0]
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if sizes[i] != 2 {
			t.Fatalf("rank %d split size = %d", i, sizes[i])
		}
		want := 2.0 // 0+2
		if i%2 == 1 {
			want = 4.0 // 1+3
		}
		if sums[i] != want {
			t.Fatalf("rank %d sub-sum = %v, want %v", i, sums[i], want)
		}
	}
}

func TestCommSplitUndefined(t *testing.T) {
	k, j := testJob(2, JobOptions{})
	var r0Comm *Comm
	var r1Nil bool
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		color := 0
		if r.ID() == 1 {
			color = -1 // MPI_UNDEFINED
		}
		sub, err := r.CommSplit(ctx, r.World(), color, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if r.ID() == 0 {
			r0Comm = sub
		} else {
			r1Nil = sub == nil
		}
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if r0Comm == nil || r0Comm.Size() != 1 {
		t.Fatal("rank 0 should get a singleton communicator")
	}
	if !r1Nil {
		t.Fatal("rank 1 should get nil for negative color")
	}
}

func TestPairCommAndContextIsolation(t *testing.T) {
	k, j := testJob(2, JobOptions{})
	var viaWorld, viaPair Message
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		pc, err := r.PairComm(ctx, 1-r.ID())
		if err != nil {
			t.Error(err)
			return
		}
		if !pc.inter || pc.Size() != 2 {
			t.Errorf("pair comm = %+v", pc)
		}
		switch r.ID() {
		case 0:
			// Same tag on two contexts must not cross.
			r.Send(ctx, w, 1, 5, units.KB, "world")
			r.Send(ctx, pc, pc.localRank(1), 5, units.KB, "pair")
		case 1:
			viaPair, err = r.Recv(ctx, pc, pc.localRank(0), 5)
			if err != nil {
				t.Error(err)
				return
			}
			viaWorld, err = r.Recv(ctx, w, 0, 5)
			if err != nil {
				t.Error(err)
			}
		}
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if viaPair.Data != "pair" {
		t.Fatalf("pair context got %+v", viaPair)
	}
	if viaWorld.Data != "world" {
		t.Fatalf("world context got %+v", viaWorld)
	}
}

func TestAttributesAndTrigger(t *testing.T) {
	k, j := testJob(2, JobOptions{})
	var triggered []string
	kv := j.KeyvalCreate(func(r *Rank, c *Comm, val any) error {
		triggered = append(triggered, val.(string))
		return nil
	})
	plain := j.KeyvalCreate(nil)
	var got any
	var flag, missing bool
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		if r.ID() != 0 {
			return
		}
		w := r.World()
		if err := r.AttrPut(w, kv, "premium"); err != nil {
			t.Error(err)
		}
		if err := r.AttrPut(w, plain, "untriggered"); err != nil {
			t.Error(err)
		}
		got, flag = w.AttrGet(kv)
		_, missing = w.AttrGet(Keyval(99))
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(triggered) != 1 || triggered[0] != "premium" {
		t.Fatalf("trigger fired %v", triggered)
	}
	if !flag || got != "premium" {
		t.Fatalf("AttrGet = %v/%v", got, flag)
	}
	if missing {
		t.Fatal("unknown keyval should report flag=false")
	}
}

func TestEndpointsExposeFlows(t *testing.T) {
	k, j := testJob(2, JobOptions{})
	var eps []FlowEndpoint
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		if r.ID() == 0 {
			pc, err := r.PairComm(ctx, 1)
			if err != nil {
				t.Error(err)
				return
			}
			eps = r.Endpoints(pc)
		} else {
			r.PairComm(ctx, 0)
		}
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(eps) != 1 {
		t.Fatalf("endpoints = %d, want 1", len(eps))
	}
	if eps[0].SrcNode == eps[0].DstNode {
		t.Fatal("endpoint addresses should differ")
	}
}

func TestPingPongManyRounds(t *testing.T) {
	k, j := testJob(2, JobOptions{})
	rounds := 0
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		const msg = 15 * units.KB
		for i := 0; i < 50; i++ {
			if r.ID() == 0 {
				if err := r.Send(ctx, w, 1, 0, msg, nil); err != nil {
					t.Error(err)
					return
				}
				if _, err := r.Recv(ctx, w, 1, 0); err != nil {
					t.Error(err)
					return
				}
				rounds++
			} else {
				if _, err := r.Recv(ctx, w, 0, 0); err != nil {
					t.Error(err)
					return
				}
				if err := r.Send(ctx, w, 0, 0, msg, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if rounds != 50 {
		t.Fatalf("completed %d rounds, want 50", rounds)
	}
	if !j.Done() {
		t.Fatal("job not done")
	}
}

func TestColocatedRanksOneHost(t *testing.T) {
	// Two ranks share one host (same node/TCP/CPU): messages flow via
	// loopback-less same-node connection... they still go through the
	// network layer, which requires distinct nodes. Co-location here
	// means same CPU but distinct nodes is the common case; this test
	// uses one Host object twice to exercise port separation.
	k := sim.New(1)
	net := netsim.New(k)
	a := net.AddNode("a")
	b := net.AddNode("b")
	net.Connect(a, b, 100*units.Mbps, time.Millisecond)
	net.ComputeRoutes()
	ha := NewHost(a, tcpsim.DefaultOptions())
	hb := NewHost(b, tcpsim.DefaultOptions())
	j := NewJob(k, []*Host{ha, hb, ha}, JobOptions{})
	sum := 0
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		if r.ID() == 0 {
			r.Send(ctx, w, 2, 1, units.KB, 11)
		} else if r.ID() == 2 {
			m, err := r.Recv(ctx, w, 0, 1)
			if err != nil {
				t.Error(err)
				return
			}
			sum = m.Data.(int)
		}
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if sum != 11 {
		t.Fatalf("co-located transfer got %d", sum)
	}
}

func TestFinalizeTearsDownCleanly(t *testing.T) {
	k, j := testJob(3, JobOptions{})
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		// A little traffic first.
		if r.ID() == 0 {
			r.Send(ctx, w, 1, 0, 10*units.KB, nil)
		} else if r.ID() == 1 {
			r.Recv(ctx, w, 0, 0)
		}
		if err := r.Finalize(ctx); err != nil {
			t.Error(err)
			return
		}
		if !r.finalized {
			t.Error("rank not finalized after Finalize")
		}
		if err := r.Finalize(ctx); err == nil {
			t.Error("double Finalize should error")
		}
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !j.Done() {
		t.Fatal("job incomplete")
	}
	// All TCP connections torn down on every host.
	for i := 0; i < j.Size(); i++ {
		if n := j.Rank(i).Host().TCP.ConnCount(); n != 0 {
			t.Fatalf("rank %d leaked %d connections", i, n)
		}
	}
}
