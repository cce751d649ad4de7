package mpi

import (
	"testing"
	"time"

	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// TestWildcardRecvRacesEagerAndRendezvous posts MPI_ANY_SOURCE
// receives at a receiver while one peer streams eager messages and
// another streams rendezvous messages at it concurrently. Every
// message must be delivered exactly once with the correct source and
// length, regardless of which protocol wins each match.
func TestWildcardRecvRacesEagerAndRendezvous(t *testing.T) {
	const perSender = 12
	k, j := testJob(3, JobOptions{EagerThreshold: 16 * units.KB})
	eager := 4 * units.KB  // below threshold: eager protocol
	rdv := 256 * units.KB  // above threshold: RTS/CTS rendezvous
	got := map[int][]int{} // src -> sequence numbers in arrival order
	var lens = map[int]units.ByteSize{}
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		switch r.ID() {
		case 1:
			for i := 0; i < perSender; i++ {
				if err := r.Send(ctx, w, 0, 7, eager, i); err != nil {
					t.Errorf("eager send %d: %v", i, err)
				}
			}
		case 2:
			for i := 0; i < perSender; i++ {
				if err := r.Send(ctx, w, 0, 7, rdv, i); err != nil {
					t.Errorf("rendezvous send %d: %v", i, err)
				}
			}
		case 0:
			for i := 0; i < 2*perSender; i++ {
				m, err := r.Recv(ctx, w, AnySource, 7)
				if err != nil {
					t.Errorf("wildcard recv %d: %v", i, err)
					return
				}
				got[m.Src] = append(got[m.Src], m.Data.(int))
				lens[m.Src] = m.Len
			}
		}
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !j.Done() {
		t.Fatal("job did not complete")
	}
	for src, want := range map[int]units.ByteSize{1: eager, 2: rdv} {
		seqs := got[src]
		if len(seqs) != perSender {
			t.Fatalf("src %d delivered %d messages, want %d: %v", src, len(seqs), perSender, seqs)
		}
		// Per-source (non-overtaking) order must hold even under
		// wildcard matching with mixed protocols.
		for i, s := range seqs {
			if s != i {
				t.Fatalf("src %d out of order at %d: %v", src, i, seqs)
			}
		}
		if lens[src] != want {
			t.Fatalf("src %d message length %v, want %v", src, lens[src], want)
		}
	}
}

// TestWildcardIrecvRacesMixedProtocols is the nonblocking variant:
// pre-posted ANY_SOURCE Irecvs race an eager sender against a
// rendezvous sender that both fire at time zero.
func TestWildcardIrecvRacesMixedProtocols(t *testing.T) {
	const perSender = 6
	k, j := testJob(3, JobOptions{EagerThreshold: 8 * units.KB})
	counts := map[int]int{}
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		switch r.ID() {
		case 1:
			for i := 0; i < perSender; i++ {
				if err := r.Send(ctx, w, 0, 3, units.KB, i); err != nil {
					t.Errorf("eager send: %v", err)
				}
			}
		case 2:
			for i := 0; i < perSender; i++ {
				if err := r.Send(ctx, w, 0, 3, 64*units.KB, i); err != nil {
					t.Errorf("rendezvous send: %v", err)
				}
			}
		case 0:
			reqs := make([]*Request, 0, 2*perSender)
			for i := 0; i < 2*perSender; i++ {
				rq, err := r.Irecv(ctx, w, AnySource, 3)
				if err != nil {
					t.Errorf("irecv: %v", err)
					return
				}
				reqs = append(reqs, rq)
			}
			for _, rq := range reqs {
				m, err := rq.Wait(ctx)
				if err != nil {
					t.Errorf("wait: %v", err)
					return
				}
				counts[m.Src]++
			}
		}
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !j.Done() {
		t.Fatal("job did not complete")
	}
	if counts[1] != perSender || counts[2] != perSender {
		t.Fatalf("delivery counts = %v, want %d from each sender", counts, perSender)
	}
}
