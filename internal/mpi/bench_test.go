package mpi

import (
	"fmt"
	"testing"
	"time"

	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// BenchmarkMPIEagerSendRecv measures one eager ping-pong between two
// ranks on separate hosts: rank 0 sends, rank 1 receives and replies,
// rank 0 receives. One op is two messages through matching, globus-io
// framing and TCP, with the kernel's work between them.
func BenchmarkMPIEagerSendRecv(b *testing.B) {
	for _, size := range []units.ByteSize{64, 2 * units.KB} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			k, j := testJob(2, JobOptions{})
			var failed error
			j.Start(func(ctx *sim.Ctx, r *Rank) {
				w := r.World()
				peer := 1 - r.ID()
				for failed == nil {
					if r.ID() == 0 {
						// Hand control back to the benchmark loop
						// before each round.
						ctx.Kernel().Stop()
						if failed = r.Send(ctx, w, peer, 0, size, nil); failed != nil {
							return
						}
					}
					if _, failed = r.Recv(ctx, w, peer, 0); failed != nil {
						return
					}
					if r.ID() == 1 {
						failed = r.Send(ctx, w, peer, 0, size, nil)
					}
				}
			})
			// Wire the job up; rank 0 stops the kernel before round 1.
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := k.Run(); err != nil || failed != nil {
					b.Fatal(err, failed)
				}
			}
		})
	}
}

// BenchmarkIrecvWait measures a nonblocking receive: rank 1 posts an
// Irecv, a request that the progress engine completes from callbacks,
// and waits on it while rank 0's eager 64-byte message, sent once per
// virtual millisecond, arrives. One op is one Irecv, one send and one
// Wait.
func BenchmarkIrecvWait(b *testing.B) {
	k, j := testJob(2, JobOptions{})
	defer k.Close()
	var failed error
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		for failed == nil {
			if r.ID() == 0 {
				ctx.Sleep(time.Millisecond)
				failed = r.Send(ctx, w, 1, 0, 64, nil)
				continue
			}
			// Hand control back to the benchmark loop before each
			// round.
			ctx.Kernel().Stop()
			q, err := r.Irecv(ctx, w, 0, 0)
			if err != nil {
				failed = err
				return
			}
			failed = q.Wait(ctx)
		}
	})
	// Wire the job up; rank 1 stops the kernel before round 1.
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.Run(); err != nil || failed != nil {
			b.Fatal(err, failed)
		}
	}
}
