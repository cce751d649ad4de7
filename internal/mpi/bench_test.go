package mpi

import (
	"fmt"
	"testing"
	"time"

	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// startPingPong wires up a two-rank job on separate hosts whose ranks
// play one blocking ping-pong of size-byte messages per k.Run: rank 0
// stops the kernel before each round, sends and receives, and rank 1
// receives and replies. The returned round function runs one round
// trip and reports the first error either rank saw.
func startPingPong(tb testing.TB, size units.ByteSize) (k *sim.Kernel, round func() error) {
	k, j := testJob(2, JobOptions{})
	var failed error
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		peer := 1 - r.ID()
		for failed == nil {
			if r.ID() == 0 {
				// Hand control back to the caller before each round.
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
		tb.Fatal(err)
	}
	return k, func() error {
		if err := k.Run(); err != nil {
			return err
		}
		return failed
	}
}

// benchPingPong times round trips of each size; one op is two
// messages through matching, globus-io framing and TCP, with the
// kernel's work between them.
func benchPingPong(b *testing.B, sizes ...units.ByteSize) {
	for _, size := range sizes {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			k, round := startPingPong(b, size)
			defer k.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := round(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// rdvSize is a message size above the default eager threshold, so it
// takes the rendezvous path.
var rdvSize = 2 * JobOptions{}.withDefaults().EagerThreshold

// BenchmarkMPIEagerSendRecv measures eager ping-pongs between two
// ranks on separate hosts.
func BenchmarkMPIEagerSendRecv(b *testing.B) {
	benchPingPong(b, 64, 2*units.KB)
}

// BenchmarkMPIRendezvousSendRecv measures ping-pongs above the eager
// threshold: each message is an RTS, matched against the posted
// receive, a clear-to-send from a helper process, and the bulk data.
func BenchmarkMPIRendezvousSendRecv(b *testing.B) {
	benchPingPong(b, rdvSize)
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
			_, failed = q.Wait(ctx)
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
